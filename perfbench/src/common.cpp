#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "workloads.h"

namespace perfbench {

using linuxfp::util::Json;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

void ChunkedSamples::fold() {
  p50_.push_back(quantile(buf_, 0.50));
  p99_.push_back(quantile(buf_, 0.99));
  buf_.clear();
}

double ChunkedSamples::estimate(const std::vector<double>& per_chunk,
                                double q_in) const {
  if (per_chunk.empty()) return quantile(buf_, q_in);
  return quantile(per_chunk, kHostQuantile);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::map<std::string, double> registry_counters(const Json& j) {
  std::map<std::string, double> out;
  if (!j.is_object() || !j.contains("counters")) return out;
  for (const auto& [name, value] : j.at("counters").object_items()) {
    out[name] = value.as_number();
  }
  return out;
}

std::map<std::string, double> diff(const std::map<std::string, double>& after,
                                   const std::map<std::string, double>& before) {
  std::map<std::string, double> out;
  for (const auto& [name, v] : after) {
    auto it = before.find(name);
    out[name] = v - (it == before.end() ? 0.0 : it->second);
  }
  return out;
}

namespace {

bool starts_with(const std::string& s, const std::string& p) {
  return s.compare(0, p.size(), p) == 0;
}
bool ends_with(const std::string& s, const std::string& p) {
  return s.size() >= p.size() &&
         s.compare(s.size() - p.size(), p.size(), p) == 0;
}
double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Slow-path stages reported one by one: the stages the three workloads
// spend most of their stack cycles in (slowpath.<stage>.cycles counters).
const std::vector<std::string>& reported_stages() {
  static const std::vector<std::string> stages = {
      "ip_rcv",        "fib_lookup",      "nf_forward",    "ip_forward",
      "neigh_lookup",  "skb_alloc",       "netif_receive", "conntrack",
      "br_handle_frame", "br_fdb_lookup", "br_forward",    "veth_xmit",
      "vxlan_encap",   "vxlan_decap",     "tc_ingress_prog", "driver_rx"};
  return stages;
}

}  // namespace

void declare_layer_metrics(Report& r) {
  static const std::vector<std::pair<std::string, const char*>> names = [] {
    std::vector<std::pair<std::string, const char*>> v = {
        {"engine.inject_ns", "ns"},
        {"engine.stop_ns", "ns"},
        {"engine.backpressure_stalls_per_kpkt", "count"},
        {"engine.handoff_stalls_per_kpkt", "count"},
        {"engine.tx_stalls_per_kpkt", "count"},
        {"engine.rx_max_occupancy", "count"},
        {"engine.fast_cycles_per_pkt", "cycles"},
        {"engine.slow_thread_cycles_per_pkt", "cycles"},
        {"engine.queue_share_max", "ratio"},
        {"engine.tx.doorbells_per_kpkt", "count"},
        {"engine.tx.descriptors_per_doorbell", "count"},
        {"kernel.rx_ns", "ns"},
        {"kernel.slowpath_share", "ratio"},
        {"kernel.nf_classifier.forward_tuple_groups", "count"},
        {"core.graphs_resynth_per_event", "count"},
        {"core.reuse_ratio", "ratio"},
        {"core.attachments", "count"},
        {"core.deploy_failures", "count"},
        {"k8s.launch_pod_ms", "ms"},
        {"k8s.delete_pod_ms", "ms"},
        {"k8s.rr_us", "us"},
        {"k8s.underlay_crossings_per_rr", "count"},
        {"alloc.per_op", "count"},
        {"alloc.bytes_per_op", "bytes"},
        {"sim.packet_build_ns", "ns"},
        {"trace.overhead_pct", "%"},
    };
    return v;
  }();
  for (const auto& [name, unit] : names) r.per_layer[name] = Metric{0.0, unit};
  fill_layer_counters(r, {}, 0.0);
}

void fill_layer_counters(Report& r, const std::map<std::string, double>& d,
                         double ops) {
  auto get = [&](const std::string& k) {
    auto it = d.find(k);
    return it == d.end() ? 0.0 : it->second;
  };
  auto set = [&](const std::string& name, double v, const char* unit) {
    r.per_layer[name] = Metric{v, unit};
  };

  double runs = 0, cycles = 0, helpers = 0;
  for (const auto& [k, v] : d) {
    if (starts_with(k, "fastpath.") && ends_with(k, ".runs") &&
        !ends_with(k, ".jit.runs")) {
      runs += v;
    }
    if (starts_with(k, "fastpath.") && ends_with(k, ".cycles")) cycles += v;
    if (starts_with(k, "ebpf.helper.") && ends_with(k, ".calls")) helpers += v;
  }
  set("ebpf.runs_per_pkt", ratio(runs, ops), "count");
  set("ebpf.cycles_per_pkt", ratio(cycles, ops), "cycles");
  set("ebpf.helper_calls_per_pkt", ratio(helpers, ops), "count");
  set("ebpf.helper.fib_lookup_per_pkt",
      ratio(get("ebpf.helper.fib_lookup.calls"), ops), "count");
  set("ebpf.helper.ipt_lookup_per_pkt",
      ratio(get("ebpf.helper.ipt_lookup.calls"), ops), "count");
  const double map_hits = get("ebpf.map.hits");
  set("ebpf.map_hit_ratio",
      ratio(map_hits, map_hits + get("ebpf.map.misses")), "ratio");
  set("ebpf.tail_calls_per_pkt", ratio(get("ebpf.tail_calls"), ops), "count");

  const double fc_hits = get("flowcache.hits");
  set("engine.flowcache.hit_ratio",
      ratio(fc_hits, fc_hits + get("flowcache.misses")), "ratio");
  set("engine.flowcache.evictions_per_kpkt",
      ratio(1000.0 * get("flowcache.evictions"), ops), "count");
  set("engine.flowcache.invalidations", get("flowcache.invalidations"),
      "count");

  for (const std::string& stage : reported_stages()) {
    set("kernel.slowpath." + stage + ".cycles_per_pkt",
        ratio(get("slowpath." + stage + ".cycles"), ops), "cycles");
  }
  set("kernel.fib.depth_per_lookup",
      ratio(get("fib.depth_total"), get("fib.lookups")), "count");

  double other_drops = 0;
  for (const auto& [k, v] : d) {
    if (!starts_with(k, "drop.")) continue;
    const std::string reason = k.substr(5);
    if (reason != "none" && reason != "policy" && reason != "xdp_drop" &&
        reason != "ttl_exceeded" && reason != "no_route" &&
        reason != "neigh_pending") {
      other_drops += v;
    }
  }
  set("kernel.drop.policy", get("drop.policy"), "count");
  set("kernel.drop.xdp_drop", get("drop.xdp_drop"), "count");
  set("kernel.drop.ttl_exceeded", get("drop.ttl_exceeded"), "count");
  set("kernel.drop.no_route", get("drop.no_route"), "count");
  set("kernel.drop.other", other_drops, "count");
}

}  // namespace perfbench
