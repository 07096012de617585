// pod_churn: a Flannel-style cluster (1 primary + 2 workers) with LinuxFP
// on the TC hook. One thread runs TCP_RR transactions between seeded random
// pairs of live pods, intra-node and across the VXLAN underlay; every
// kChurnInterval transactions one pod is launched (CNI ADD) on a seeded
// node and the oldest live pod is deleted (CNI DEL). Each node's controller
// reacts inside launch_pod/delete_pod.
//
// Pod addresses are 10.244.<node>.<10+k>, so a cluster takes a bounded
// number of launches per node; when a node reaches kMaxPodsPerNode the run
// moves on to a freshly built cluster (an epoch). The fixed, seeded section
// fits inside the first epoch. Deleted pods keep their fast-path attachments
// (a known defect), so reactions slow down as an epoch goes on; each epoch
// is therefore one chunk of the transaction and reaction time estimators,
// so that every chunk sees the same range of attachment counts. The
// unfinished last epoch is left out of them.
#include <algorithm>
#include <deque>
#include <memory>
#include <numeric>

#include "k8s/cluster.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace linuxfp;

constexpr std::size_t kSetupsPerBurst = 5;
constexpr std::size_t kSetupBursts = 30;  // the first one before measuring
constexpr int kWorkers = 2;
constexpr int kInitialPodsPerNode = 4;
constexpr int kMaxPodsPerNode = 200;
constexpr int kChurnInterval = 25;
constexpr int kModeledTransactions = 10000;
constexpr std::uint64_t kMaxRrBytes = 1024;

struct Epoch {
  std::unique_ptr<k8s::Cluster> cluster;
  std::deque<k8s::PodRef> live;
  std::vector<int> launched;  // pods launched per node
};

Epoch build_epoch() {
  Epoch e;
  e.cluster = std::make_unique<k8s::Cluster>(kWorkers);
  e.launched.assign(static_cast<std::size_t>(e.cluster->node_count()), 0);
  for (int n = 0; n < e.cluster->node_count(); ++n) {
    for (int i = 0; i < kInitialPodsPerNode; ++i) {
      e.live.push_back(e.cluster->launch_pod(n));
      ++e.launched[static_cast<std::size_t>(n)];
    }
  }
  e.cluster->enable_linuxfp();  // first synthesis + deploy on every node
  return e;
}

bool healthy(k8s::Cluster& c, std::uint64_t& failures_seen) {
  std::uint64_t failures = 0;
  bool ok = true;
  for (int n = 0; n < c.node_count(); ++n) {
    const core::HealthStatus h = c.controller(n)->health();
    failures += h.deploy_failures;
    ok = ok && !h.degraded;
  }
  ok = ok && failures == failures_seen;
  failures_seen = failures;
  return ok;
}

std::map<std::string, double> node_counters(k8s::Cluster& c) {
  std::map<std::string, double> sum;
  for (int n = 0; n < c.node_count(); ++n) {
    for (const auto& [k, v] : registry_counters(c.node(n).metrics().to_json())) {
      sum[k] += v;
    }
    const kern::KernelCounters& kc = c.node(n).counters();
    sum["kernel.slow_path_packets"] += static_cast<double>(kc.slow_path_packets);
    sum["kernel.fast_path_packets"] += static_cast<double>(kc.fast_path_packets);
  }
  return sum;
}

struct ControlTally {
  double events = 0, graphs_synth = 0, graphs_reused = 0;
};

// Per-node controller counters before an event, to attribute its work.
struct CtlSnap {
  std::vector<std::uint64_t> reactions, synth;
};

CtlSnap snap(k8s::Cluster& c) {
  CtlSnap s;
  for (int n = 0; n < c.node_count(); ++n) {
    s.reactions.push_back(c.controller(n)->resynth_count());
    s.synth.push_back(c.controller(n)->graph_resynth_count());
  }
  return s;
}

void tally_event(k8s::Cluster& c, const CtlSnap& before, ControlTally& t) {
  t.events += 1;
  for (int n = 0; n < c.node_count(); ++n) {
    core::Controller& ctl = *c.controller(n);
    const auto i = static_cast<std::size_t>(n);
    const double s = static_cast<double>(ctl.graph_resynth_count() - before.synth[i]);
    const double r = static_cast<double>(ctl.resynth_count() - before.reactions[i]);
    t.graphs_synth += s;
    t.graphs_reused +=
        std::max(0.0, r * static_cast<double>(ctl.current_graphs().size()) - s);
  }
}

}  // namespace

Report run_pod_churn(const Options& opt, Tracer& tracer) {
  Report rep;
  declare_layer_metrics(rep);
  std::uint64_t op = 0;

  // --- set-up: scenario construction to first deploy. The first burst's
  // last cluster carries the run; later bursts (spread over the run) build
  // throwaway clusters.
  ChunkedSamples setup_s{1};  // each set-up is a chunk
  auto setup_burst = [&]() {
    Epoch built;
    for (std::size_t i = 0; i < kSetupsPerBurst; ++i) {
      built = Epoch{};  // tear the previous one down outside the timing
      const std::uint64_t t0 = now_ns();
      {
        Tracer::Scope span(tracer, "sim.setup", op);
        built = build_epoch();
      }
      setup_s.add(static_cast<double>(now_ns() - t0) * 1e-9);
      ++rep.attempted;
      std::uint64_t no_failures = 0;
      if (!healthy(*built.cluster, no_failures)) {
        rep.fail(1, "set-up: first deploy failed");
      }
    }
    return built;
  };
  Epoch ep = setup_burst();
  std::size_t setup_bursts = 1;

  util::Rng rng(mix64(opt.seed) | 1);
  const std::uint64_t measure_start = now_ns();
  const std::uint64_t deadline =
      measure_start + static_cast<std::uint64_t>(opt.seconds * 1e9);
  const BurstSchedule setup_schedule(kSetupBursts, measure_start, deadline);
  std::uint64_t failures_seen = 0;

  std::vector<double> modeled_cycles;
  ChunkedSamples host_rr_ns{0}, reaction_ms{0};  // one chunk per epoch
  // Transactions per wall second of RR time, per epoch; traced runs trace
  // every other epoch and keep the two kinds apart to measure tracing
  // overhead.
  std::vector<double> epoch_rate, rate_traced, rate_untraced;
  double crossings = 0, epoch_rr_ns = 0;
  int epoch_txns = 0;
  AllocTotals allocs;
  ControlTally tally;
  std::map<std::string, double> reg_before = node_counters(*ep.cluster);
  std::map<std::string, double> reg_delta;
  double attachments = 0;  // over all nodes, at the end of the fixed section
  int epochs = 1;
  const bool traced = tracer.enabled();

  for (int txn = 0; txn < kModeledTransactions || now_ns() < deadline; ++txn) {
    const bool modeled = txn < kModeledTransactions;

    // One TCP_RR transaction between two distinct live pods.
    const std::size_t a = rng.next_below(ep.live.size());
    std::size_t b = rng.next_below(ep.live.size() - 1);
    if (b >= a) ++b;
    const std::size_t req = 1 + rng.next_below(kMaxRrBytes);
    const std::size_t resp = 1 + rng.next_below(kMaxRrBytes);
    k8s::Cluster::RrOutcome o;
    std::uint64_t t0 = 0, t1 = 0;
    {
      Tracer::Scope span(tracer, "k8s.rr", op);
      const AllocTotals a0 = alloc_totals();
      if (modeled) set_alloc_counting(true);
      t0 = now_ns();
      o = ep.cluster->run_rr_transaction(ep.live[a], ep.live[b], req, resp);
      t1 = now_ns();
      if (modeled) {
        set_alloc_counting(false);
        const AllocTotals a1 = alloc_totals();
        allocs.count += a1.count - a0.count;
        allocs.bytes += a1.bytes - a0.bytes;
      }
    }
    ++op;
    ++rep.attempted;
    if (!o.completed) {
      rep.fail(1, "rr transaction " + std::to_string(txn) + " did not complete");
    }
    host_rr_ns.add(static_cast<double>(t1 - t0));
    epoch_rr_ns += static_cast<double>(t1 - t0);
    ++epoch_txns;
    if (modeled) {
      modeled_cycles.push_back(static_cast<double>(o.cycles));
      crossings += o.underlay_crossings;
    }

    while (setup_schedule.due(setup_bursts)) {
      setup_burst();
      ++setup_bursts;
    }
    if ((txn + 1) % kChurnInterval != 0) continue;

    // Churn event: CNI ADD on a seeded node, CNI DEL of the oldest pod.
    const int node = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(ep.cluster->node_count())));
    const CtlSnap before = snap(*ep.cluster);
    std::uint64_t e0 = now_ns();
    {
      Tracer::Scope span(tracer, "k8s.launch_pod", op);
      ep.live.push_back(ep.cluster->launch_pod(node));
    }
    std::uint64_t e1 = now_ns();
    ++ep.launched[static_cast<std::size_t>(node)];
    reaction_ms.add(static_cast<double>(e1 - e0) * 1e-6);
    e0 = now_ns();
    {
      Tracer::Scope span(tracer, "k8s.delete_pod", op);
      ep.cluster->delete_pod(ep.live.front());
    }
    e1 = now_ns();
    ep.live.pop_front();
    reaction_ms.add(static_cast<double>(e1 - e0) * 1e-6);
    ++op;
    rep.attempted += 2;
    if (!healthy(*ep.cluster, failures_seen)) {
      rep.fail(2, "churn event " + std::to_string(op) + " degraded a controller");
    }
    if (modeled) tally_event(*ep.cluster, before, tally);

    if (txn + 1 == kModeledTransactions) {
      reg_delta = diff(node_counters(*ep.cluster), reg_before);
      for (int n = 0; n < ep.cluster->node_count(); ++n) {
        attachments += static_cast<double>(
            ep.cluster->controller(n)->deployer().attachment_count());
      }
    }
    const bool node_full = *std::max_element(ep.launched.begin(), ep.launched.end()) >=
                           kMaxPodsPerNode;
    if (node_full) {
      if (txn + 1 < kModeledTransactions) {
        rep.fail(1, "fixed section outgrew the first cluster epoch");
      }
      host_rr_ns.end_chunk();
      reaction_ms.end_chunk();
      epoch_rate.push_back(epoch_txns / (epoch_rr_ns * 1e-9));
      if (traced) {
        (tracer.enabled() ? rate_traced : rate_untraced).push_back(epoch_rate.back());
      }
      epoch_rr_ns = 0;
      epoch_txns = 0;
      ep = Epoch{};
      ep = build_epoch();
      failures_seen = 0;
      ++epochs;
      if (traced) tracer.set_enabled(epochs % 2 == 1);
    }
  }
  tracer.set_enabled(traced);
  for (; !setup_schedule.finished(setup_bursts); ++setup_bursts) setup_burst();
  if (epoch_rate.empty()) epoch_rate.push_back(epoch_txns / (epoch_rr_ns * 1e-9));

  // --- end-to-end metrics.
  const double cpu_hz = ep.cluster->node(0).cost().cpu_hz;
  const double cycles_sum =
      std::accumulate(modeled_cycles.begin(), modeled_cycles.end(), 0.0);
  const double n_modeled = static_cast<double>(modeled_cycles.size());
  auto& e = rep.end_to_end;
  // netperf TCP_RR's figure of merit: one transaction in flight, so the
  // rate is transactions over their total modeled time.
  e["modeled_mops"] = {n_modeled / (cycles_sum / cpu_hz) / 1e6, "Mop/s"};
  e["modeled_lat_cycles_p50"] = {quantile(modeled_cycles, 0.50), "cycles"};
  e["modeled_lat_cycles_p99"] = {quantile(modeled_cycles, 0.99), "cycles"};
  e["host_ops_per_s"] = {
      quantile(rate_untraced.empty() ? epoch_rate : rate_untraced, 1.0 - kHostQuantile),
      "1/s"};
  e["host_op_ns_p50"] = {host_rr_ns.p50(), "ns"};
  e["host_op_ns_p99"] = {host_rr_ns.p99(), "ns"};
  e["host_reaction_ms_p50"] = {reaction_ms.p50(), "ms"};
  e["host_reaction_ms_p99"] = {reaction_ms.p99(), "ms"};
  e["setup_s"] = {setup_s.p50(), "s"};
  e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  rep.notes["samples"] = util::Json::object();
  rep.notes["samples"]["modeled_lat"] = static_cast<std::uint64_t>(modeled_cycles.size());
  rep.notes["samples"]["host_op_ns"] = static_cast<std::uint64_t>(host_rr_ns.count());
  rep.notes["samples"]["reactions"] = static_cast<std::uint64_t>(reaction_ms.count());
  rep.notes["samples"]["reaction_epochs"] =
      static_cast<std::uint64_t>(reaction_ms.chunks());
  rep.notes["samples"]["setups"] = static_cast<std::uint64_t>(setup_s.count());
  rep.notes["epochs"] = epochs;
  rep.notes["modeled_lat_us_p50"] = e["modeled_lat_cycles_p50"].value / cpu_hz * 1e6;
  rep.notes["modeled_lat_us_p99"] = e["modeled_lat_cycles_p99"].value / cpu_hz * 1e6;

  // --- per-layer metrics.
  fill_layer_counters(rep, reg_delta, n_modeled);
  auto& l = rep.per_layer;
  const double slow = reg_delta["kernel.slow_path_packets"];
  const double fast = reg_delta["kernel.fast_path_packets"];
  l["kernel.slowpath_share"] = {slow + fast > 0 ? slow / (slow + fast) : 0.0, "ratio"};
  l["core.graphs_resynth_per_event"] = {tally.graphs_synth / tally.events, "count"};
  l["core.reuse_ratio"] = {
      tally.graphs_reused / std::max(1.0, tally.graphs_reused + tally.graphs_synth),
      "ratio"};
  double deploy_failures = 0;
  for (int n = 0; n < ep.cluster->node_count(); ++n) {
    deploy_failures +=
        static_cast<double>(ep.cluster->controller(n)->health().deploy_failures);
  }
  l["core.attachments"] = {attachments, "count"};
  l["core.deploy_failures"] = {deploy_failures, "count"};
  l["k8s.launch_pod_ms"] = {tracer.mean_ns("k8s.launch_pod") * 1e-6, "ms"};
  l["k8s.delete_pod_ms"] = {tracer.mean_ns("k8s.delete_pod") * 1e-6, "ms"};
  l["k8s.rr_us"] = {tracer.mean_ns("k8s.rr") * 1e-3, "us"};
  l["trace.overhead_pct"] = {
      rate_traced.empty() || rate_untraced.empty()
          ? 0.0
          : 100.0 * (quantile(rate_untraced, 1.0 - kHostQuantile) /
                         quantile(rate_traced, 1.0 - kHostQuantile) -
                     1.0),
      "%"};
  l["k8s.underlay_crossings_per_rr"] = {crossings / n_modeled, "count"};
  l["alloc.per_op"] = {static_cast<double>(allocs.count) / n_modeled, "count"};
  l["alloc.bytes_per_op"] = {static_cast<double>(allocs.bytes) / n_modeled, "bytes"};

  // --- what the seed-determinism self-check compares.
  auto& d = rep.deterministic;
  d["modeled_mops"] = e["modeled_mops"].value;
  d["modeled_lat_cycles_p50"] = e["modeled_lat_cycles_p50"].value;
  d["modeled_lat_cycles_p99"] = e["modeled_lat_cycles_p99"].value;
  d["rr.cycles_sum"] = cycles_sum;
  d["rr.underlay_crossings"] = crossings;
  d["rr.alloc_count"] = static_cast<double>(allocs.count);
  d["rr.alloc_bytes"] = static_cast<double>(allocs.bytes);
  d["core.attachments"] = attachments;
  d["core.graphs_synthesized"] = tally.graphs_synth;
  d["core.graphs_reused"] = tally.graphs_reused;
  for (const auto& [k, v] : reg_delta) d["registry." + k] = v;
  return rep;
}

}  // namespace perfbench
