// router64 and gateway_zipf: seeded packet streams through a LinuxFP XDP
// testbed, on two paths.
//
//  * Latency pass: one thread calls LinuxTestbed::process per packet; each
//    packet's modeled cycles and wall time are recorded and its fate is
//    checked one by one.
//  * Engine rounds: the same kind of stream through engine::Engine with two
//    RX queues (producer + 2 workers + slow thread); modeled throughput uses
//    the bottleneck formula of sim::ForwardingRunner, and every round must
//    conserve packets (in == out + drops by reason).
//
// A third testbed instance takes route add/del pairs between rounds, so
// the scenario's controller reaction is measured without touching the
// traffic-carrying instances.
#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <numeric>

#include "engine/engine.h"
#include "kernel/nf_classifier.h"
#include "net/headers.h"
#include "sim/testbed.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace linuxfp;

constexpr std::size_t kSetupsPerBurst = 3;
constexpr unsigned kQueues = 2;
constexpr std::size_t kLatencyModeledPkts = 65536;
constexpr std::size_t kLatencyChunkPkts = 16384;
constexpr std::size_t kRoundPkts = 32768;
constexpr int kModeledRounds = 4;
constexpr int kModeledReactionPairs = 10;
constexpr std::size_t kReactionChunk = 100;  // reactions per burst

enum class Kind : std::uint8_t { kForward, kBlacklisted, kFragment, kTtlExpiry };
enum class Fate : std::uint8_t { kForwarded, kPolicyDrop, kTtlDrop };

Fate fate_of(Kind k) {
  switch (k) {
    case Kind::kBlacklisted: return Fate::kPolicyDrop;
    case Kind::kTtlExpiry: return Fate::kTtlDrop;
    default: return Fate::kForwarded;
  }
}

struct Spec {
  Kind kind = Kind::kForward;
  int prefix = 0;
  std::uint16_t port = 0;
  std::uint16_t size = 64;
  int entry = 0;
};

struct Profile {
  int prefixes = 50;
  int filter_rules = 0;
  bool flow_cache = false;
  int flows = 4096;
  double zipf_s = 0.0;  // 0 = uniform over flows
  bool imix = false;    // 64/576/1500 in 7:4:1, else 64 B
  double blacklist_share = 0.0;
  double fragment_share = 0.0;
  double ttl_share = 0.0;
  // Bursts spread over the measuring time, each a set-up burst followed by
  // kReactionChunk route reactions on its last instance. More on router64,
  // whose reactions are ~20x cheaper than the 10k-rule gateway's.
  std::size_t bursts = 0;
};

Profile profile_for(const std::string& workload) {
  Profile p;
  if (workload == "router64") {
    p.bursts = 80;
    return p;
  }
  // gateway_zipf
  p.filter_rules = 10000;
  p.flow_cache = true;
  p.flows = 65536;
  p.zipf_s = 1.1;
  p.imix = true;
  p.blacklist_share = 0.25;
  p.fragment_share = 0.02;
  p.ttl_share = 0.02;
  p.bursts = 50;
  return p;
}

sim::ScenarioConfig scenario_for(const Profile& p) {
  sim::ScenarioConfig cfg;
  cfg.prefixes = p.prefixes;
  cfg.filter_rules = p.filter_rules;
  cfg.rule_classifier = p.filter_rules > 0;
  cfg.flow_cache = p.flow_cache;
  cfg.accel = sim::Accel::kLinuxFpXdp;
  cfg.tx.burst = 64;
  return cfg;
}

// Seeded packet-spec stream. The flow population is part of the workload:
// flow ids map to (prefix, source port) through a fixed bijection, so the
// RSS spread of the hot Zipf flows is the same for every seed; the seed
// draws which flow, kind and size each packet has.
class Generator {
 public:
  Generator(const Profile& p, std::uint64_t seed)
      : p_(p), rng_(mix64(seed) | 1), key_(mix64(0x5eed)) {
    port_mul_ = static_cast<std::uint16_t>(mix64(key_) | 1);
    port_add_ = static_cast<std::uint16_t>(mix64(key_ + 1));
    if (p.zipf_s > 0.0) {
      cdf_.reserve(static_cast<std::size_t>(p.flows));
      double acc = 0.0;
      for (int rank = 1; rank <= p.flows; ++rank) {
        acc += 1.0 / std::pow(static_cast<double>(rank), p.zipf_s);
        cdf_.push_back(acc);
      }
      for (double& c : cdf_) c /= acc;
    }
  }

  Spec next() {
    Spec s;
    const double u = rng_.next_double();
    if (u < p_.blacklist_share) {
      s.kind = Kind::kBlacklisted;
      s.entry = static_cast<int>(
          rng_.next_below(static_cast<std::uint64_t>(p_.filter_rules)));
      s.port = static_cast<std::uint16_t>(rng_.next_below(64));
      return s;  // blacklist probes are 64 B
    }
    if (u < p_.blacklist_share + p_.fragment_share) {
      s.kind = Kind::kFragment;
    } else if (u < p_.blacklist_share + p_.fragment_share + p_.ttl_share) {
      s.kind = Kind::kTtlExpiry;
    }
    const std::uint64_t flow = draw_flow();
    s.prefix = static_cast<int>(mix64(key_ ^ flow) %
                                static_cast<std::uint64_t>(p_.prefixes));
    s.port = static_cast<std::uint16_t>(flow * port_mul_ + port_add_);
    if (p_.imix) {
      const std::uint64_t r = rng_.next_below(12);
      s.size = r < 7 ? 64 : (r < 11 ? 576 : 1500);
    }
    return s;
  }

 private:
  std::uint64_t draw_flow() {
    if (cdf_.empty()) {
      return rng_.next_below(static_cast<std::uint64_t>(p_.flows));
    }
    const double u = rng_.next_double();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::uint64_t>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(), p_.flows - 1));
  }

  const Profile& p_;
  util::Rng rng_;
  std::uint64_t key_;
  std::uint16_t port_mul_ = 1;
  std::uint16_t port_add_ = 0;
  std::vector<double> cdf_;
};

net::Packet build(const sim::LinuxTestbed& tb, const Spec& s) {
  if (s.kind == Kind::kBlacklisted) return tb.blacklisted_packet(s.entry, s.port);
  net::Packet pkt = tb.forward_packet(s.prefix, s.port, s.size);
  if (s.kind == Kind::kForward) return pkt;
  net::Ipv4View ip(pkt.data() + net::kEthHdrLen);
  if (s.kind == Kind::kFragment) {
    ip.set_frag_field(0x2000);  // first fragment: MF set, offset 0
  } else {
    ip.set_ttl(1);
  }
  ip.update_checksum();
  return pkt;
}

struct Batch {
  std::vector<Spec> specs;
  std::vector<net::Packet> pkts;
  std::uint64_t expect_fwd = 0, expect_policy = 0, expect_ttl = 0;
  double wire_bits = 0;
};

// Builds the next n packets of the stream; returns wall ns spent building.
std::uint64_t make_batch(const sim::LinuxTestbed& tb, Generator& gen,
                         std::size_t n, Batch& b, Tracer& tracer,
                         std::uint64_t op) {
  Tracer::Scope span(tracer, "sim.packet_build", op);
  const std::uint64_t t0 = now_ns();
  b = Batch{};
  b.specs.reserve(n);
  b.pkts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Spec s = gen.next();
    b.specs.push_back(s);
    b.pkts.push_back(build(tb, s));
    b.wire_bits += 8.0 * static_cast<double>(b.pkts.back().wire_size());
    switch (fate_of(s.kind)) {
      case Fate::kForwarded: ++b.expect_fwd; break;
      case Fate::kPolicyDrop: ++b.expect_policy; break;
      case Fate::kTtlDrop: ++b.expect_ttl; break;
    }
  }
  return now_ns() - t0;
}

std::uint64_t drops_of(const kern::KernelCounters& c, kern::Drop reason) {
  auto it = c.drops.find(reason);
  return it == c.drops.end() ? 0 : it->second;
}

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kForward: return "forward";
    case Kind::kBlacklisted: return "blacklisted";
    case Kind::kFragment: return "fragment";
    case Kind::kTtlExpiry: return "ttl_expiry";
  }
  return "?";
}

struct LatencySamples {
  std::vector<double> cycles;  // modeled, fixed section only
  AllocTotals allocs;          // fixed section only
  // Every call in the run.
  ChunkedSamples host_ns{kLatencyChunkPkts};
};

// Single-threaded pass: every packet through LinuxTestbed::process, its fate
// checked against the spec.
void latency_pass(sim::LinuxTestbed& tb, Generator& gen, std::size_t n,
                  bool modeled, LatencySamples& out, Report& rep,
                  Tracer& tracer, std::uint64_t& op, double& build_ns) {
  Batch b;
  build_ns += static_cast<double>(make_batch(tb, gen, n, b, tracer, op));
  const kern::KernelCounters& kc = tb.kernel().counters();
  for (std::size_t i = 0; i < n; ++i, ++op) {
    const std::uint64_t fwd_before = tb.forwarded_count();
    const std::uint64_t ttl_before = drops_of(kc, kern::Drop::kTtlExceeded);
    sim::ProcessOutcome o;
    AllocTotals a0, a1;
    std::uint64_t t0 = 0, t1 = 0;
    {
      // The alloc window and the clock reads sit inside the span, so
      // neither counts the tracer's own work.
      Tracer::Scope span(tracer, "kernel.rx", op);
      a0 = alloc_totals();
      if (modeled) set_alloc_counting(true);
      t0 = now_ns();
      o = tb.process(std::move(b.pkts[i]));
      t1 = now_ns();
      if (modeled) set_alloc_counting(false);
      a1 = alloc_totals();
    }
    if (modeled) {
      out.allocs.count += a1.count - a0.count;
      out.allocs.bytes += a1.bytes - a0.bytes;
      out.cycles.push_back(static_cast<double>(o.cycles));
    }
    out.host_ns.add(static_cast<double>(t1 - t0));

    ++rep.attempted;
    const bool forwarded = tb.forwarded_count() == fwd_before + 1;
    const bool ttl_drop = drops_of(kc, kern::Drop::kTtlExceeded) == ttl_before + 1;
    bool ok = false;
    switch (fate_of(b.specs[i].kind)) {
      case Fate::kForwarded: ok = forwarded && o.forwarded && !o.dropped_by_policy; break;
      case Fate::kPolicyDrop: ok = !forwarded && o.dropped_by_policy; break;
      case Fate::kTtlDrop: ok = !forwarded && ttl_drop; break;
    }
    if (!ok) {
      rep.fail(1, std::string("latency pass: ") + kind_name(b.specs[i].kind) +
                      " packet " + std::to_string(op) + " had the wrong fate");
    }
  }
}

struct EngineTotals {
  std::vector<double> processed = std::vector<double>(kQueues, 0.0);
  std::vector<double> fast_cycles = std::vector<double>(kQueues, 0.0);
  double packets_in = 0, wire_bits = 0, slow_cycles = 0, slow_processed = 0;
  double descriptors = 0, doorbells = 0;
  double backpressure_stalls = 0, handoff_stalls = 0, tx_stalls = 0;
  double max_occupancy = 0;
};

// One closed engine run over a fresh batch. Returns host packets/s.
double engine_round(sim::LinuxTestbed& tb, Generator& gen, EngineTotals* acc,
                    Report& rep, Tracer& tracer, std::uint64_t& op,
                    double& build_ns) {
  Batch b;
  build_ns += static_cast<double>(make_batch(tb, gen, kRoundPkts, b, tracer, op));
  const kern::KernelCounters& kc = tb.kernel().counters();
  const std::uint64_t fwd_before = tb.forwarded_count();
  const std::map<kern::Drop, std::uint64_t> drops_before = kc.drops;

  engine::Engine eng(tb.kernel(), tb.ingress_ifindex(), tb.engine_config(kQueues));
  const std::uint64_t t0 = now_ns();
  eng.start();
  for (net::Packet& p : b.pkts) {
    Tracer::Scope span(tracer, "engine.inject", op++);
    eng.inject(std::move(p));
  }
  {
    Tracer::Scope span(tracer, "engine.stop", op);
    eng.stop();
  }
  const std::uint64_t t1 = now_ns();

  // Conservation: every injected packet left eth1 or was dropped for the
  // reason its spec dictates; nothing else may happen to it.
  const std::uint64_t n = b.pkts.size();
  rep.attempted += n;
  const std::uint64_t out = tb.forwarded_count() - fwd_before;
  auto delta = [&](kern::Drop r) {
    auto it = drops_before.find(r);
    return drops_of(kc, r) - (it == drops_before.end() ? 0 : it->second);
  };
  const std::uint64_t policy = delta(kern::Drop::kXdpDrop) + delta(kern::Drop::kPolicy);
  const std::uint64_t ttl = delta(kern::Drop::kTtlExceeded);
  std::uint64_t other = 0;
  for (const auto& [reason, count] : kc.drops) {
    if (reason == kern::Drop::kNone || reason == kern::Drop::kXdpDrop ||
        reason == kern::Drop::kPolicy || reason == kern::Drop::kTtlExceeded) {
      continue;
    }
    other += delta(reason);
  }
  auto absdiff = [](std::uint64_t a, std::uint64_t x) { return a > x ? a - x : x - a; };
  const std::uint64_t wrong = absdiff(out, b.expect_fwd) +
                              absdiff(policy, b.expect_policy) +
                              absdiff(ttl, b.expect_ttl) + other;
  const std::uint64_t accounted = out + policy + ttl + other;
  const std::uint64_t lost = n > accounted ? n - accounted : 0;
  if (wrong + lost > 0) {
    // A packet with the wrong fate is missing from one count and extra in
    // another (or lost): it adds 2 to wrong + lost.
    rep.fail((wrong + lost + 1) / 2,
             "engine round: in=" + std::to_string(n) + " out=" +
                 std::to_string(out) + "/" + std::to_string(b.expect_fwd) +
                 " policy=" + std::to_string(policy) + "/" +
                 std::to_string(b.expect_policy) + " ttl=" +
                 std::to_string(ttl) + "/" + std::to_string(b.expect_ttl) +
                 " other=" + std::to_string(other));
  }

  if (acc) {
    acc->packets_in += static_cast<double>(n);
    acc->wire_bits += b.wire_bits;
    for (unsigned q = 0; q < kQueues; ++q) {
      const engine::QueueStats& st = eng.queue_stats(q);
      acc->processed[q] += static_cast<double>(st.processed);
      acc->fast_cycles[q] += static_cast<double>(st.fast_cycles);
      acc->backpressure_stalls += static_cast<double>(st.backpressure_stalls);
      acc->handoff_stalls += static_cast<double>(st.handoff_stalls);
      acc->tx_stalls += static_cast<double>(st.tx_stalls);
      acc->max_occupancy =
          std::max(acc->max_occupancy, static_cast<double>(st.max_occupancy));
      acc->slow_cycles += static_cast<double>(eng.tx().queue_stats(q).cycles);
    }
    acc->slow_cycles += static_cast<double>(eng.slow_stats().cycles) +
                        static_cast<double>(eng.tx().flush_cycles());
    acc->slow_processed += static_cast<double>(eng.slow_stats().processed);
    acc->descriptors += static_cast<double>(eng.tx().descriptors());
    acc->doorbells += static_cast<double>(eng.tx().doorbells());
  }
  return static_cast<double>(n) / (static_cast<double>(t1 - t0) * 1e-9);
}

struct ReactionTally {
  double events = 0, graphs_synth = 0, graphs_reused = 0;
};

// Route add/del pairs on the spare instance; each command's wall time
// includes the controller's reaction to it.
void reaction_probe(sim::LinuxTestbed& tb, std::size_t pairs, ChunkedSamples* ms,
                    ReactionTally* tally, Report& rep, Tracer& tracer,
                    std::uint64_t& op) {
  core::Controller& ctl = *tb.controller();
  const char* cmds[2] = {"ip route add 10.201.0.0/24 via 10.10.2.2 dev eth1",
                         "ip route del 10.201.0.0/24"};
  for (std::size_t i = 0; i < pairs; ++i) {
    for (const char* cmd : cmds) {
      const std::uint64_t reactions = ctl.resynth_count();
      const std::uint64_t synth = ctl.graph_resynth_count();
      const std::uint64_t failures = ctl.health().deploy_failures;
      const std::uint64_t t0 = now_ns();
      util::Status st;
      {
        Tracer::Scope span(tracer, "core.reaction", op);
        st = tb.try_run(cmd);
      }
      if (ms) ms->add(static_cast<double>(now_ns() - t0) * 1e-6);
      ++op;
      ++rep.attempted;
      const core::HealthStatus h = ctl.health();
      if (!st.ok() || h.degraded || h.deploy_failures != failures) {
        rep.fail(1, std::string("reaction probe failed: ") + cmd);
      }
      if (tally) {
        const double s = static_cast<double>(ctl.graph_resynth_count() - synth);
        const double r = static_cast<double>(ctl.resynth_count() - reactions);
        tally->events += 1;
        tally->graphs_synth += s;
        tally->graphs_reused +=
            std::max(0.0, r * static_cast<double>(ctl.current_graphs().size()) - s);
      }
    }
  }
}

}  // namespace

Report run_traffic(const Options& opt, Tracer& tracer) {
  const Profile prof = profile_for(opt.workload);
  const sim::ScenarioConfig cfg = scenario_for(prof);
  Report rep;
  declare_layer_metrics(rep);
  std::uint64_t op = 0;

  // --- set-up: the first burst builds the three instances that carry the
  // run; later bursts (spread over the run) build throwaway instances.
  ChunkedSamples setup_s{1};  // each set-up is a chunk
  using Instances = std::deque<std::unique_ptr<sim::LinuxTestbed>>;
  auto setup_burst = [&](std::size_t keep) {
    Instances kept;
    for (std::size_t i = 0; i < kSetupsPerBurst; ++i) {
      if (kept.size() == keep) kept.pop_front();  // torn down outside the timing
      const std::uint64_t t0 = now_ns();
      {
        Tracer::Scope span(tracer, "sim.setup", op);
        kept.push_back(std::make_unique<sim::LinuxTestbed>(cfg));
      }
      setup_s.add(static_cast<double>(now_ns() - t0) * 1e-9);
      ++rep.attempted;
      core::Controller& ctl = *kept.back()->controller();
      if (ctl.health().degraded || ctl.deployer().attachment_count() == 0) {
        rep.fail(1, "set-up: first deploy did not attach a fast path");
      }
    }
    return kept;
  };
  Instances first = setup_burst(3);
  const std::unique_ptr<sim::LinuxTestbed> lat_tb = std::move(first[0]);
  const std::unique_ptr<sim::LinuxTestbed> eng_tb = std::move(first[1]);
  const std::unique_ptr<sim::LinuxTestbed> ctl_tb = std::move(first[2]);
  const double cpu_hz = lat_tb->cpu_hz();

  Generator lat_gen(prof, opt.seed * 3 + 1);
  Generator eng_gen(prof, opt.seed * 3 + 2);
  const std::uint64_t measure_start = now_ns();
  const std::uint64_t deadline =
      measure_start + static_cast<std::uint64_t>(opt.seconds * 1e9);
  double build_ns = 0, built = 0;

  // --- fixed, seeded section: modeled results come only from here.
  LatencySamples lat;
  latency_pass(*lat_tb, lat_gen, kLatencyModeledPkts, true, lat, rep, tracer,
               op, build_ns);
  built += kLatencyModeledPkts;

  EngineTotals totals;
  const auto reg_before = registry_counters(eng_tb->kernel().metrics().to_json());
  std::vector<double> pps;
  for (int r = 0; r < kModeledRounds; ++r) {
    pps.push_back(engine_round(*eng_tb, eng_gen, &totals, rep, tracer, op, build_ns));
    built += kRoundPkts;
  }
  const auto reg_delta =
      diff(registry_counters(eng_tb->kernel().metrics().to_json()), reg_before);

  ReactionTally tally;
  reaction_probe(*ctl_tb, kModeledReactionPairs, nullptr, &tally, rep, tracer,
                 op);

  // --- host section: keep measuring until the budget is spent, with the
  // bursts spread over it. Each burst's reactions start from the fresh
  // controller its set-up burst just built, so bursts are alike and
  // reaction memory does not pile up. Traced runs alternate traced and
  // untraced iterations to measure tracing overhead.
  ChunkedSamples reaction_ms{kReactionChunk};
  const BurstSchedule schedule(prof.bursts, measure_start, deadline);
  std::size_t bursts = 0;
  auto due_bursts = [&](bool all) {
    for (; all ? !schedule.finished(bursts) : schedule.due(bursts); ++bursts) {
      const Instances spare = setup_burst(1);
      reaction_probe(*spare.back(), kReactionChunk / 2, &reaction_ms, nullptr,
                     rep, tracer, op);
    }
  };
  std::vector<double> pps_traced, pps_untraced;
  const bool traced = tracer.enabled();
  for (int it = 0; now_ns() < deadline; ++it) {
    const bool trace_this = traced && it % 2 == 0;
    tracer.set_enabled(trace_this);
    latency_pass(*lat_tb, lat_gen, kLatencyChunkPkts, false, lat, rep, tracer,
                 op, build_ns);
    built += kLatencyChunkPkts;
    const double p = engine_round(*eng_tb, eng_gen, nullptr, rep, tracer, op, build_ns);
    built += kRoundPkts;
    pps.push_back(p);
    (trace_this ? pps_traced : pps_untraced).push_back(p);
    due_bursts(false);
  }
  due_bursts(true);  // a host too slow to reach them all in time
  tracer.set_enabled(traced);

  // --- modeled throughput: ForwardingRunner's bottleneck formula.
  double fast_pps = 0.0, processed = 0.0, fast_cycles = 0.0, share_max = 0.0;
  for (unsigned q = 0; q < kQueues; ++q) processed += totals.processed[q];
  bool any = false;
  for (unsigned q = 0; q < kQueues; ++q) {
    if (totals.processed[q] == 0) continue;
    const double capacity = cpu_hz * totals.processed[q] / totals.fast_cycles[q];
    const double share = totals.processed[q] / processed;
    share_max = std::max(share_max, share);
    fast_cycles += totals.fast_cycles[q];
    if (!any || capacity / share < fast_pps) fast_pps = capacity / share;
    any = true;
  }
  const double slow_cap = totals.slow_cycles > 0
                              ? cpu_hz * totals.packets_in / totals.slow_cycles
                              : fast_pps;
  const double line_cap = lat_tb->kernel().cost().nic_bps /
                          (totals.wire_bits / totals.packets_in);
  const double modeled_pps = std::min({fast_pps, slow_cap, line_cap});
  rep.notes["bottleneck"] = modeled_pps == line_cap   ? "line_rate"
                            : modeled_pps == slow_cap ? "slow_thread"
                                                      : "rx_queue";

  const double untraced_pps =
      quantile(pps_untraced.empty() ? pps : pps_untraced, 1.0 - kHostQuantile);

  auto& e = rep.end_to_end;
  e["modeled_mops"] = {modeled_pps / 1e6, "Mop/s"};
  e["modeled_lat_cycles_p50"] = {quantile(lat.cycles, 0.50), "cycles"};
  e["modeled_lat_cycles_p99"] = {quantile(lat.cycles, 0.99), "cycles"};
  e["host_ops_per_s"] = {untraced_pps, "1/s"};
  e["host_op_ns_p50"] = {lat.host_ns.p50(), "ns"};
  e["host_op_ns_p99"] = {lat.host_ns.p99(), "ns"};
  e["host_reaction_ms_p50"] = {reaction_ms.p50(), "ms"};
  e["host_reaction_ms_p99"] = {reaction_ms.p99(), "ms"};
  e["setup_s"] = {setup_s.p50(), "s"};
  e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  rep.notes["samples"] = util::Json::object();
  rep.notes["samples"]["modeled_lat"] = static_cast<std::uint64_t>(lat.cycles.size());
  rep.notes["samples"]["host_op_ns"] = static_cast<std::uint64_t>(lat.host_ns.count());
  rep.notes["samples"]["engine_rounds"] = static_cast<std::uint64_t>(pps.size());
  rep.notes["samples"]["reactions"] = static_cast<std::uint64_t>(reaction_ms.count());
  rep.notes["samples"]["setups"] = static_cast<std::uint64_t>(setup_s.count());
  const double modeled_pkts = static_cast<double>(lat.cycles.size());
  const double cycles_sum = std::accumulate(lat.cycles.begin(), lat.cycles.end(), 0.0);
  rep.notes["modeled_lat_us_p50"] = e["modeled_lat_cycles_p50"].value / cpu_hz * 1e6;
  rep.notes["modeled_lat_us_p99"] = e["modeled_lat_cycles_p99"].value / cpu_hz * 1e6;
  rep.notes["modeled_lat_cycles_mean"] = cycles_sum / modeled_pkts;

  // --- per-layer metrics.
  const double pin = totals.packets_in;
  fill_layer_counters(rep, reg_delta, pin);
  auto& l = rep.per_layer;
  l["engine.inject_ns"] = {tracer.mean_ns("engine.inject"), "ns"};
  l["engine.stop_ns"] = {tracer.mean_ns("engine.stop"), "ns"};
  l["engine.backpressure_stalls_per_kpkt"] = {1000.0 * totals.backpressure_stalls / pin, "count"};
  l["engine.handoff_stalls_per_kpkt"] = {1000.0 * totals.handoff_stalls / pin, "count"};
  l["engine.tx_stalls_per_kpkt"] = {1000.0 * totals.tx_stalls / pin, "count"};
  l["engine.rx_max_occupancy"] = {totals.max_occupancy, "count"};
  l["engine.fast_cycles_per_pkt"] = {fast_cycles / processed, "cycles"};
  l["engine.slow_thread_cycles_per_pkt"] = {totals.slow_cycles / pin, "cycles"};
  l["engine.queue_share_max"] = {share_max, "ratio"};
  l["engine.tx.doorbells_per_kpkt"] = {1000.0 * totals.doorbells / pin, "count"};
  l["engine.tx.descriptors_per_doorbell"] = {
      totals.doorbells > 0 ? totals.descriptors / totals.doorbells : 0.0, "count"};
  l["kernel.rx_ns"] = {tracer.mean_ns("kernel.rx"), "ns"};
  l["kernel.slowpath_share"] = {totals.slow_processed / pin, "ratio"};
  const kern::NfClassifier* clf = eng_tb->kernel().netfilter().classifier();
  l["kernel.nf_classifier.forward_tuple_groups"] = {
      clf ? static_cast<double>(clf->tuple_count("FORWARD")) : 0.0, "count"};
  l["core.graphs_resynth_per_event"] = {tally.graphs_synth / tally.events, "count"};
  l["core.reuse_ratio"] = {
      tally.graphs_reused / std::max(1.0, tally.graphs_reused + tally.graphs_synth),
      "ratio"};
  l["core.attachments"] = {
      static_cast<double>(ctl_tb->controller()->deployer().attachment_count()), "count"};
  l["core.deploy_failures"] = {
      static_cast<double>(ctl_tb->controller()->health().deploy_failures), "count"};
  l["alloc.per_op"] = {static_cast<double>(lat.allocs.count) / modeled_pkts, "count"};
  l["alloc.bytes_per_op"] = {static_cast<double>(lat.allocs.bytes) / modeled_pkts, "bytes"};
  l["sim.packet_build_ns"] = {build_ns / built, "ns"};
  l["trace.overhead_pct"] = {
      pps_traced.empty() || pps_untraced.empty()
          ? 0.0
          : 100.0 * (quantile(pps_untraced, 1.0 - kHostQuantile) /
                         quantile(pps_traced, 1.0 - kHostQuantile) -
                     1.0),
      "%"};

  // --- what the seed-determinism self-check compares.
  auto& d = rep.deterministic;
  d["modeled_mops"] = e["modeled_mops"].value;
  d["modeled_lat_cycles_p50"] = e["modeled_lat_cycles_p50"].value;
  d["modeled_lat_cycles_p99"] = e["modeled_lat_cycles_p99"].value;
  d["latency.cycles_sum"] = cycles_sum;
  d["latency.alloc_count"] = static_cast<double>(lat.allocs.count);
  d["latency.alloc_bytes"] = static_cast<double>(lat.allocs.bytes);
  for (unsigned q = 0; q < kQueues; ++q) {
    d["engine.queue" + std::to_string(q) + ".processed"] = totals.processed[q];
    d["engine.queue" + std::to_string(q) + ".fast_cycles"] = totals.fast_cycles[q];
  }
  d["engine.slow_thread_cycles"] = totals.slow_cycles;
  d["engine.slow_processed"] = totals.slow_processed;
  d["engine.tx.descriptors"] = totals.descriptors;
  d["engine.tx.doorbells"] = totals.doorbells;
  d["engine.backpressure_stalls"] = totals.backpressure_stalls;
  d["engine.handoff_stalls"] = totals.handoff_stalls;
  d["engine.tx_stalls"] = totals.tx_stalls;
  d["engine.rx_max_occupancy"] = totals.max_occupancy;
  for (const auto& [k, v] : reg_delta) d["registry." + k] = v;
  d["core.graphs_synthesized"] = tally.graphs_synth;
  d["core.graphs_reused"] = tally.graphs_reused;
  return rep;
}

}  // namespace perfbench
