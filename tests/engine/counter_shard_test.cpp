// Counter shards lose nothing and leak nothing. Packet-path counters are
// per-writer shards summed on read (util/metrics.h): an 8-queue engine run
// must report exactly what the per-CPU stats and a 1-queue run report, and
// attachment teardown under pod churn must fold shards into their base
// counters (monotonic totals) and recycle them (bounded shard count).
// tools/ci.sh replays this suite under TSan.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "ebpf/loader.h"
#include "engine/engine.h"
#include "k8s/cluster.h"
#include "sim/testbed.h"

namespace linuxfp::engine {
namespace {

using Counters = std::map<std::string, std::uint64_t>;

bool sharded_name(const std::string& name) {
  for (const char* prefix :
       {"fastpath.", "ebpf.", "fib.", "flowcache.", "drop.", "slowpath."}) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

Counters sharded_counters(const util::MetricsRegistry& reg) {
  Counters out;
  const util::Json json = reg.to_json();
  for (const auto& [name, value] : json.at("counters").object_items()) {
    if (sharded_name(name)) out[name] = static_cast<std::uint64_t>(value.as_int());
  }
  return out;
}

struct GatewayRun {
  Counters registry;
  ebpf::AttachmentStats att;
  std::string att_prefix;
  FlowCacheStats flow_cache;
};

// The XDP gateway (classified blacklist, flow cache on) under a seeded mix:
// forwarded flows (bpf_fib_lookup + bpf_ipt_lookup on the workers),
// blacklisted sources (XDP drop) and unroutable packets (XDP pass, FIB miss
// again on the slow path, drop no_route).
GatewayRun run_gateway(unsigned queues) {
  sim::ScenarioConfig cfg;
  cfg.prefixes = 50;
  cfg.filter_rules = 100;
  cfg.rule_classifier = true;
  cfg.flow_cache = true;
  cfg.accel = sim::Accel::kLinuxFpXdp;
  sim::LinuxTestbed bed(cfg);

  Engine eng(bed.kernel(), bed.ingress_ifindex(), bed.engine_config(queues));
  eng.start();
  constexpr int kPackets = 6000;
  for (int i = 0; i < kPackets; ++i) {
    const auto flow = static_cast<std::uint16_t>(i % 96);
    if (i % 4 == 1) {
      eng.inject(bed.blacklisted_packet(i % 100, flow));
    } else if (i % 10 == 7) {
      net::FlowKey f;
      f.src_ip = net::Ipv4Addr::parse("10.10.1.2").value();
      f.dst_ip = net::Ipv4Addr::parse("10.250.0.9").value();
      f.proto = net::kIpProtoUdp;
      f.src_port = static_cast<std::uint16_t>(2000 + flow);
      f.dst_port = 7;
      eng.inject(net::build_udp_packet(net::MacAddr::from_id(0x501),
                                       bed.kernel().dev_by_name("eth0")->mac(),
                                       f, 64));
    } else {
      eng.inject(bed.forward_packet(i % 50, flow, 64 + (i % 3) * 256));
    }
  }
  eng.stop();

  GatewayRun run;
  run.registry = sharded_counters(bed.kernel().metrics());
  const ebpf::Attachment* att =
      bed.controller()->deployer().attachment("eth0", ebpf::HookType::kXdp);
  EXPECT_NE(att, nullptr);
  if (att == nullptr) return run;
  run.att = att->stats();
  run.att_prefix = "fastpath." + att->name() + ".xdp.";
  run.flow_cache = bed.controller()->deployer().flow_cache_stats();
  return run;
}

TEST(CounterShards, EightQueueGatewayMatchesStatsAndOneQueue) {
  const GatewayRun one = run_gateway(1);
  const GatewayRun eight = run_gateway(8);

  for (const GatewayRun* run : {&one, &eight}) {
    const Counters& c = run->registry;
    const std::string& p = run->att_prefix;
    // Registry mirror == per-CPU AttachmentStats sum.
    EXPECT_EQ(c.at(p + "runs"), run->att.runs);
    EXPECT_EQ(c.at(p + "cycles"), run->att.total_cycles);
    EXPECT_EQ(c.at(p + "pass"), run->att.pass);
    EXPECT_EQ(c.at(p + "drop"), run->att.drop);
    EXPECT_EQ(c.at(p + "tx"), run->att.tx);
    EXPECT_EQ(c.at(p + "redirect"), run->att.redirect);
    EXPECT_EQ(c.at(p + "to_userspace"), run->att.to_userspace);
    EXPECT_EQ(c.at(p + "aborted"), run->att.aborted);
    // Registry mirror == per-CPU FlowCacheStats sum.
    EXPECT_EQ(c.at("flowcache.hits"), run->flow_cache.hits);
    EXPECT_EQ(c.at("flowcache.misses"), run->flow_cache.misses);
    EXPECT_EQ(c.at("flowcache.invalidations"), run->flow_cache.invalidations);
    EXPECT_EQ(c.at("flowcache.evictions"), run->flow_cache.evictions);
    EXPECT_EQ(c.at("flowcache.uncacheable"), run->flow_cache.uncacheable);
    EXPECT_EQ(c.at("flowcache.replay_mismatch"),
              run->flow_cache.replay_mismatch);
  }

  // The mix exercised every sharded writer: workers (helpers, map and FIB
  // lookups, cache hits) and the slow path (FIB misses, drops).
  EXPECT_GT(one.registry.at(one.att_prefix + "redirect"), 0u);
  EXPECT_GT(one.registry.at(one.att_prefix + "drop"), 0u);
  EXPECT_GT(one.registry.at("ebpf.helper.fib_lookup.calls"), 0u);
  EXPECT_GT(one.registry.at("ebpf.helper.ipt_lookup.calls"), 0u);
  EXPECT_GT(one.registry.at("ebpf.tail_calls"), 0u);
  EXPECT_GT(one.registry.at("fib.lookups"), 0u);
  EXPECT_GT(one.registry.at("fib.depth_total"), 0u);
  EXPECT_GT(one.registry.at("flowcache.hits"), 0u);
  EXPECT_GT(one.registry.at("drop.no_route"), 0u);

  // Queue count changes where packets run, never what is counted.
  EXPECT_EQ(one.registry, eight.registry);
}

TEST(CounterShards, PodChurnKeepsTotalsMonotonicAndShardsBounded) {
  k8s::Cluster cluster(2);
  cluster.enable_linuxfp();
  std::deque<k8s::PodRef> live;
  for (int n = 0; n < cluster.node_count(); ++n) {
    live.push_back(cluster.launch_pod(n));
    live.push_back(cluster.launch_pod(n));
  }

  std::vector<Counters> before(static_cast<std::size_t>(cluster.node_count()));
  auto check_node = [&](int n, int cycle) {
    util::MetricsRegistry& reg = cluster.node(n).metrics();
    Counters now = sharded_counters(reg);
    Counters& prev = before[static_cast<std::size_t>(n)];
    for (const auto& [name, value] : prev) {
      auto it = now.find(name);
      ASSERT_NE(it, now.end()) << name << " vanished at cycle " << cycle;
      EXPECT_GE(it->second, value) << name << " went backwards at cycle "
                                   << cycle;
    }
    prev = std::move(now);
    // Live shards: per live attachment and CPU (one here: no engine), its
    // VM, stats slot and flow cache shards. (The node kernel's own
    // slow-path counters are the registry's owner shards, one per name.)
    core::Controller* ctl = cluster.controller(n);
    const std::size_t helpers = ctl->helpers().ids().size();
    const std::size_t per_cpu = (helpers + 5) + 8 + 6;
    EXPECT_LE(reg.live_shards(), ctl->deployer().attachment_count() * per_cpu)
        << "node " << n << " cycle " << cycle;
  };

  constexpr int kCycles = 500;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    const k8s::PodRef& a = live[live.size() - 1];
    const k8s::PodRef& b = live[live.size() - 2];
    EXPECT_TRUE(cluster.run_rr_transaction(a, b).completed) << cycle;
    live.push_back(cluster.launch_pod(cycle % cluster.node_count()));
    cluster.delete_pod(live.front());
    live.pop_front();
    if (cycle % 50 == 0 || cycle == kCycles - 1) {
      for (int n = 0; n < cluster.node_count(); ++n) check_node(n, cycle);
    }
  }
  // Traffic actually ran through the sharded fast-path counters.
  Counters last = sharded_counters(cluster.node(1).metrics());
  std::uint64_t fast_runs = 0;
  for (const auto& [name, value] : last) {
    if (name.rfind("fastpath.", 0) == 0 &&
        name.size() > 5 && name.compare(name.size() - 5, 5, ".runs") == 0) {
      fast_runs += value;
    }
  }
  EXPECT_GT(fast_runs, 0u);
  // No flow cache here, yet its names are listed (at 0) like every other
  // counter of a bound attachment.
  EXPECT_EQ(last.at("flowcache.hits"), 0u);
  EXPECT_EQ(last.at("flowcache.misses"), 0u);
}

}  // namespace
}  // namespace linuxfp::engine
