// Adaptive flow steering tests (DESIGN.md §15): the space-saving sketch, the
// RSS bugfix sweep (L2 fallback spread, fragment hash consistency, RETA
// re-convergence after include_queue), the FlowSteerer's three mechanisms
// (RFS affinity, elephant spray/demote, RETA rebalancing), and the
// steering-enabled engine end to end with its reconciled steering.* metrics.
// The multi-threaded cases run under TSan/UBSan via tools/ci.sh.
#include "engine/steering.h"

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "ebpf/loader.h"
#include "engine/engine.h"
#include "engine/flowcache.h"
#include "net/headers.h"
#include "sim/testbed.h"
#include "tests/kernel/test_topo.h"

namespace linuxfp::engine {
namespace {

using linuxfp::testing::RouterDut;

// --- SpaceSaving ---------------------------------------------------------------

TEST(Steering, SpaceSavingTracksHeavyHitterUnderEviction) {
  SpaceSaving sketch(4);
  for (int i = 0; i < 100; ++i) sketch.add(0xE1E);
  // 40 mice churn through the remaining 3 slots.
  for (std::uint32_t m = 1; m <= 40; ++m) sketch.add(m);
  EXPECT_TRUE(sketch.tracked(0xE1E));
  EXPECT_LE(sketch.items().size(), 4u);
  const SpaceSaving::Item* hot = nullptr;
  for (const SpaceSaving::Item& it : sketch.items()) {
    if (it.hash == 0xE1E) hot = &it;
  }
  ASSERT_NE(hot, nullptr);
  // Space-saving never undercounts: count - err <= true count <= count.
  EXPECT_GE(hot->count, 100u);
  EXPECT_LE(hot->count - hot->err, 100u);
}

TEST(Steering, SpaceSavingHalveDecaysAndDropsDeadItems) {
  SpaceSaving sketch(4);
  for (int i = 0; i < 8; ++i) sketch.add(1);
  sketch.add(2);  // count 1: one halve() kills it
  sketch.halve();
  EXPECT_TRUE(sketch.tracked(1));
  EXPECT_FALSE(sketch.tracked(2));
  for (const SpaceSaving::Item& it : sketch.items()) {
    if (it.hash == 1) EXPECT_EQ(it.count, 4u);
  }
}

// --- RSS bugfix sweep ----------------------------------------------------------

TEST(Rss, L2FallbackSpreadsNonIpTrafficAcrossQueues) {
  // Regression for the hash-0 pinning bug: distinct non-IP "flows" (ARP
  // exchanges between distinct MAC pairs) must spread over all queues
  // instead of collapsing onto reta_[0]'s queue.
  RssClassifier rss(4);
  std::vector<unsigned> hits(4, 0);
  for (std::uint32_t id = 0; id < 256; ++id) {
    net::Packet arp = net::build_arp_request(
        net::MacAddr::from_id(1000 + id),
        net::Ipv4Addr::parse("10.0.0.1").value(),
        net::Ipv4Addr::parse("10.0.0.2").value());
    ++hits[rss.queue_for(arp)];
  }
  for (unsigned q = 0; q < 4; ++q) {
    // 256 flows over 4 queues: expect ~64 each; at least a quarter of fair
    // share means no queue is starved and none hoards everything.
    EXPECT_GT(hits[q], 16u) << "queue " << q;
  }
}

TEST(Rss, FragmentsOfOneDatagramHashIdentically) {
  // Every fragment of a datagram — first (MF=1, off=0), middle (MF=1,
  // off>0), last (MF=0, off>0) — must hash identically (ports excluded for
  // all of them, including the first fragment, which still carries the UDP
  // header), or a fragmented flow straddles queues and defeats the
  // flowcache. Locks the parse_packet has_ports gating.
  net::FlowKey f;
  f.src_ip = net::Ipv4Addr::parse("10.10.1.2").value();
  f.dst_ip = net::Ipv4Addr::parse("10.100.0.9").value();
  f.proto = net::kIpProtoUdp;
  f.src_port = 4242;
  f.dst_port = 7;
  auto frag = [&](std::uint16_t frag_field) {
    net::Packet p = net::build_udp_packet(net::MacAddr::from_id(1),
                                          net::MacAddr::from_id(2), f, 128);
    net::Ipv4View ip(p.data() + net::kEthHdrLen);
    ip.set_frag_field(frag_field);
    ip.update_checksum();
    return p;
  };
  net::Packet whole = frag(0x0000);
  net::Packet first = frag(0x2000);        // MF, offset 0
  net::Packet middle = frag(0x2000 | 5);   // MF, offset 5
  net::Packet last = frag(0x0005);         // offset 5, no MF
  std::uint32_t h = rss_hash_of(first);
  EXPECT_NE(h, 0u);
  EXPECT_EQ(rss_hash_of(middle), h);
  EXPECT_EQ(rss_hash_of(last), h);
  // The unfragmented datagram hashes with ports — a different input. What
  // matters for steering is that all fragments agree with each other.
  EXPECT_NE(rss_hash_of(whole), 0u);
}

TEST(Rss, IncludeQueueReconvergesRetaToUniform) {
  // Regression for permanent RETA skew: after exclude + include, the table
  // must return to a uniform spread (not leave the recovered queue starved).
  RssClassifier rss(4);
  ASSERT_GT(rss.exclude_queue(2), 0u);
  EXPECT_TRUE(rss.excluded(2));
  std::array<unsigned, kRetaSize> skewed = rss.reta();
  for (unsigned entry : skewed) EXPECT_NE(entry, 2u);

  EXPECT_GT(rss.include_queue(2), 0u);
  EXPECT_FALSE(rss.excluded(2));
  std::vector<unsigned> owned(4, 0);
  for (unsigned entry : rss.reta()) {
    ASSERT_LT(entry, 4u);
    ++owned[entry];
  }
  for (unsigned q = 0; q < 4; ++q) {
    EXPECT_EQ(owned[q], kRetaSize / 4) << "queue " << q;
  }
  // Including a queue that isn't excluded is a no-op.
  EXPECT_EQ(rss.include_queue(2), 0u);
  EXPECT_EQ(rss.include_queue(99), 0u);
}

TEST(Rss, SetEntryRespectsExclusionAndBounds) {
  RssClassifier rss(4);
  EXPECT_TRUE(rss.set_entry(0, 3));
  EXPECT_EQ(rss.reta()[0], 3u);
  EXPECT_FALSE(rss.set_entry(0, 3));  // unchanged
  EXPECT_FALSE(rss.set_entry(kRetaSize, 1));
  EXPECT_FALSE(rss.set_entry(1, 9));
  rss.exclude_queue(3);
  EXPECT_FALSE(rss.set_entry(1, 3));  // excluded target rejected
}

// --- FlowSteerer ---------------------------------------------------------------

SteeringConfig no_adapt(SteeringConfig cfg) {
  cfg.interval = 1u << 30;  // adaptation only when the test calls adapt()
  return cfg;
}

TEST(Steering, RfsPinSurvivesRetaRewrite) {
  // The affinity table exists so a RETA rewrite never silently migrates an
  // established flow away from its warm per-CPU state.
  RssClassifier rss(4);
  SteeringConfig cfg;
  cfg.rfs = true;
  FlowSteerer s(rss, no_adapt(cfg));
  const std::uint32_t h = 0x5EED;
  unsigned pinned = s.pick_queue(h);
  EXPECT_EQ(s.rfs_queue(h), pinned);
  // Adversarial rewrite: point every bucket somewhere else.
  for (std::size_t i = 0; i < kRetaSize; ++i) {
    rss.set_entry(i, (pinned + 1) % 4);
  }
  for (int i = 0; i < 8; ++i) EXPECT_EQ(s.pick_queue(h), pinned);
  EXPECT_GE(s.stats().rfs_hits, 8u);
  // A fresh flow follows the rewritten RETA, not the old pin.
  EXPECT_EQ(s.pick_queue(h + kRetaSize), (pinned + 1) % 4);
}

TEST(Steering, RfsRepinsWhenPinnedQueueIsExcluded) {
  RssClassifier rss(2);
  SteeringConfig cfg;
  cfg.rfs = true;
  FlowSteerer s(rss, no_adapt(cfg));
  const std::uint32_t h = 0xABC;
  unsigned pinned = s.pick_queue(h);
  rss.exclude_queue(pinned);
  unsigned moved = s.pick_queue(h);
  EXPECT_NE(moved, pinned);
  EXPECT_EQ(s.rfs_queue(h), moved);  // re-pinned to the live queue
}

TEST(Steering, RebalancerPacksHotBucketAlone) {
  // One RETA bucket carries half the traffic; the LPT pass must give it a
  // queue of its own and spread the other 127 buckets over the rest.
  RssClassifier rss(4);
  SteeringConfig cfg;
  cfg.rebalance = true;
  FlowSteerer s(rss, no_adapt(cfg));
  for (int i = 0; i < 512; ++i) s.pick_queue(128);  // bucket 0, hot
  for (std::uint32_t b = 1; b < kRetaSize; ++b) {
    for (int i = 0; i < 4; ++i) s.pick_queue(b);  // buckets 1..127, 4 each
  }
  s.adapt();
  EXPECT_GT(s.stats().reta_rewrites, 0u);
  std::array<unsigned, kRetaSize> reta = rss.reta();
  unsigned hot_queue = reta[0];
  std::vector<unsigned> owned(4, 0);
  for (unsigned entry : reta) ++owned[entry];
  // The hot bucket's queue holds (almost) nothing else; the cold queues
  // split the rest roughly evenly.
  EXPECT_LE(owned[hot_queue], 4u);
  for (unsigned q = 0; q < 4; ++q) {
    if (q == hot_queue) continue;
    EXPECT_GE(owned[q], 30u) << "queue " << q;
  }
}

TEST(Steering, ElephantIsSprayedThenDemotedWhenItCools) {
  RssClassifier rss(4);
  SteeringConfig cfg;
  cfg.elephants = true;
  cfg.interval = 256;
  FlowSteerer s(rss, cfg);
  const std::uint32_t kHot = 0x0E1E;
  // ~70% of traffic is one flow: far above the auto spray threshold
  // (0.5 / 4 alive = 12.5% share).
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 256; ++i) {
      s.pick_queue(i % 10 < 7 ? kHot : 0x1000 + static_cast<std::uint32_t>(i));
    }
  }
  ASSERT_TRUE(s.sprayed(kHot));
  EXPECT_GE(s.stats().spray_flows, 1u);
  // A sprayed flow round-robins over every alive queue.
  std::set<unsigned> queues;
  for (int i = 0; i < 16; ++i) queues.insert(s.pick_queue(kHot));
  EXPECT_EQ(queues.size(), 4u);
  EXPECT_GT(s.stats().sprayed, 0u);

  // The flow goes quiet: decay drops its share below the demote threshold
  // and it returns to normal affinity steering.
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 256; ++i) {
      s.pick_queue(0x2000 + static_cast<std::uint32_t>(i % 64));
    }
  }
  EXPECT_FALSE(s.sprayed(kHot));
  EXPECT_GE(s.stats().unspray_flows, 1u);
}

TEST(Steering, PinnedElephantsMigrateOffHotQueue) {
  // Three pinned flows land on queue 0, one light flow on queue 1. The
  // adaptation pass must retarget pins until the imbalance is inside
  // tolerance — without spraying (threshold set out of reach).
  RssClassifier rss(2);
  SteeringConfig cfg;
  cfg.rfs = true;
  cfg.elephants = true;
  cfg.spray_share = 0.95;  // nothing sprays: isolate migration
  FlowSteerer s(rss, no_adapt(cfg));
  // Even hashes -> even buckets -> queue 0 under the round-robin RETA.
  for (int i = 0; i < 100; ++i) s.pick_queue(0);
  for (int i = 0; i < 100; ++i) s.pick_queue(2);
  for (int i = 0; i < 100; ++i) s.pick_queue(4);
  for (int i = 0; i < 20; ++i) s.pick_queue(1);
  ASSERT_EQ(s.rfs_queue(0), 0u);
  ASSERT_EQ(s.rfs_queue(2), 0u);
  ASSERT_EQ(s.rfs_queue(4), 0u);
  s.adapt();
  EXPECT_GE(s.stats().rfs_migrations, 1u);
  bool any_moved = s.rfs_queue(0) == 1u || s.rfs_queue(2) == 1u ||
                   s.rfs_queue(4) == 1u;
  EXPECT_TRUE(any_moved);
}

// --- steering-enabled engine end to end ----------------------------------------

TEST(Steering, EngineAdaptiveSteeringSpreadsZipfSkewLosslessly) {
  // Under Zipf(1.2) one flow is ~1/5 of all traffic and classic RSS pins it
  // (plus everything sharing its bucket) to one queue. With adaptive
  // steering the hot queue's processed share must come down toward fair,
  // and the run stays lossless with every packet accounted for.
  RouterDut dut;
  dut.add_prefixes(8);
  EngineConfig cfg;
  cfg.queues = 4;
  cfg.backpressure = true;
  cfg.steering = SteeringConfig::adaptive();
  cfg.steering.interval = 512;
  Engine eng(dut.kernel, dut.eth0_ifindex(), cfg);
  sim::FlowPattern pattern(8, 256, 64, /*zipf_s=*/1.2);
  eng.start();
  constexpr std::uint64_t kPackets = 6000;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    auto [prefix, flow] = pattern.at(i);
    eng.inject(dut.packet_to_prefix(prefix, flow));
  }
  eng.stop();

  EXPECT_EQ(eng.total_processed(), kPackets);
  EXPECT_EQ(eng.total_tail_drops(), 0u);
  ASSERT_NE(eng.steerer(), nullptr);
  const SteeringStats& ss = eng.steerer()->stats();
  EXPECT_EQ(ss.decisions, kPackets);
  EXPECT_GT(ss.adapt_passes, 0u);
  EXPECT_GT(ss.rebalances, 0u);
  std::uint64_t hottest = 0;
  for (unsigned q = 0; q < 4; ++q) {
    hottest = std::max(hottest, eng.queue_stats(q).processed);
  }
  // Static RSS gives the hot queue well over 40% of this mix (the rank-1
  // flow alone is ~21%). Adaptive steering must pull it under that.
  EXPECT_LT(static_cast<double>(hottest) / static_cast<double>(kPackets), 0.4);

  // The reconciled steering.* counters reached the registry.
  EXPECT_EQ(dut.kernel.metrics().value("engine.steering.decisions"), kPackets);
  EXPECT_EQ(dut.kernel.metrics().value("engine.steering.adapt_passes"),
            ss.adapt_passes);
}

TEST(Steering, StalledQueueLeavesSteeringDecisionsUnchanged) {
  // Adaptation weighs only the packets the producer steered, never how far
  // a worker has fallen behind: a run whose queue 0 stalls on every poll
  // ends with the same steering stats and RETA as an unstalled run.
  auto run = [](bool stall_queue0) {
    RouterDut dut;
    dut.add_prefixes(8);
    EngineConfig cfg;
    cfg.queues = 8;
    cfg.backpressure = true;
    cfg.steering = SteeringConfig::adaptive();
    cfg.steering.interval = 512;
    if (stall_queue0) {
      cfg.worker_poll_hook = [](unsigned q) {
        if (q == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      };
    }
    Engine eng(dut.kernel, dut.eth0_ifindex(), cfg);
    sim::FlowPattern pattern(8, 256, 64, /*zipf_s=*/1.2);
    eng.start();
    constexpr std::uint64_t kPackets = 6000;
    for (std::uint64_t i = 0; i < kPackets; ++i) {
      auto [prefix, flow] = pattern.at(i);
      eng.inject(dut.packet_to_prefix(prefix, flow));
    }
    eng.stop();
    EXPECT_EQ(eng.total_processed(), kPackets);
    return std::make_pair(eng.steerer()->stats(), eng.rss().reta());
  };
  const auto steady = run(false);
  const auto stalled = run(true);
  EXPECT_GT(steady.first.rebalances, 0u);
  EXPECT_TRUE(stalled.first == steady.first);
  EXPECT_EQ(stalled.second, steady.second);
}

// --- flowcache migration coherence ---------------------------------------------

TEST(Steering, FlowcacheStaysCoherentWhenFlowMigratesCpus) {
  // An elephant migration re-steers a flow from CPU 0's worker to CPU 1's.
  // The microflow cache is per-CPU exact-match: the new CPU takes one miss,
  // re-records, and both caches may hold the flow at the SAME epoch — no
  // epoch bump, no stale verdict (the entries are equal pure functions).
  sim::ScenarioConfig cfg;
  cfg.prefixes = 8;
  cfg.accel = sim::Accel::kLinuxFpXdp;
  cfg.flow_cache = true;
  sim::LinuxTestbed dut(cfg);
  ebpf::Attachment* att =
      dut.controller()->deployer().attachment("eth0", ebpf::HookType::kXdp);
  ASSERT_NE(att, nullptr);
  att->prepare_cpus(2);
  const std::uint64_t epoch = att->flow_epoch();

  net::Packet warm = dut.forward_packet(1, 5);
  const std::uint32_t hash = rss_hash_cached(warm);

  // Flow lives on CPU 0: miss then hits.
  auto r0 = att->run_on_cpu(warm, dut.ingress_ifindex(), 0);
  net::Packet again = dut.forward_packet(1, 5);
  auto r0b = att->run_on_cpu(again, dut.ingress_ifindex(), 0);
  EXPECT_EQ(r0b.verdict, r0.verdict);
  ASSERT_NE(att->flow_cache(0), nullptr);
  ASSERT_NE(att->flow_cache(1), nullptr);
  EXPECT_TRUE(att->flow_cache(0)->contains(hash, epoch));
  EXPECT_FALSE(att->flow_cache(1)->contains(hash, epoch));

  // Migration: the same flow now arrives on CPU 1. Verdict identical, entry
  // re-recorded there, CPU 0's entry untouched and both at the same epoch.
  net::Packet migrated = dut.forward_packet(1, 5);
  auto r1 = att->run_on_cpu(migrated, dut.ingress_ifindex(), 1);
  EXPECT_EQ(r1.verdict, r0.verdict);
  EXPECT_TRUE(att->flow_cache(1)->contains(hash, epoch));
  EXPECT_TRUE(att->flow_cache(0)->contains(hash, epoch));
  EXPECT_EQ(att->flow_epoch(), epoch);

  // And the warm entry still serves on the new CPU: one more run is a hit.
  std::uint64_t hits_before = att->flow_cache(1)->stats().hits;
  net::Packet settled = dut.forward_packet(1, 5);
  auto r1b = att->run_on_cpu(settled, dut.ingress_ifindex(), 1);
  EXPECT_EQ(r1b.verdict, r0.verdict);
  EXPECT_EQ(att->flow_cache(1)->stats().hits, hits_before + 1);
}

}  // namespace
}  // namespace linuxfp::engine
