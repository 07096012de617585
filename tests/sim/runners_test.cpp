#include "sim/runners.h"

#include <gtest/gtest.h>

#include "sim/testbed.h"

namespace linuxfp::sim {
namespace {

ScenarioConfig router_config(Accel accel) {
  ScenarioConfig cfg;
  cfg.prefixes = 50;
  cfg.accel = accel;
  return cfg;
}

TEST(Testbed, LinuxForwardsScenarioTraffic) {
  LinuxTestbed dut(router_config(Accel::kNone));
  auto out = dut.process(dut.forward_packet(0, 0));
  EXPECT_TRUE(out.forwarded);
  EXPECT_FALSE(out.fast_path);
  EXPECT_GT(out.cycles, 0u);
}

TEST(Testbed, LinuxFpForwardsOnFastPath) {
  LinuxTestbed dut(router_config(Accel::kLinuxFpXdp));
  auto out = dut.process(dut.forward_packet(0, 0));
  EXPECT_TRUE(out.forwarded);
  EXPECT_TRUE(out.fast_path);
}

TEST(Testbed, GatewayDropsBlacklisted) {
  ScenarioConfig cfg;
  cfg.prefixes = 10;
  cfg.filter_rules = 100;
  cfg.accel = Accel::kLinuxFpXdp;
  LinuxTestbed dut(cfg);
  auto blocked = dut.process(dut.blacklisted_packet(5, 0));
  EXPECT_TRUE(blocked.dropped_by_policy);
  auto ok = dut.process(dut.forward_packet(1, 0));
  EXPECT_TRUE(ok.forwarded);
}

TEST(Testbed, IpsetVariantEquivalentVerdicts) {
  ScenarioConfig plain;
  plain.filter_rules = 100;
  ScenarioConfig ipset = plain;
  ipset.use_ipset = true;
  LinuxTestbed a(plain), b(ipset);
  for (int entry : {0, 13, 57, 99}) {
    EXPECT_TRUE(a.process(a.blacklisted_packet(entry, 0)).dropped_by_policy);
    EXPECT_TRUE(b.process(b.blacklisted_packet(entry, 0)).dropped_by_policy);
  }
  EXPECT_TRUE(a.process(a.forward_packet(2, 0)).forwarded);
  EXPECT_TRUE(b.process(b.forward_packet(2, 0)).forwarded);
}

TEST(ThroughputRunner, ScalesWithCores) {
  LinuxTestbed dut(router_config(Accel::kNone));
  FlowPattern pattern(50, 256, 64);
  ThroughputRunner runner(25e9, 2000);
  auto factory = [&](std::uint64_t i) {
    auto [prefix, flow] = pattern.at(i);
    return dut.forward_packet(prefix, flow);
  };
  auto one = runner.run(dut, factory, 1);
  auto four = runner.run(dut, factory, 4);
  EXPECT_GT(one.total_pps, 0.5e6);
  EXPECT_GT(four.total_pps, one.total_pps * 3.2);
  EXPECT_LT(four.total_pps, one.total_pps * 4.8);
  EXPECT_FALSE(one.line_rate_limited);
}

TEST(ThroughputRunner, LinuxFpBeatsLinux) {
  LinuxTestbed linux_dut(router_config(Accel::kNone));
  LinuxTestbed lfp_dut(router_config(Accel::kLinuxFpXdp));
  FlowPattern pattern(50, 256, 64);
  ThroughputRunner runner(25e9, 2000);
  auto linux_pps =
      runner
          .run(linux_dut,
               [&](std::uint64_t i) {
                 auto [p, f] = pattern.at(i);
                 return linux_dut.forward_packet(p, f);
               },
               1)
          .total_pps;
  auto lfp_pps =
      runner
          .run(lfp_dut,
               [&](std::uint64_t i) {
                 auto [p, f] = pattern.at(i);
                 return lfp_dut.forward_packet(p, f);
               },
               1)
          .total_pps;
  // The headline claim: 77% improvement (accept 50-100%).
  EXPECT_GT(lfp_pps, linux_pps * 1.5);
  EXPECT_LT(lfp_pps, linux_pps * 2.0);
}

TEST(ThroughputRunner, LineRateCapAt1500B) {
  LinuxTestbed dut(router_config(Accel::kLinuxFpXdp));
  ThroughputRunner runner(25e9, 1500);
  auto result = runner.run(
      dut, [&](std::uint64_t i) { return dut.forward_packet(0, i % 64, 1500); },
      /*cores=*/8);
  EXPECT_TRUE(result.line_rate_limited);
  EXPECT_NEAR(result.total_bps, 25e9, 1e6);
}

TEST(RrLatencyRunner, LatencyOrderingMatchesPaper) {
  LinuxTestbed linux_dut(router_config(Accel::kNone));
  LinuxTestbed lfp_dut(router_config(Accel::kLinuxFpXdp));
  RrConfig cfg;
  cfg.transactions = 2000;
  RrLatencyRunner runner(cfg);
  auto req = [&](LinuxTestbed& dut) {
    return [&dut](int s) {
      return dut.forward_packet(s % 50, static_cast<std::uint16_t>(s));
    };
  };
  auto linux_rtt = runner.run(linux_dut, req(linux_dut), req(linux_dut));
  auto lfp_rtt = runner.run(lfp_dut, req(lfp_dut), req(lfp_dut));

  EXPECT_GT(linux_rtt.rtt_us.mean(), lfp_rtt.rtt_us.mean());
  // Paper Table III: 53% lower latency (accept 35-60% reduction).
  double reduction = 1.0 - lfp_rtt.rtt_us.mean() / linux_rtt.rtt_us.mean();
  EXPECT_GT(reduction, 0.35);
  EXPECT_LT(reduction, 0.60);
  // Distribution sanity: p99 > mean, stddev meaningful.
  EXPECT_GT(linux_rtt.rtt_us.p99(), linux_rtt.rtt_us.mean());
  EXPECT_GT(linux_rtt.rtt_us.stddev(), 0.0);
}

TEST(RrLatencyRunner, MoreSessionsMoreQueueing) {
  LinuxTestbed dut(router_config(Accel::kNone));
  RrConfig small;
  small.sessions = 16;
  small.transactions = 1500;
  RrConfig big;
  big.sessions = 128;
  big.transactions = 1500;
  auto req = [&dut](int s) {
    return dut.forward_packet(s % 50, static_cast<std::uint16_t>(s));
  };
  auto rtt_small = RrLatencyRunner(small).run(dut, req, req);
  auto rtt_big = RrLatencyRunner(big).run(dut, req, req);
  EXPECT_GT(rtt_big.rtt_us.mean(), rtt_small.rtt_us.mean() * 2);
}

}  // namespace
}  // namespace linuxfp::sim
