#include "core/introspect.h"

#include <gtest/gtest.h>

#include "kernel/commands.h"
#include "kernel/kernel.h"
#include "util/fault.h"

namespace linuxfp::core {
namespace {

TEST(Introspection, InitialSyncCapturesExistingConfig) {
  kern::Kernel k("host");
  k.add_phys_dev("eth0");
  ASSERT_TRUE(kern::run_command(k, "ip link set eth0 up").ok());
  ASSERT_TRUE(kern::run_command(k, "ip addr add 10.0.0.1/24 dev eth0").ok());
  ASSERT_TRUE(kern::run_command(k, "sysctl -w net.ipv4.ip_forward=1").ok());
  ASSERT_TRUE(
      kern::run_command(k, "ip route add 10.2.0.0/16 via 10.0.0.2 dev eth0")
          .ok());

  ServiceIntrospection si(k.netlink());
  si.initial_sync();
  const WorldView& v = si.view();
  ASSERT_EQ(v.links.size(), 1u);
  const LinkObject* eth0 = v.link_by_name("eth0");
  ASSERT_NE(eth0, nullptr);
  EXPECT_TRUE(eth0->up);
  EXPECT_EQ(eth0->addrs.size(), 1u);
  EXPECT_TRUE(v.ip_forward());
  EXPECT_EQ(v.routes.size(), 2u);  // connected + global
  EXPECT_EQ(v.global_route_count(), 1u);
}

TEST(Introspection, IncrementalEventsUpdateView) {
  kern::Kernel k("host");
  k.add_phys_dev("eth0");
  ServiceIntrospection si(k.netlink());
  si.initial_sync();
  EXPECT_FALSE(si.view().link_by_name("eth0")->up);

  ASSERT_TRUE(kern::run_command(k, "ip link set eth0 up").ok());
  EXPECT_TRUE(si.poll());
  EXPECT_TRUE(si.view().link_by_name("eth0")->up);

  ASSERT_TRUE(
      kern::run_command(k, "iptables -A FORWARD -s 1.2.3.0/24 -j DROP").ok());
  EXPECT_TRUE(si.poll());
  EXPECT_EQ(si.view().forward_rule_count(), 1u);

  EXPECT_FALSE(si.poll());  // no new events
}

TEST(Introspection, DynamicNeighborChurnDoesNotForceResynth) {
  kern::Kernel k("host");
  k.add_phys_dev("eth0");
  ServiceIntrospection si(k.netlink());
  si.initial_sync();

  // Static neighbour: relevant change.
  ASSERT_TRUE(kern::run_command(
                  k,
                  "ip neigh add 10.0.0.2 lladdr 02:00:00:00:00:05 dev eth0 "
                  "nud permanent")
                  .ok());
  EXPECT_TRUE(si.poll());
  EXPECT_EQ(si.view().neighbors.size(), 1u);
}

TEST(Introspection, BridgeObjectsCarryPortsAndFlags) {
  kern::Kernel k("host");
  k.add_phys_dev("p1");
  ASSERT_TRUE(kern::run_command(k, "brctl addbr br0").ok());
  ASSERT_TRUE(kern::run_command(k, "brctl addif br0 p1").ok());
  ASSERT_TRUE(kern::run_command(k, "brctl stp br0 on").ok());
  ServiceIntrospection si(k.netlink());
  si.initial_sync();
  const LinkObject* br = si.view().link_by_name("br0");
  ASSERT_NE(br, nullptr);
  EXPECT_EQ(br->kind, "bridge");
  EXPECT_TRUE(br->stp);
  ASSERT_EQ(br->ports.size(), 1u);
  EXPECT_EQ(br->ports[0].ifname, "p1");
  const LinkObject* p1 = si.view().link_by_name("p1");
  EXPECT_EQ(p1->master, br->ifindex);
}

TEST(Introspection, RouteDeletionReflected) {
  kern::Kernel k("host");
  k.add_phys_dev("eth0");
  ASSERT_TRUE(kern::run_command(k, "ip link set eth0 up").ok());
  ASSERT_TRUE(
      kern::run_command(k, "ip route add 10.2.0.0/16 via 10.0.0.2 dev eth0")
          .ok());
  ServiceIntrospection si(k.netlink());
  si.initial_sync();
  EXPECT_EQ(si.view().routes.size(), 1u);
  ASSERT_TRUE(kern::run_command(k, "ip route del 10.2.0.0/16").ok());
  EXPECT_TRUE(si.poll());
  EXPECT_TRUE(si.view().routes.empty());
}

// The filter-FPM facts are summarized once per rule refresh over FORWARD and
// every chain it reaches; each one must follow a match that is reachable only
// through a user-chain jump, on and back off as the jump comes and goes.
TEST(Introspection, ForwardFactsTrackJumpsIntoUserChains) {
  struct Case {
    const char* rule;
    bool ForwardFacts::*fact;
  };
  const Case cases[] = {
      {"iptables -A CH -p tcp --dport 80 -j DROP", &ForwardFacts::needs_ports},
      {"iptables -A CH -m set --match-set bl src -j DROP",
       &ForwardFacts::uses_sets},
      {"iptables -A CH -o eth0 -j DROP", &ForwardFacts::has_out_if},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.rule);
    kern::Kernel k("host");
    k.add_phys_dev("eth0");
    ASSERT_TRUE(kern::run_command(k, "ipset create bl hash:ip").ok());
    ASSERT_TRUE(
        kern::run_command(k, "iptables -A FORWARD -s 10.9.0.0/16 -j ACCEPT")
            .ok());
    ServiceIntrospection si(k.netlink());
    si.initial_sync();

    // The match sits in a chain nothing jumps to yet: not FORWARD state.
    ASSERT_TRUE(kern::run_command(k, "iptables -N CH").ok());
    ASSERT_TRUE(kern::run_command(k, c.rule).ok());
    EXPECT_TRUE(si.poll());
    EXPECT_FALSE(si.view().forward.needs_ports);
    EXPECT_FALSE(si.view().forward.uses_sets);
    EXPECT_FALSE(si.view().forward.has_out_if);

    ASSERT_TRUE(kern::run_command(k, "iptables -A FORWARD -j CH").ok());
    EXPECT_TRUE(si.poll());
    ForwardFacts only{};
    only.*c.fact = true;
    EXPECT_EQ(si.view().forward.needs_ports, only.needs_ports);
    EXPECT_EQ(si.view().forward.uses_sets, only.uses_sets);
    EXPECT_EQ(si.view().forward.has_out_if, only.has_out_if);

    ASSERT_TRUE(kern::run_command(k, "iptables -D FORWARD 2").ok());
    EXPECT_TRUE(si.poll());
    EXPECT_FALSE(si.view().forward.*c.fact);
  }
}

TEST(Introspection, ForwardFactsWalkJumpCyclesOnce) {
  kern::Kernel k("host");
  ServiceIntrospection si(k.netlink());
  si.initial_sync();
  // A <-> B jump cycle entered from FORWARD, with the port match in B after
  // its jump back to A: the walk must end on the cycle and still see it.
  ASSERT_TRUE(kern::run_command(k, "iptables -N A").ok());
  ASSERT_TRUE(kern::run_command(k, "iptables -N B").ok());
  ASSERT_TRUE(kern::run_command(k, "iptables -A A -j B").ok());
  ASSERT_TRUE(kern::run_command(k, "iptables -A B -j A").ok());
  ASSERT_TRUE(kern::run_command(k, "iptables -A FORWARD -j A").ok());
  EXPECT_TRUE(si.poll());
  EXPECT_FALSE(si.view().forward.needs_ports);

  ASSERT_TRUE(
      kern::run_command(k, "iptables -A B -p udp --sport 53 -j ACCEPT").ok());
  EXPECT_TRUE(si.poll());
  EXPECT_TRUE(si.view().forward.needs_ports);
  EXPECT_FALSE(si.view().forward.uses_sets);
  EXPECT_FALSE(si.view().forward.has_out_if);

  ASSERT_TRUE(kern::run_command(k, "iptables -D FORWARD 1").ok());
  EXPECT_TRUE(si.poll());
  EXPECT_FALSE(si.view().forward.needs_ports);
}

TEST(Introspection, FailedRuleDumpKeepsFactsWithTheStaleChains) {
  util::FaultScope faults(7);
  kern::Kernel k("host");
  ServiceIntrospection si(k.netlink());
  si.initial_sync();

  faults->fail_always(util::kFaultNetlinkDump);
  ASSERT_TRUE(
      kern::run_command(k, "iptables -A FORWARD -p tcp --dport 22 -j DROP")
          .ok());
  si.poll();
  EXPECT_GE(si.dump_failures(), 1u);
  EXPECT_EQ(si.view().forward_rule_count(), 0u);
  EXPECT_FALSE(si.view().forward.needs_ports);

  faults->clear(util::kFaultNetlinkDump);
  ASSERT_TRUE(
      kern::run_command(k, "iptables -A FORWARD -o eth9 -j ACCEPT").ok());
  EXPECT_TRUE(si.poll());
  EXPECT_EQ(si.view().forward_rule_count(), 2u);
  EXPECT_TRUE(si.view().forward.needs_ports);
  EXPECT_TRUE(si.view().forward.has_out_if);
}

}  // namespace
}  // namespace linuxfp::core
