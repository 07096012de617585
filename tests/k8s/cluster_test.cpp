#include "k8s/cluster.h"

#include <gtest/gtest.h>

#include "k8s/latency_model.h"

namespace linuxfp::k8s {
namespace {

TEST(Cluster, IntraNodePodToPod) {
  Cluster cluster(2);
  PodRef a = cluster.launch_pod(1);
  PodRef b = cluster.launch_pod(1);
  EXPECT_EQ(a.ip.to_string(), "10.244.1.10");
  EXPECT_EQ(b.ip.to_string(), "10.244.1.11");

  // First transaction resolves ARP along the way and still completes.
  auto first = cluster.run_rr_transaction(a, b);
  EXPECT_TRUE(first.completed);

  auto warm = cluster.run_rr_transaction(a, b);
  EXPECT_TRUE(warm.completed);
  EXPECT_GT(warm.cycles, 0u);
  EXPECT_LT(warm.cycles, first.cycles);  // no ARP detour when warm
}

TEST(Cluster, InterNodePodToPodOverVxlan) {
  Cluster cluster(2);
  PodRef a = cluster.launch_pod(1);
  PodRef b = cluster.launch_pod(2);

  auto first = cluster.run_rr_transaction(a, b);
  EXPECT_TRUE(first.completed);
  auto warm = cluster.run_rr_transaction(a, b);
  EXPECT_TRUE(warm.completed);

  // Inter-node costs more than intra-node (vxlan + underlay + two hosts).
  PodRef c = cluster.launch_pod(1);
  cluster.warm_path(a, c);
  auto intra = cluster.run_rr_transaction(a, c);
  EXPECT_GT(warm.cycles, intra.cycles);
}

TEST(Cluster, LinuxFpAcceleratesUnmodifiedPlugin) {
  Cluster plain(2), accel(2);
  accel.enable_linuxfp();

  PodRef pa = plain.launch_pod(1);
  PodRef pb = plain.launch_pod(1);
  PodRef aa = accel.launch_pod(1);
  PodRef ab = accel.launch_pod(1);

  plain.warm_path(pa, pb);
  accel.warm_path(aa, ab);

  auto linux_rr = plain.run_rr_transaction(pa, pb);
  auto lfp_rr = accel.run_rr_transaction(aa, ab);
  ASSERT_TRUE(linux_rr.completed);
  ASSERT_TRUE(lfp_rr.completed);
  EXPECT_LT(lfp_rr.cycles, linux_rr.cycles)
      << "LinuxFP should shorten the pod-to-pod datapath";

  // Inter-node too.
  PodRef pc = plain.launch_pod(2);
  PodRef ac = accel.launch_pod(2);
  plain.warm_path(pa, pc);
  accel.warm_path(aa, ac);
  auto linux_inter = plain.run_rr_transaction(pa, pc);
  auto lfp_inter = accel.run_rr_transaction(aa, ac);
  ASSERT_TRUE(linux_inter.completed);
  ASSERT_TRUE(lfp_inter.completed);
  EXPECT_LT(lfp_inter.cycles, linux_inter.cycles);
}

TEST(Cluster, FastPathPacketsObservedWithLinuxFp) {
  Cluster cluster(2);
  cluster.enable_linuxfp();
  PodRef a = cluster.launch_pod(1);
  PodRef b = cluster.launch_pod(1);
  cluster.warm_path(a, b);
  auto before = cluster.node(1).counters().fast_path_packets;
  cluster.run_rr_transaction(a, b);
  EXPECT_GT(cluster.node(1).counters().fast_path_packets, before);
}

TEST(Cluster, ManyPodPairsIsolated) {
  Cluster cluster(2);
  std::vector<std::pair<PodRef, PodRef>> pairs;
  for (int i = 0; i < 5; ++i) {
    pairs.emplace_back(cluster.launch_pod(1), cluster.launch_pod(2));
  }
  for (auto& [c, s] : pairs) {
    cluster.warm_path(c, s);
    auto rr = cluster.run_rr_transaction(c, s);
    EXPECT_TRUE(rr.completed);
  }
}

TEST(Cluster, PodDeletionWithdrawsPlumbing) {
  Cluster cluster(2);
  cluster.enable_linuxfp();
  PodRef a = cluster.launch_pod(1);
  PodRef b = cluster.launch_pod(1);
  cluster.warm_path(a, b);
  ASSERT_TRUE(cluster.run_rr_transaction(a, b).completed);

  cluster.delete_pod(b);
  // Traffic to the gone pod no longer completes; the cluster (and its
  // controllers) survive the churn.
  auto rr = cluster.run_rr_transaction(a, b);
  EXPECT_FALSE(rr.completed);

  // A replacement pod gets fresh plumbing and works.
  PodRef c = cluster.launch_pod(1);
  cluster.warm_path(a, c);
  EXPECT_TRUE(cluster.run_rr_transaction(a, c).completed);
}

// Deleted pods release their fast-path attachments: after churn, each node's
// controller holds exactly one attachment per live bridge port plus one per
// uplink (the underlay NIC and the VXLAN device).
TEST(Cluster, PodChurnReleasesAttachments) {
  Cluster cluster(2);
  cluster.enable_linuxfp();
  std::vector<PodRef> live;
  for (int round = 0; round < 6; ++round) {
    for (int node = 0; node < cluster.node_count(); ++node) {
      live.push_back(cluster.launch_pod(node));
    }
    for (int i = 0; i < 2; ++i) {
      cluster.delete_pod(live.front());
      live.erase(live.begin());
    }
  }
  for (int node = 0; node < cluster.node_count(); ++node) {
    std::size_t ports = 0;
    std::size_t uplinks = 0;
    for (const kern::NetDevice* d : cluster.node(node).devices()) {
      if (d->master() != 0) {
        ++ports;
      } else if (d->kind() == kern::DevKind::kPhysical ||
                 d->kind() == kern::DevKind::kVxlan) {
        ++uplinks;
      }
    }
    EXPECT_EQ(uplinks, 2u) << "node " << node;
    EXPECT_EQ(cluster.controller(node)->deployer().attachment_count(),
              ports + uplinks)
        << "node " << node;
  }
}

TEST(Cluster, NetworkPolicyStyleIsolationEnforcedOnFastPath) {
  // A kube NetworkPolicy deny between two pods, rendered (as kube-proxy/
  // calico would) into an iptables rule on the node — must be enforced for
  // bridged pod-to-pod traffic by BOTH paths (br_netfilter).
  Cluster cluster(2);
  cluster.enable_linuxfp();
  PodRef a = cluster.launch_pod(1);
  PodRef b = cluster.launch_pod(1);
  cluster.warm_path(a, b);
  ASSERT_TRUE(cluster.run_rr_transaction(a, b).completed);

  auto st = kern::run_command(
      cluster.node(1), "iptables -I FORWARD 1 -s " + a.ip.to_string() +
                           " -d " + b.ip.to_string() + " -j DROP");
  ASSERT_TRUE(st.ok());
  cluster.controller(1)->run_once();

  auto rr = cluster.run_rr_transaction(a, b);
  EXPECT_FALSE(rr.completed);
  // The stateless deny also kills replies of b->a transactions (the reply
  // is a->b traffic) — exactly what the slow path does too. An unaffected
  // pod pair keeps communicating.
  EXPECT_FALSE(cluster.run_rr_transaction(b, a).completed);
  PodRef c = cluster.launch_pod(1);
  cluster.warm_path(c, b);
  EXPECT_TRUE(cluster.run_rr_transaction(c, b).completed);
}

TEST(LatencyModel, MonotoneInCycles) {
  PodLatencyModel model;
  EXPECT_LT(model.mean_rtt_ms(10000), model.mean_rtt_ms(20000));
  auto samples = model.sample_rtts(20000, 0, 2000, 7);
  EXPECT_NEAR(samples.mean(), model.mean_rtt_ms(20000),
              model.mean_rtt_ms(20000) * 0.05);
  EXPECT_GT(samples.p99(), samples.mean());
}

}  // namespace
}  // namespace linuxfp::k8s
