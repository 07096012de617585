#include "tools/calibration.h"

#include "core/controller.h"
#include "tests/kernel/test_topo.h"

namespace linuxfp::calibration {
namespace {

using linuxfp::testing::RouterDut;

std::uint64_t cycles_for(RouterDut& dut, int prefix) {
  kern::CycleTrace t;
  dut.tx_eth1.clear();
  dut.kernel.rx(dut.eth0_ifindex(), dut.packet_to_prefix(prefix), t);
  return t.total();
}

void add_filter_rules(RouterDut& dut) {
  for (int i = 0; i < 100; ++i) {
    dut.run("iptables -A FORWARD -s 10.77." + std::to_string(i) +
            ".0/24 -j DROP");
  }
}

}  // namespace

std::vector<Anchor> measure_anchors() {
  std::vector<Anchor> out;
  const double hz = kern::CostModel{}.cpu_hz;
  auto add = [&](const char* name, std::uint64_t cycles, double target) {
    out.push_back({name, cycles, hz / static_cast<double>(cycles) / 1e6,
                   target});
  };

  {  // Linux forwarding
    RouterDut dut;
    dut.add_prefixes(50);
    add("linux fwd", cycles_for(dut, 3), 1.00);
  }
  {  // LinuxFP XDP forwarding
    RouterDut dut;
    dut.add_prefixes(50);
    core::Controller ctl(dut.kernel);
    ctl.start();
    add("lfp xdp fwd", cycles_for(dut, 3), 1.768);
  }
  {  // LinuxFP TC forwarding
    RouterDut dut;
    dut.add_prefixes(50);
    core::ControllerOptions o;
    o.hook = "tc";
    core::Controller ctl(dut.kernel, o);
    ctl.start();
    add("lfp tc fwd", cycles_for(dut, 3), 0.850);
  }
  {  // LinuxFP XDP filtering (100 rules) + fwd
    RouterDut dut;
    dut.add_prefixes(50);
    add_filter_rules(dut);
    core::Controller ctl(dut.kernel);
    ctl.start();
    add("lfp xdp filt+fwd", cycles_for(dut, 3), 1.183);
  }
  {  // Linux filtering (100 rules) + fwd
    RouterDut dut;
    dut.add_prefixes(50);
    add_filter_rules(dut);
    add("linux filt+fwd", cycles_for(dut, 3), 0.60);
  }
  {  // Bridge: slow vs fast
    kern::Kernel k("br");
    std::vector<net::Packet> sink;
    k.add_phys_dev("p1").set_phys_tx([&](net::Packet&& p) {
      sink.push_back(std::move(p));
    });
    k.add_phys_dev("p2").set_phys_tx([&](net::Packet&& p) {
      sink.push_back(std::move(p));
    });
    (void)kern::run_command(k, "brctl addbr br0");
    for (const char* d : {"p1", "p2", "br0"}) {
      (void)kern::run_command(k, std::string("ip link set ") + d + " up");
    }
    (void)kern::run_command(k, "brctl addif br0 p1");
    (void)kern::run_command(k, "brctl addif br0 p2");
    auto a = net::MacAddr::from_id(0xA), b = net::MacAddr::from_id(0xB);
    k.bridge_by_name("br0")->fdb_learn(a, 0, k.dev_by_name("p1")->ifindex(),
                                       k.now_ns());
    k.bridge_by_name("br0")->fdb_learn(b, 0, k.dev_by_name("p2")->ifindex(),
                                       k.now_ns());
    net::FlowKey f;
    f.src_ip = net::Ipv4Addr::parse("1.1.1.1").value();
    f.dst_ip = net::Ipv4Addr::parse("2.2.2.2").value();
    kern::CycleTrace slow;
    k.rx(k.dev_by_name("p1")->ifindex(), net::build_udp_packet(a, b, f, 64),
         slow);
    add("linux bridge", slow.total(), 1.05);

    core::ControllerOptions o;
    o.attach_bridge_ports = true;
    core::Controller ctl(k, o);
    ctl.start();
    kern::CycleTrace fast;
    k.rx(k.dev_by_name("p1")->ifindex(), net::build_udp_packet(a, b, f, 64),
         fast);
    add("lfp xdp bridge", fast.total(), 1.915);
  }
  return out;
}

}  // namespace linuxfp::calibration
