#include "core/introspect.h"

#include <set>

#include "util/fault.h"
#include "util/logging.h"

namespace linuxfp::core {

namespace {

LinkObject link_from_attrs(const util::Json& a) {
  LinkObject l;
  l.ifindex = static_cast<int>(a.at("ifindex").as_int());
  l.ifname = a.at("ifname").as_string();
  l.kind = a.at("kind").as_string();
  l.mac = a.at("mac").as_string();
  l.up = a.at("up").as_bool();
  l.mtu = static_cast<std::uint32_t>(a.at("mtu").as_int(1500));
  l.master = static_cast<int>(a.at("master").as_int());
  l.stp = a.at("stp").as_bool();
  l.vlan_filtering = a.at("vlan_filtering").as_bool();
  l.vni = static_cast<std::uint32_t>(a.at("vni").as_int());
  for (std::size_t i = 0; i < a.at("addrs").size(); ++i) {
    l.addrs.push_back(a.at("addrs").at(i).as_string());
  }
  for (std::size_t i = 0; i < a.at("ports").size(); ++i) {
    const util::Json& pj = a.at("ports").at(i);
    PortObject p;
    p.ifindex = static_cast<int>(pj.at("ifindex").as_int());
    p.ifname = pj.at("ifname").as_string();
    p.stp_state = pj.at("state").as_string();
    p.pvid = static_cast<std::uint16_t>(pj.at("pvid").as_int(1));
    l.ports.push_back(p);
  }
  return l;
}

// One walk over FORWARD and the chains it reaches through jumps.
ForwardFacts summarize_forward(
    const std::map<std::string, ChainObject>& chains) {
  ForwardFacts f;
  std::vector<std::string> pending{"FORWARD"};
  std::set<std::string> visited;
  while (!pending.empty()) {
    std::string name = std::move(pending.back());
    pending.pop_back();
    if (!visited.insert(name).second) continue;
    auto it = chains.find(name);
    if (it == chains.end()) continue;
    for (const RuleObject& r : it->second.rules) {
      f.needs_ports = f.needs_ports || r.raw.contains("dport") ||
                      r.raw.contains("sport") || r.raw.contains("ct_state");
      f.uses_sets = f.uses_sets || r.raw.contains("match_set");
      f.has_out_if = f.has_out_if || r.raw.contains("out_if");
      const std::string& target = r.raw.at("target").as_string();
      if (target != "ACCEPT" && target != "DROP" && target != "RETURN") {
        pending.push_back(target);
      }
    }
  }
  return f;
}

}  // namespace

ServiceIntrospection::ServiceIntrospection(nl::Bus& bus) : bus_(bus) {
  socket_ = bus_.open_socket();
  socket_->join(nl::Group::kLink);
  socket_->join(nl::Group::kAddr);
  socket_->join(nl::Group::kRoute);
  socket_->join(nl::Group::kNeigh);
  socket_->join(nl::Group::kNetfilter);
  socket_->join(nl::Group::kSysctl);
  socket_->join(nl::Group::kIpvs);
}

bool ServiceIntrospection::dump_ok() {
  if (util::FaultInjector::global().should_fail(util::kFaultNetlinkDump)) {
    ++dump_failures_;
    return false;
  }
  return true;
}

void ServiceIntrospection::initial_sync() {
  view_ = WorldView{};
  if (dump_ok()) {
    for (const nl::Message& m : bus_.dump(nl::DumpKind::kLinks)) {
      apply_link(m.attrs, false);
    }
  }
  refresh_routes();
  refresh_rules();
  refresh_sets();
  refresh_neighbors();
  refresh_services();
  if (dump_ok()) {
    for (const nl::Message& m : bus_.dump(nl::DumpKind::kSysctls)) {
      view_.sysctls[m.attrs.at("key").as_string()] =
          static_cast<int>(m.attrs.at("value").as_int());
    }
  }
}

bool ServiceIntrospection::poll() {
  bool changed = false;
  nl::Message msg;
  while (socket_->receive(msg)) {
    ++events_;
    changed = apply(msg) || changed;
  }
  return changed;
}

bool ServiceIntrospection::apply(const nl::Message& msg) {
  switch (msg.type) {
    case nl::MsgType::kNewLink:
    case nl::MsgType::kDelLink:
      // Partial link events (e.g. brctl stp) re-dump links for simplicity;
      // full events carry an ifindex.
      if (msg.attrs.contains("ifindex")) {
        apply_link(msg.attrs, msg.type == nl::MsgType::kDelLink);
      } else if (dump_ok()) {
        view_.links.clear();
        for (const nl::Message& m : bus_.dump(nl::DumpKind::kLinks)) {
          apply_link(m.attrs, false);
        }
      }
      return true;
    case nl::MsgType::kNewAddr:
    case nl::MsgType::kDelAddr: {
      // Addresses live inside link objects: refresh the owning link.
      if (dump_ok()) {
        view_.links.clear();
        for (const nl::Message& m : bus_.dump(nl::DumpKind::kLinks)) {
          apply_link(m.attrs, false);
        }
      }
      return true;
    }
    case nl::MsgType::kNewRoute:
    case nl::MsgType::kDelRoute:
      refresh_routes();
      return true;
    case nl::MsgType::kNewNeigh:
    case nl::MsgType::kDelNeigh: {
      // Dynamic (learned) neighbour churn does not change the fast path:
      // helpers read the live table. Only static entries matter.
      bool dynamic = msg.attrs.at("dynamic").as_bool(true);
      refresh_neighbors();
      return !dynamic;
    }
    case nl::MsgType::kNewRule:
    case nl::MsgType::kDelRule:
      refresh_rules();
      return true;
    case nl::MsgType::kNewSet:
    case nl::MsgType::kDelSet:
      refresh_sets();
      return true;
    case nl::MsgType::kSysctl:
      view_.sysctls[msg.attrs.at("key").as_string()] =
          static_cast<int>(msg.attrs.at("value").as_int());
      return true;
    case nl::MsgType::kNewService:
    case nl::MsgType::kDelService:
      refresh_services();
      return true;
  }
  return false;
}

void ServiceIntrospection::apply_link(const util::Json& attrs, bool deleted) {
  if (deleted) {
    view_.links.erase(static_cast<int>(attrs.at("ifindex").as_int()));
    return;
  }
  LinkObject l = link_from_attrs(attrs);
  view_.links[l.ifindex] = std::move(l);
}

void ServiceIntrospection::refresh_routes() {
  if (!dump_ok()) return;
  view_.routes.clear();
  for (const nl::Message& m : bus_.dump(nl::DumpKind::kRoutes)) {
    RouteObject r;
    r.dst = m.attrs.at("dst").as_string();
    r.gateway = m.attrs.at("gateway").as_string();
    r.oif = static_cast<int>(m.attrs.at("oif").as_int());
    r.dev = m.attrs.at("dev").as_string();
    r.scope = m.attrs.at("scope").as_string();
    r.metric = static_cast<std::uint32_t>(m.attrs.at("metric").as_int());
    view_.routes.push_back(std::move(r));
  }
}

void ServiceIntrospection::refresh_rules() {
  if (!dump_ok()) return;
  view_.chains.clear();
  for (const nl::Message& m : bus_.dump(nl::DumpKind::kRules)) {
    ChainObject c;
    c.name = m.attrs.at("chain").as_string();
    c.builtin = m.attrs.at("builtin").as_bool();
    c.policy = m.attrs.at("policy").as_string();
    for (std::size_t i = 0; i < m.attrs.at("rules").size(); ++i) {
      c.rules.push_back(RuleObject{m.attrs.at("rules").at(i)});
    }
    view_.chains[c.name] = std::move(c);
  }
  view_.forward = summarize_forward(view_.chains);
}

void ServiceIntrospection::refresh_sets() {
  if (!dump_ok()) return;
  view_.sets.clear();
  for (const nl::Message& m : bus_.dump(nl::DumpKind::kSets)) {
    SetObject s;
    s.name = m.attrs.at("set").as_string();
    s.type = m.attrs.at("type").as_string();
    s.size = static_cast<std::size_t>(m.attrs.at("size").as_int());
    view_.sets[s.name] = std::move(s);
  }
}

void ServiceIntrospection::refresh_neighbors() {
  if (!dump_ok()) return;
  view_.neighbors.clear();
  for (const nl::Message& m : bus_.dump(nl::DumpKind::kNeighbors)) {
    NeighObject n;
    n.ip = m.attrs.at("ip").as_string();
    n.mac = m.attrs.at("mac").as_string();
    n.dev = m.attrs.at("dev").as_string();
    n.state = m.attrs.at("state").as_string();
    n.dynamic = m.attrs.at("dynamic").as_bool(true);
    view_.neighbors.push_back(std::move(n));
  }
}

void ServiceIntrospection::refresh_services() {
  if (!dump_ok()) return;
  view_.services.clear();
  for (const nl::Message& m : bus_.dump(nl::DumpKind::kServices)) {
    ServiceObject svc;
    svc.vip = m.attrs.at("vip").as_string();
    svc.port = static_cast<int>(m.attrs.at("port").as_int());
    svc.proto = static_cast<int>(m.attrs.at("proto").as_int());
    svc.scheduler = m.attrs.at("scheduler").as_string();
    svc.backend_count = m.attrs.at("backends").size();
    view_.services.push_back(std::move(svc));
  }
}

}  // namespace linuxfp::core
