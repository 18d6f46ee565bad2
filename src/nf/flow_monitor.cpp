#include "nf/flow_monitor.hpp"

#include "click/elements.hpp"
#include "click/registry.hpp"
#include "net/packet_builder.hpp"

namespace mdp::nf {

bool FlowMonitor::configure(const std::vector<std::string>& args,
                            std::string* err) {
  std::size_t max_flows = kReplicaFlowCapacity;
  if (args.size() > 1 ||
      (args.size() == 1 &&
       (!click::parse_size_arg(args[0], &max_flows) || max_flows == 0))) {
    *err = "FlowMonitor(MAX_FLOWS)";
    return false;
  }
  core_.emplace(max_flows);
  return true;
}

net::PacketPtr FlowMonitor::simple_action(net::PacketPtr pkt) {
  auto parsed = net::parse(*pkt);
  if (parsed)
    core_->record(parsed->flow, pkt->length(), pkt->anno().ingress_ns);
  return pkt;
}

MDP_REGISTER_ELEMENT(FlowMonitor, "FlowMonitor");

}  // namespace mdp::nf
