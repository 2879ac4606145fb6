#include "net/l2switch.hpp"

#include <stdexcept>

namespace switchml::net {

void L2Switch::attach(int port, Link& link) {
  links_[port] = &link;
  routes_[link.peer_of(*this).id()] = port;
}

void L2Switch::add_multicast_group(std::uint32_t group, std::vector<int> ports) {
  mcast_[group] = std::move(ports);
}

int L2Switch::port_of(NodeId dst) const {
  auto it = routes_.find(dst);
  if (it == routes_.end()) throw std::runtime_error(name() + ": no route to node " + std::to_string(dst));
  return it->second;
}

Link* L2Switch::link_at(int port) const {
  auto it = links_.find(port);
  return it == links_.end() ? nullptr : it->second;
}

void L2Switch::forward(Packet&& p) {
  Link* link = links_.at(port_of(p.dst));
  link->send_from(*this, std::move(p), sim_.now() + pipeline_latency_);
}

const std::vector<int>& L2Switch::group_ports(std::uint32_t group) const {
  auto it = mcast_.find(group);
  if (it == mcast_.end()) throw std::runtime_error(name() + ": unknown multicast group");
  return it->second;
}

void L2Switch::receive(Packet&& p, int /*port*/) { forward(std::move(p)); }

} // namespace switchml::net
