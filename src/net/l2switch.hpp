// Baseline L2 switch: destination-based forwarding plus multicast groups,
// with a constant dataplane pipeline latency. The SwitchML switch composes
// this for its non-aggregation traffic and for the traffic-manager multicast.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"

namespace switchml::net {

class L2Switch : public Node {
public:
  L2Switch(sim::Simulation& simulation, NodeId id, std::string name,
           Time pipeline_latency = nsec(400))
      : Node(simulation, id, std::move(name)), pipeline_latency_(pipeline_latency) {}

  // Wires `link` to switch port `port`. The link's other endpoint's node id
  // is learned into the forwarding table.
  void attach(int port, Link& link);

  void add_multicast_group(std::uint32_t group, std::vector<int> ports);

  void receive(Packet&& p, int port) override;

  // Unicast toward `dst` (used by subclasses).
  void forward(Packet&& p);

  // Replicate to all ports of `group` (traffic-manager multicast); `edit(copy,
  // i)` rewrites the copy for the group's i-th port after its dst is set.
  void multicast(std::uint32_t group, const Packet& p) {
    multicast(group, p, [](Packet&, std::size_t) {});
  }
  template <class Edit>
  void multicast(std::uint32_t group, const Packet& p, Edit edit) {
    const Time ready = sim_.now() + pipeline_latency_;
    const std::vector<int>& ports = group_ports(group);
    for (std::size_t i = 0; i < ports.size(); ++i) {
      Packet copy = p;
      Link* link = links_.at(ports[i]);
      copy.dst = link->peer_of(*this).id();
      edit(copy, i);
      link->send_from(*this, std::move(copy), ready);
    }
  }

  [[nodiscard]] Time pipeline_latency() const { return pipeline_latency_; }
  [[nodiscard]] int port_of(NodeId dst) const;
  [[nodiscard]] Link* link_at(int port) const;
  // The member ports of `group`, in the order they were registered (the
  // fabric registers them in local-worker-index order). Throws for an
  // unknown group, as multicast() does.
  [[nodiscard]] const std::vector<int>& group_ports(std::uint32_t group) const;

private:
  Time pipeline_latency_;
  std::unordered_map<int, Link*> links_;
  std::unordered_map<NodeId, int> routes_;
  std::unordered_map<std::uint32_t, std::vector<int>> mcast_;
};

} // namespace switchml::net
