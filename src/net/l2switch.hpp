// Baseline L2 switch: destination-based forwarding plus multicast groups,
// with a constant dataplane pipeline latency. The SwitchML switch composes
// this for its non-aggregation traffic and for the traffic-manager multicast.
#pragma once

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
  // Replicate to all ports of `group` (traffic-manager multicast).
  void multicast(std::uint32_t group, const Packet& p);

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
