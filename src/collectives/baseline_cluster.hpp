// Topology builder for the baseline communication strategies: N transport
// hosts attached to a (non-programmable) L2 switch, the same star fabric the
// SwitchML cluster uses, so comparisons share link rates, propagation and
// switching latency.
#pragma once

#include <memory>
#include <vector>

#include "common/metrics.hpp"
#include "net/l2switch.hpp"
#include "net/reliable.hpp"

namespace switchml::collectives {

struct BaselineClusterConfig {
  int n_hosts = 8;
  BitsPerSecond link_rate = gbps(10);
  Time propagation = nsec(500);
  std::int64_t queue_limit_bytes = 16 * kMiB;
  double loss_prob = 0.0;
  net::NicConfig nic;
  Time switch_latency = nsec(400);
  std::uint64_t seed = 42;
};

class BaselineCluster {
public:
  explicit BaselineCluster(const BaselineClusterConfig& config);
  BaselineCluster(const BaselineCluster&) = delete;
  BaselineCluster& operator=(const BaselineCluster&) = delete;

  [[nodiscard]] sim::Simulation& simulation() { return sim_; }
  [[nodiscard]] int n_hosts() const { return static_cast<int>(hosts_.size()); }
  [[nodiscard]] net::TransportHost& host(int i) { return *hosts_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] net::L2Switch& fabric() { return *switch_; }
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }

private:
  MetricsRegistry metrics_;
  sim::Simulation sim_;
  std::unique_ptr<net::L2Switch> switch_;
  std::vector<std::unique_ptr<net::TransportHost>> hosts_;
  std::vector<std::unique_ptr<net::Link>> links_;
};

} // namespace switchml::collectives
