#include "collectives/baseline_cluster.hpp"

#include <stdexcept>

namespace switchml::collectives {

BaselineCluster::BaselineCluster(const BaselineClusterConfig& config) {
  if (config.n_hosts < 2) throw std::invalid_argument("BaselineCluster: need >= 2 hosts");
  // Hosts and links register their counters into this cluster's registry,
  // same as the SwitchML fabric does.
  MetricsRegistry::Scope scope(&metrics_);
  switch_ = std::make_unique<net::L2Switch>(sim_, 10'000, "fabric", config.switch_latency);

  net::LinkConfig lc;
  lc.rate = config.link_rate;
  lc.propagation = config.propagation;
  lc.queue_limit_bytes = config.queue_limit_bytes;
  lc.loss_prob = config.loss_prob;

  for (int i = 0; i < config.n_hosts; ++i) {
    auto h = std::make_unique<net::TransportHost>(sim_, static_cast<net::NodeId>(i),
                                                  "host-" + std::to_string(i), config.nic);
    auto link = std::make_unique<net::Link>(sim_, lc, *h, 0, *switch_, i,
                                            config.seed + static_cast<std::uint64_t>(i));
    h->set_uplink(*link);
    switch_->attach(i, *link);
    hosts_.push_back(std::move(h));
    links_.push_back(std::move(link));
  }
}

} // namespace switchml::collectives
