#include "core/cluster.hpp"

namespace switchml::core {

ClusterConfig ClusterConfig::for_rate(BitsPerSecond rate, int n_workers) {
  ClusterConfig c;
  c.n_workers = n_workers;
  c.link_rate = rate;
  c.nic = switchml_worker_nic(rate);
  c.pool_size = switchml_pool_size(rate);
  return c;
}

} // namespace switchml::core
