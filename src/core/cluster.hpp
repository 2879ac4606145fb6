// The §3.6 rack profile every bench starts from. Every deployment, this rack
// included, is a core::Fabric built from a FabricConfig (core/fabric.hpp).
#pragma once

#include "core/fabric.hpp"

namespace switchml::core {

// Rack-scale cluster (§1): n workers attached to one programmable
// aggregation switch, each over its own full-duplex link.
struct ClusterConfig : FabricParams {
  int n_workers = 8;

  // Convenience: profile for `rate` with the matching NIC and pool size.
  static ClusterConfig for_rate(BitsPerSecond rate, int n_workers = 8);

  [[nodiscard]] FabricConfig fabric() const {
    return FabricConfig(*this, RackSpec{n_workers});
  }
};

} // namespace switchml::core
