// Public float-level all-reduce API: the drop-in replacement the paper
// provides for Gloo/Horovod collectives (§4).
//
// This layer performs the worker-side numerical pipeline of §3.7/Appendix C:
//   float32 -> scale by f -> round to int32 -> (wire) -> sum at switch
//          -> int32 -> divide by f [-> divide by n for averaging]
// or, with WireFormat::Float16, the 16-bit path where values travel as
// halves and the switch converts to fixed point with lookup tables.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/fabric.hpp"

namespace switchml::core {

enum class WireFormat : std::uint8_t {
  Int32,   // 32-bit fixed point, conversion on workers (default deployment)
  Float16, // 16-bit floats on the wire, switch-side table conversion
  // Extension (Appendix C's compression direction): 8-bit fixed point with
  // UNBIASED stochastic rounding; 4x fewer wire bytes at higher variance.
  Int8Stochastic,
};

struct AllReduceOptions {
  double scaling_factor = 0.0; // <= 0: choose automatically per Theorem 2
  WireFormat wire = WireFormat::Int32;
  bool average = false; // divide the aggregate by n (model averaging)
};

struct AllReduceResult {
  std::vector<std::vector<float>> outputs; // per-worker aggregated tensors
  std::vector<Time> tat;                   // per-worker tensor aggregation time
  double scaling_factor = 0.0;             // the f actually used
};

// Synchronous all-reduce of one tensor per worker over the SwitchML fabric.
// inputs.size() must equal fabric.n_workers() and all tensors must have the
// same length.
AllReduceResult all_reduce(Fabric& fabric, const std::vector<std::vector<float>>& inputs,
                           const AllReduceOptions& options = {});

// Reference result for testing: exact float sum across workers.
std::vector<float> reference_sum(const std::vector<std::vector<float>>& inputs, bool average);

} // namespace switchml::core
