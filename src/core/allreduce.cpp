#include "core/allreduce.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "quant/fixed_point.hpp"
#include "quant/float16.hpp"

namespace switchml::core {

namespace {

double auto_scaling_factor(const std::vector<std::vector<float>>& inputs, int n,
                           WireFormat wire) {
  // Profile the gradients (Appendix C): bound B = max |entry| across workers,
  // then pick f with a 2x headroom below the no-overflow limit. For the
  // 16-bit wire format the binding constraint is the half-precision range of
  // the aggregated result (65504), not int32.
  float max_abs = 0.0f;
  for (const auto& t : inputs)
    for (float v : t) max_abs = std::max(max_abs, std::abs(v));
  if (max_abs == 0.0f) max_abs = 1.0f;
  const double b = static_cast<double>(max_abs) * 2.0;
  if (wire == WireFormat::Float16) return 65504.0 / (static_cast<double>(n) * b * 2.0);
  if (wire == WireFormat::Int8Stochastic)
    return quant::max_safe_scaling_factor_i8(static_cast<double>(max_abs));
  return quant::max_safe_scaling_factor(n, b);
}

std::uint8_t wire_bytes_for(WireFormat wire) {
  switch (wire) {
    case WireFormat::Int32: return 4;
    case WireFormat::Float16: return 2;
    case WireFormat::Int8Stochastic: return 1;
  }
  return 4;
}

} // namespace

std::vector<float> reference_sum(const std::vector<std::vector<float>>& inputs, bool average) {
  if (inputs.empty()) return {};
  std::vector<double> acc(inputs.front().size(), 0.0);
  for (const auto& t : inputs) {
    if (t.size() != acc.size()) throw std::invalid_argument("reference_sum: ragged inputs");
    for (std::size_t i = 0; i < t.size(); ++i) acc[i] += static_cast<double>(t[i]);
  }
  std::vector<float> out(acc.size());
  const double inv = average ? 1.0 / static_cast<double>(inputs.size()) : 1.0;
  for (std::size_t i = 0; i < acc.size(); ++i) out[i] = static_cast<float>(acc[i] * inv);
  return out;
}

AllReduceResult all_reduce(Fabric& fabric, const std::vector<std::vector<float>>& inputs,
                           const AllReduceOptions& options) {
  const int n = fabric.n_workers();
  if (static_cast<int>(inputs.size()) != n)
    throw std::invalid_argument("all_reduce: one input tensor per worker required");
  const std::size_t d = inputs.front().size();
  for (const auto& t : inputs)
    if (t.size() != d) throw std::invalid_argument("all_reduce: ragged inputs");

  if (wire_bytes_for(options.wire) != fabric.config().wire_elem_bytes)
    throw std::invalid_argument(
        "all_reduce: wire format must match the fabric's wire_elem_bytes "
        "(4 = Int32, 2 = Float16, 1 = Int8Stochastic)");

  AllReduceResult result;
  result.scaling_factor = options.scaling_factor > 0
                              ? options.scaling_factor
                              : auto_scaling_factor(inputs, n, options.wire);
  const double f = result.scaling_factor;

  // Worker-side quantization (the paper uses SSE/AVX here; see
  // bench/micro_quant for measured conversion rates).
  std::vector<std::vector<std::int32_t>> updates(static_cast<std::size_t>(n));
  if (options.wire == WireFormat::Int32) {
    for (int i = 0; i < n; ++i) updates[static_cast<std::size_t>(i)] = quant::quantize(inputs[static_cast<std::size_t>(i)], f);
  } else if (options.wire == WireFormat::Int8Stochastic) {
    sim::Rng rng = sim::Rng::stream(fabric.config().seed, "int8-dither");
    for (int i = 0; i < n; ++i) {
      auto& u = updates[static_cast<std::size_t>(i)];
      u.resize(d);
      quant::quantize_i8_stochastic(inputs[static_cast<std::size_t>(i)], f, u, rng);
    }
  } else {
    // fp16 wire: the worker scales and converts to binary16; the raw half
    // bit patterns travel on the wire and the SWITCH converts them to fixed
    // point with its ingress lookup tables (§3.7), aggregates, and converts
    // the sums back to halves at egress.
    for (int i = 0; i < n; ++i) {
      auto& u = updates[static_cast<std::size_t>(i)];
      u.resize(d);
      const auto& in = inputs[static_cast<std::size_t>(i)];
      for (std::size_t j = 0; j < d; ++j) {
        const quant::half h =
            quant::float_to_half(static_cast<float>(f * static_cast<double>(in[j])));
        u[j] = static_cast<std::int32_t>(h);
      }
    }
  }

  auto reduced = fabric.reduce_i32(updates);
  result.tat = std::move(reduced.tat);

  result.outputs.resize(static_cast<std::size_t>(n));
  const double post_scale = options.average ? 1.0 / static_cast<double>(n) : 1.0;
  for (int i = 0; i < n; ++i) {
    auto& out = result.outputs[static_cast<std::size_t>(i)];
    out.resize(d);
    const auto& sums = reduced.outputs[static_cast<std::size_t>(i)];
    if (options.wire == WireFormat::Int32 || options.wire == WireFormat::Int8Stochastic) {
      for (std::size_t j = 0; j < d; ++j)
        out[j] = static_cast<float>(static_cast<double>(sums[j]) / f * post_scale);
    } else {
      // The switch already converted the fixed-point sums back to binary16;
      // the worker just widens to float and unscales.
      for (std::size_t j = 0; j < d; ++j) {
        const float v = quant::half_to_float(static_cast<quant::half>(
            static_cast<std::uint32_t>(sums[j])));
        out[j] = static_cast<float>(static_cast<double>(v) / f * post_scale);
      }
    }
  }
  return result;
}

} // namespace switchml::core
