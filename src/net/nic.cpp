#include "net/nic.hpp"

#include <algorithm>
#include <stdexcept>

namespace switchml::net {

HostNic::HostNic(sim::Simulation& simulation, const NicConfig& config)
    : sim_(simulation), config_(config) {
  if (config.cores < 1) throw std::invalid_argument("HostNic: cores must be >= 1");
  if (config.batch_size < 1) throw std::invalid_argument("HostNic: batch_size must be >= 1");
  busy_.assign(static_cast<std::size_t>(config.cores), 0);
  rx_stream0_ = simulation.open_streams(static_cast<std::uint32_t>(config.cores));
}

void HostNic::set_slowdown(double factor) {
  if (factor <= 0.0) throw std::invalid_argument("HostNic::set_slowdown: factor must be > 0");
  slowdown_ = factor;
}

Time HostNic::effective_cost(Time per_packet, double per_byte, std::int64_t bytes) const {
  // The amortized batch term is computed in double alongside per_byte:
  // per_batch_overhead / batch_size on Time was integer division, silently
  // dropping the sub-ns remainder whenever the overhead is not a multiple of
  // the batch size (e.g. 1000ns/16 charged 62, not 62.5).
  const Time base =
      per_packet + static_cast<Time>(per_byte * static_cast<double>(bytes) +
                                     static_cast<double>(config_.per_batch_overhead) /
                                         static_cast<double>(config_.batch_size));
  if (slowdown_ == 1.0) return base;
  return static_cast<Time>(static_cast<double>(base) * slowdown_);
}

Time HostNic::occupy(int core, Time cost) {
  auto& b = busy_.at(static_cast<std::size_t>(core));
  const Time start = std::max(sim_.now(), b);
  b = start + cost;
  total_busy_ += cost;
  return b;
}

Time HostNic::tx_ready(int core, std::int64_t wire_bytes) {
  return occupy(core, effective_cost(config_.per_packet_tx, config_.per_byte_tx, wire_bytes)) +
         config_.tx_latency;
}

void HostNic::rx_process(int core, std::int64_t wire_bytes, sim::EventFn deliver) {
  const Time done =
      occupy(core, effective_cost(config_.per_packet_rx, config_.per_byte_rx, wire_bytes));
  sim_.schedule_on(rx_stream0_ + static_cast<sim::StreamId>(core), done + config_.rx_latency,
                   std::move(deliver));
}

} // namespace switchml::net
