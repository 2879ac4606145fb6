#include "net/nic.hpp"

#include <algorithm>
#include <stdexcept>

namespace switchml::net {

HostNic::HostNic(sim::Simulation& simulation, const NicConfig& config, Consumer consume,
                 TransportKind transport, const RdmaUcParams& rdma, const std::string& name,
                 NodeId owner)
    : sim_(simulation), config_(config), consume_(std::move(consume)) {
  if (config.cores < 1) throw std::invalid_argument("HostNic: cores must be >= 1");
  if (config.batch_size < 1) throw std::invalid_argument("HostNic: batch_size must be >= 1");
  lanes_.resize(static_cast<std::size_t>(config.cores));
  for (int core = 0; core < config.cores; ++core)
    lanes_[static_cast<std::size_t>(core)].stream =
        simulation.open_stream([this, core](std::uint64_t) { complete(core); });
  if (transport == TransportKind::kRdmaUc) rdma_.emplace(name, owner, rdma);
}

void HostNic::set_slowdown(double factor) {
  if (factor <= 0.0) throw std::invalid_argument("HostNic::set_slowdown: factor must be > 0");
  slowdown_ = factor;
}

Time HostNic::base_cost(Time per_packet, double per_byte, std::int64_t bytes) const {
  // The amortized batch term is computed in double alongside per_byte:
  // per_batch_overhead / batch_size on Time was integer division, silently
  // dropping the sub-ns remainder whenever the overhead is not a multiple of
  // the batch size (e.g. 1000ns/16 charged 62, not 62.5).
  return per_packet + static_cast<Time>(per_byte * static_cast<double>(bytes) +
                                        static_cast<double>(config_.per_batch_overhead) /
                                            static_cast<double>(config_.batch_size));
}

Time HostNic::occupy(Lane& lane, Time base) {
  const Time cost =
      slowdown_ == 1.0 ? base : static_cast<Time>(static_cast<double>(base) * slowdown_);
  lane.busy_until = std::max(sim_.now(), lane.busy_until) + cost;
  return lane.busy_until;
}

Time HostNic::tx_ready(int core, std::int64_t wire_bytes) {
  return occupy(lanes_.at(static_cast<std::size_t>(core)),
                base_cost(config_.per_packet_tx, config_.per_byte_tx, wire_bytes)) +
         config_.tx_latency;
}

Time HostNic::tx_ready(int core, const Packet& p) {
  if (!rdma_) return tx_ready(core, p.wire_bytes());
  const Time cost = rdma_->post(core, p, sim_.now());
  return occupy(lanes_.at(static_cast<std::size_t>(core)), cost) + rdma_->params().tx_latency;
}

void HostNic::receive(int core, Packet&& p) {
  Lane& lane = lanes_.at(static_cast<std::size_t>(core));
  const Time done =
      rdma_ ? occupy(lane, rdma_->reap(core, p, sim_.now())) + rdma_->params().rx_latency
            : occupy(lane, base_cost(config_.per_packet_rx, config_.per_byte_rx, p.wire_bytes())) +
                  config_.rx_latency;
  lane.waiting.emplace_back(std::move(p), sim_.now());
  // busy_until never decreases and the latency is fixed, so a lane's
  // completions are pushed in time order and pop in the order they were
  // queued: each one's packet is the lane's front.
  sim_.schedule_on(lane.stream, done, 0);
}

void HostNic::complete(int core) {
  // The consumer may queue more packets on this lane (a colocated PS shard
  // answering its own worker); appending keeps the front where it is.
  PipeFifo<Arrival>& waiting = lanes_[static_cast<std::size_t>(core)].waiting;
  consume_(std::move(waiting.front().pkt), waiting.front().at);
  waiting.pop_front();
}

} // namespace switchml::net
