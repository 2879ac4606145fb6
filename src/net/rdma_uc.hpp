// RDMA UC channel model (the reference implementation's second transport).
//
// The client posts ONE work queue element per SwitchML message; the NIC
// segments it into path-MTU RoCE frames and DMAs the payload, so host CPU
// cost is per message (WQE post + amortized doorbell on TX, CQE reap on RX)
// and never per byte — the property that lets the paper's prototype exceed
// 2x NCCL at 100 Gbps where the DPDK/UDP datapath goes CPU-bound. UC means
// unreliable connected: the verbs layer has no ACKs and no retransmission;
// a lost message is repaired solely by SwitchML's own slot protocol
// (worker-side timers + switch seen bitmaps), exactly like a lost UDP packet.
//
// Lanes map to the same NIC cores the UDP path shards over (queue pairs
// pinned per core), and every CPU cost stretches with the owning HostNic's
// straggler slowdown factor so fault injection applies to both transports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/channel.hpp"

namespace switchml::net {

class RdmaUcChannel final : public Channel {
public:
  RdmaUcChannel(sim::Simulation& simulation, std::string name, NodeId owner, HostNic& nic,
                const RdmaUcParams& params);

  [[nodiscard]] TransportKind kind() const override { return TransportKind::kRdmaUc; }
  Time tx_ready(int lane, const Packet& p) override;
  void rx_process(int lane, const Packet& p, sim::EventFn deliver) override;

  struct Counters {
    std::uint64_t wqes_posted = 0;
    std::uint64_t doorbells = 0;
    std::uint64_t cqes_polled = 0;
    std::uint64_t wire_segments = 0; // path-MTU frames across all messages
    std::uint64_t payload_bytes = 0; // message bytes excluding RoCE framing
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] Time total_busy() const { return total_busy_; }

private:
  Time occupy(int lane, Time cost);
  [[nodiscard]] std::uint32_t segments_of(const Packet& p) const;

  sim::Simulation& sim_;
  std::string name_;
  NodeId owner_;
  HostNic& nic_; // lane count + straggler slowdown live on the host's NIC
  RdmaUcParams params_;
  std::vector<Time> busy_; // per-lane busy-until, like HostNic's cores
  sim::StreamId rx_stream0_ = 0; // lane l's completions ride stream rx_stream0_ + l
  Time total_busy_ = 0;
  std::uint64_t posts_since_doorbell_ = 0;
  Counters counters_;
};

} // namespace switchml::net
