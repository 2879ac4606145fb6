// RDMA UC transport costs (the reference implementation's second transport).
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
// These are costs only: they are charged on the host's HostNic lanes
// (net/nic.hpp), queue pairs pinned per core like the UDP path's cores, so
// the lane's busy-until, its RX completions and the straggler slowdown are
// the NIC's for both transports.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.hpp"
#include "net/packet.hpp"

namespace switchml::net {

// Cost knobs for the RDMA-UC transport. Defaults are calibrated against
// published verbs microbenchmarks: posting a WQE is tens of ns, the MMIO
// doorbell costs a PCIe write amortized over a batch of posts, and reaping a
// CQE is another few tens of ns. tx/rx_latency is the PCIe DMA + NIC
// segmentation pipeline (pure delay, holds no core).
struct RdmaUcParams {
  Time wqe_post = nsec(40);    // CPU: build + post one work queue element
  Time doorbell = nsec(200);   // CPU: MMIO doorbell write (amortized)
  int doorbell_batch = 8;      // WQE posts rung per doorbell
  Time cqe_poll = nsec(40);    // CPU: poll + reap one completion
  Time tx_latency = nsec(900); // DMA read + segmentation pipeline
  Time rx_latency = nsec(900); // scatter DMA + completion delivery
};

// One host's verbs costs and framing counters. Registers
// "<name>.rdma.{wqes_posted,doorbells,cqes_polled,wire_segments,
// payload_bytes}"; `owner` tags the `wqe_post` and `cqe` trace events.
class RdmaUc {
public:
  RdmaUc(const std::string& name, NodeId owner, const RdmaUcParams& params);
  RdmaUc(const RdmaUc&) = delete;
  RdmaUc& operator=(const RdmaUc&) = delete;

  [[nodiscard]] const RdmaUcParams& params() const { return params_; }

  // Posts `p` as one message on `lane` at `now` and returns its CPU cost:
  // one WQE plus its share of a doorbell; the NIC segments it, so there is
  // no per-byte or per-segment term.
  Time post(int lane, const Packet& p, Time now);
  // Reaps the completion of a message received on `lane` at `now` and
  // returns its CPU cost.
  Time reap(int lane, const Packet& p, Time now);

private:
  [[nodiscard]] static std::uint32_t segments_of(const Packet& p);

  struct Counters {
    std::uint64_t wqes_posted = 0;
    std::uint64_t doorbells = 0;
    std::uint64_t cqes_polled = 0;
    std::uint64_t wire_segments = 0; // path-MTU frames across all messages
    std::uint64_t payload_bytes = 0; // message bytes excluding RoCE framing
  };

  NodeId owner_;
  RdmaUcParams params_;
  std::uint64_t posts_since_doorbell_ = 0;
  Counters counters_;
};

} // namespace switchml::net
