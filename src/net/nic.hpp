// Host NIC + CPU-core model.
//
// The paper's worker runs a DPDK run-to-completion loop on several cores
// (§4, Appendix B: 4 cores, Flow Director steering by slot index, batches of
// 32 packets). We model each core as a lane with a busy-until time: every
// transmitted or received packet occupies its lane for a fixed per-packet
// cost, with a per-batch overhead amortized over the batch size — or, on
// RDMA UC, for a per-message verbs cost (net/rdma_uc.hpp). Core contention
// is what produces (a) the RTT growth with pool size seen in Fig 2 and (b)
// the below-line-rate behaviour at 100 Gbps with only 4 cores (§5.1).
//
// A lane processes its received packets in arrival order, so it owns each
// one until its RX completion, in a PipeFifo (net/pipe_fifo.hpp) that
// recycles its chunks: a rolling lane allocates nothing. The completions
// ride the lane's ordered event stream, whose one handler hands the lane's
// front packet to the host's consume callback; an event carries no closure
// and no arg.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "net/packet.hpp"
#include "net/pipe_fifo.hpp"
#include "net/rdma_uc.hpp"
#include "sim/simulation.hpp"

namespace switchml::net {

struct NicConfig {
  int cores = 4;
  Time per_packet_tx = nsec(45);  // CPU cost to build + enqueue one packet
  Time per_packet_rx = nsec(45);  // CPU cost to process one received packet
  double per_byte_tx = 0.0;       // ns per payload byte (copies, reduction math)
  double per_byte_rx = 0.0;       // ns per payload byte
  Time per_batch_overhead = nsec(640); // DPDK burst-call overhead per batch
  int batch_size = 32;            // packets per DPDK burst
  // Fixed pipeline latency added to every packet (burst accumulation, PCIe,
  // driver queues). Pure delay: does NOT occupy a core, so it affects RTT
  // (and thus the optimal pool size, §3.6) but not throughput.
  Time tx_latency = usec(4);
  Time rx_latency = usec(4);
};

class HostNic {
public:
  // Takes a received packet once its lane has processed it, with the instant
  // the packet reached the NIC.
  using Consumer = std::function<void(Packet&&, Time arrived)>;

  // On RDMA UC the lanes charge `rdma`'s costs instead of `config`'s, and
  // `name` and `owner` label its counters and trace events.
  HostNic(sim::Simulation& simulation, const NicConfig& config, Consumer consume = nullptr,
          TransportKind transport = TransportKind::kUdp, const RdmaUcParams& rdma = {},
          const std::string& name = {}, NodeId owner = 0);
  // Its completion events hold its address.
  HostNic(const HostNic&) = delete;
  HostNic& operator=(const HostNic&) = delete;

  [[nodiscard]] int cores() const { return static_cast<int>(lanes_.size()); }
  [[nodiscard]] bool rdma() const { return rdma_.has_value(); }

  // Reserves DPDK/UDP TX processing time on `core` for a packet of
  // `wire_bytes` and returns the instant the packet is handed to the wire
  // (used as Link::send_from's earliest_start, so no extra simulator event is
  // needed on the TX path).
  Time tx_ready(int core, std::int64_t wire_bytes = 0);
  // The same for `p` on this NIC's transport.
  Time tx_ready(int core, const Packet& p);

  // Charges `core` for `p`, which arrived now, and keeps it until the
  // consume callback takes it. One simulator event per received packet.
  void receive(int core, Packet&& p);

  // Straggler emulation (fault injection): stretches every lane cost by
  // `factor` from now on. 1.0 restores normal speed and is exactly
  // cost-neutral (no rounding through the multiplier).
  void set_slowdown(double factor);

private:
  struct Arrival {
    Packet pkt;
    Time at = 0;
  };
  struct Lane {
    Time busy_until = 0;
    PipeFifo<Arrival> waiting; // in completion order
    sim::StreamId stream = 0;  // its RX completions
  };

  [[nodiscard]] Time base_cost(Time per_packet, double per_byte, std::int64_t bytes) const;
  Time occupy(Lane& lane, Time base);
  void complete(int core);

  sim::Simulation& sim_;
  NicConfig config_;
  Consumer consume_;
  std::optional<RdmaUc> rdma_; // engaged on an RDMA-UC host
  std::vector<Lane> lanes_;
  double slowdown_ = 1.0;
};

} // namespace switchml::net
