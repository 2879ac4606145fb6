// Host NIC + CPU-core model.
//
// The paper's worker runs a DPDK run-to-completion loop on several cores
// (§4, Appendix B: 4 cores, Flow Director steering by slot index, batches of
// 32 packets). We model each core as a busy-until time: every transmitted or
// received packet occupies its owning core for a fixed per-packet cost, with
// a per-batch overhead amortized over the batch size. Core contention is what
// produces (a) the RTT growth with pool size seen in Fig 2 and (b) the
// below-line-rate behaviour at 100 Gbps with only 4 cores (§5.1).
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
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
  HostNic(sim::Simulation& simulation, const NicConfig& config);

  [[nodiscard]] int cores() const { return static_cast<int>(busy_.size()); }

  // Reserves TX processing time on `core` for a packet of `wire_bytes` and
  // returns the instant the packet is handed to the wire (used as
  // Link::send_from's earliest_start, so no extra simulator event is needed
  // on the TX path).
  Time tx_ready(int core, std::int64_t wire_bytes = 0);

  // Schedules `deliver` to run once `core` has processed a packet of
  // `wire_bytes` that arrived now. One simulator event per received packet;
  // the closure rides the simulator's allocation-free EventFn, so its
  // captures must fit sim::EventFn's inline buffer. A core finishes its
  // packets in arrival order, so each core's completions ride one ordered
  // event stream.
  void rx_process(int core, std::int64_t wire_bytes, sim::EventFn deliver);

  // Total CPU-busy nanoseconds accumulated across cores (for utilization
  // reporting).
  [[nodiscard]] Time total_busy() const { return total_busy_; }

  [[nodiscard]] const NicConfig& config() const { return config_; }

  // Straggler emulation (fault injection): stretches every per-packet /
  // per-byte CPU cost by `factor` from now on. 1.0 restores normal speed and
  // is exactly cost-neutral (no rounding through the multiplier).
  void set_slowdown(double factor);
  [[nodiscard]] double slowdown() const { return slowdown_; }

private:
  Time effective_cost(Time per_packet, double per_byte, std::int64_t bytes) const;
  Time occupy(int core, Time cost);

  sim::Simulation& sim_;
  NicConfig config_;
  std::vector<Time> busy_;
  sim::StreamId rx_stream0_ = 0; // core c's completions ride stream rx_stream0_ + c
  Time total_busy_ = 0;
  double slowdown_ = 1.0;
};

} // namespace switchml::net
