// Calibrated host/NIC/transport profiles for the testbed the paper evaluates
// (§5.1): dual-socket Xeon workers with Intel 82599ES NICs at 10 Gbps and
// Mellanox CX-5 NICs at 100 Gbps, DPDK workers using 4 cores.
//
// Absolute constants are calibration knobs for the simulator, chosen so the
// well-understood anchors of the paper hold:
//   * SwitchML saturates 10 Gbps with 4 cores but runs ~20% below line rate
//     at 100 Gbps (the paper's Flow-Director 4-core limitation, §5.1);
//   * optimal pool sizes land at 128 (10G) and 512 (100G) per §3.6;
//   * NCCL/Gloo software per-byte costs reproduce the relative ordering of
//     Fig 4 (NCCL > Gloo, both well below the ring line-rate bound).
#pragma once

#include "net/nic.hpp"
#include "net/reliable.hpp"

namespace switchml::core {

// --- SwitchML DPDK worker --------------------------------------------------

inline net::NicConfig switchml_worker_nic_10g(int cores = 4) {
  net::NicConfig nic;
  nic.cores = cores;
  nic.per_packet_tx = nsec(26);
  nic.per_packet_rx = nsec(26);
  nic.per_batch_overhead = nsec(320);
  nic.batch_size = 32;
  nic.tx_latency = usec(4); // burst accumulation at 10G
  nic.rx_latency = usec(4);
  return nic;
}

inline net::NicConfig switchml_worker_nic_100g(int cores = 4) {
  net::NicConfig nic = switchml_worker_nic_10g(cores);
  nic.tx_latency = nsec(2500); // CX-5: bursts fill ~10x faster
  nic.rx_latency = nsec(2500);
  return nic;
}

inline net::NicConfig switchml_worker_nic(BitsPerSecond rate, int cores = 4) {
  return rate >= gbps(100) ? switchml_worker_nic_100g(cores) : switchml_worker_nic_10g(cores);
}

// §3.6: the aggregator pool size measured best at each rate.
inline std::uint32_t switchml_pool_size(BitsPerSecond rate) {
  return rate >= gbps(100) ? 512 : 128;
}

// --- UDP-vs-RDMA crossover (bench/transport_crossover) ----------------------
//
// The calibrated worker NICs above carry the whole DPDK datapath cost in the
// per-packet term — exact for the 180-byte anchors, but it understates the
// per-byte packetization/copy work once packets grow toward the MTU. This
// profile adds that term explicitly (~0.35 ns/B ≈ 2.9 GB/s of touched bytes
// per core), which is what turns the UDP datapath CPU-bound at 100 Gbps with
// MTU frames — the regime where the paper's RDMA-UC transport, whose NIC
// DMAs and segments messages with zero per-byte CPU, pulls >2x ahead.
inline net::NicConfig crossover_udp_nic(BitsPerSecond rate, int cores = 4) {
  net::NicConfig nic = switchml_worker_nic(rate, cores);
  nic.per_byte_tx = 0.35;
  nic.per_byte_rx = 0.35;
  return nic;
}

// --- software parameter server (DPDK program running Algorithm 1, §5.3) ----

inline net::NicConfig ps_host_nic(BitsPerSecond rate, int cores = 4) {
  net::NicConfig nic = switchml_worker_nic(rate, cores);
  nic.per_packet_rx = nsec(34); // aggregation arithmetic in software
  return nic;
}

// --- collective-library host profiles (TCP/RDMA stacks) ---------------------

struct BaselineProfile {
  net::NicConfig nic;
  net::TransportProfile transport;
};

// Gloo over TCP: kernel stack, memcpy-heavy reduction path.
inline BaselineProfile gloo_tcp(BitsPerSecond rate) {
  BaselineProfile p;
  p.nic.cores = 4;
  p.nic.per_packet_tx = nsec(1200);
  p.nic.per_packet_rx = nsec(1500);
  p.nic.per_byte_tx = 0.25;
  p.nic.per_byte_rx = rate >= gbps(100) ? 0.45 : 1.4;
  p.nic.per_batch_overhead = 0;
  p.nic.batch_size = 1;
  // Kernel TCP under load: socket buffers + interrupt coalescing put the
  // end-to-end RTT in the hundreds of microseconds, which is what makes the
  // AIMD window collapse bite under random loss (Fig 5).
  p.nic.tx_latency = usec(150);
  p.nic.rx_latency = usec(150);
  p.transport.mss = 1460;
  p.transport.window_bytes = 1024 * 1024;
  p.transport.rto_initial = msec(4);
  return p;
}

// NCCL over TCP sockets: tighter datapath (direct GPU memory access).
inline BaselineProfile nccl_tcp(BitsPerSecond rate) {
  BaselineProfile p;
  p.nic.cores = 4;
  p.nic.per_packet_tx = nsec(400);
  p.nic.per_packet_rx = nsec(500);
  p.nic.per_byte_tx = 0.12;
  p.nic.per_byte_rx = rate >= gbps(100) ? 0.12 : 1.1;
  p.nic.per_batch_overhead = 0;
  p.nic.batch_size = 1;
  p.nic.tx_latency = usec(100);
  p.nic.rx_latency = usec(100);
  p.transport.mss = 1460;
  p.transport.window_bytes = 2 * 1024 * 1024;
  p.transport.rto_initial = msec(4);
  return p;
}

// Gloo over RDMA (§5.4: ~4x faster than Gloo TCP at 100 Gbps for 50 MB).
inline BaselineProfile gloo_rdma(BitsPerSecond rate) {
  BaselineProfile p;
  p.nic.cores = 4;
  p.nic.per_packet_tx = nsec(150);
  p.nic.per_packet_rx = nsec(150);
  p.nic.per_byte_tx = 0.05;
  p.nic.per_byte_rx = rate >= gbps(100) ? 0.45 : 0.6;
  p.nic.per_batch_overhead = 0;
  p.nic.batch_size = 1;
  p.nic.tx_latency = usec(2);
  p.nic.rx_latency = usec(2);
  p.transport.mss = 4096;
  p.transport.window_bytes = 4 * 1024 * 1024;
  p.transport.rto_initial = msec(4);
  return p;
}

// §3.6: optimal pool size is the next power of two of ceil(BDP / b).
inline std::uint32_t recommended_pool_size(BitsPerSecond rate, Time end_to_end_rtt,
                                           std::uint32_t packet_bytes) {
  const double bdp_bytes =
      static_cast<double>(rate) / 8.0 * (static_cast<double>(end_to_end_rtt) / kSecond);
  auto needed = static_cast<std::uint64_t>(bdp_bytes / packet_bytes) + 1;
  std::uint32_t s = 1;
  while (s < needed) s <<= 1;
  return s;
}

} // namespace switchml::core
