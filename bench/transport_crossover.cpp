// UDP-vs-RDMA transport crossover: where does the RDMA-UC channel model pull
// ahead of the DPDK/UDP datapath, and by how much?
//
// Sweeps link rate {10, 100} Gbps x message size {180 B UDP, MTU UDP,
// 4 KB RDMA messages} on the rack fabric (8 workers). The UDP arms use
// core::crossover_udp_nic, which adds the explicit per-byte packetization/
// copy cost the calibrated per-packet anchors fold away — the term that turns
// the UDP datapath CPU-bound once packets grow toward the MTU at 100 Gbps.
// The RDMA-UC arms post one WQE per 1024-element message and let the NIC DMA
// and segment it with zero per-byte CPU, so they stay wire-bound.
//
// Shape to reproduce: at 10 Gbps both transports saturate the link (ratio
// ~1x — the wire is the bottleneck, transport choice is immaterial); at
// 100 Gbps with large messages RDMA-UC sustains >= 2x the UDP goodput. The
// 100G ratio is a guarded metric AND a hard assertion: the bench exits
// non-zero if the crossover disappears.
#include <cstdio>

#include "bench_util.hpp"

using namespace switchml;
using namespace switchml::bench;

int main(int argc, char** argv) {
  const int workers = 8;
  const BenchScale scale = BenchScale::from_args(argc, argv);

  MetricsSidecar sidecar("transport_crossover_metrics.json");
  const TimelineRequest timeline_req = TimelineRequest::from_args(argc, argv, msec(1));
  BenchReport report("transport_crossover", argc, argv);

  std::printf("=== Transport crossover: UDP datapath vs RDMA-UC (8 workers) ===\n");
  std::printf("(UDP arms carry the explicit %.2f ns/B packetization cost; RDMA messages\n"
              " are %u elements, segmented by the NIC at %u-byte path MTU)\n\n",
              0.35, net::kRdmaElemsPerMessage, net::kRdmaMtuBytes);
  Table table({"rate", "UDP-180B [MATE/s]", "UDP-MTU [MATE/s]", "RDMA-UC [MATE/s]",
               "RDMA/UDP-MTU"});

  double ratio_10g = 0.0, ratio_100g = 0.0;
  for (const BitsPerSecond rate : {gbps(10), gbps(100)}) {
    const bool is_100g = rate >= gbps(100);
    const std::string tag = is_100g ? "100g." : "10g.";
    // One arm: the UDP arms run the crossover NIC profile with its explicit
    // per-byte datapath cost; packets beyond 32 elements make the switch
    // aggregate the first 32 and forward the rest.
    const auto arm = [&](net::TransportKind transport, std::uint32_t elems_per_packet,
                         const std::string& name) {
      core::ClusterConfig cfg = core::ClusterConfig::for_rate(rate, workers);
      cfg.transport = transport;
      if (transport == net::TransportKind::kUdp) cfg.nic = core::crossover_udp_nic(rate);
      if (elems_per_packet != net::kDefaultElemsPerPacket) {
        cfg.elems_per_packet = elems_per_packet;
        cfg.mtu_emulation = true;
      }
      return measure_switchml(cfg, scale, {&sidecar, tag + name, &timeline_req});
    };
    const auto udp_small = arm(net::TransportKind::kUdp, net::kDefaultElemsPerPacket, "udp-180");
    const auto udp_mtu = arm(net::TransportKind::kUdp, net::kMtuElemsPerPacket, "udp-mtu");
    const auto rdma = arm(net::TransportKind::kRdmaUc, net::kRdmaElemsPerMessage, "rdma-uc");

    report.add(tag + "udp-180.tat_ms", udp_small.tat_ms);
    report.add(tag + "udp-mtu.tat_ms", udp_mtu.tat_ms);
    report.add(tag + "rdma-uc.tat_ms", rdma.tat_ms);
    const double ratio = rdma.ate_per_s / udp_mtu.ate_per_s;
    report.add(tag + "rdma_over_udp_mtu", ratio);
    (is_100g ? ratio_100g : ratio_10g) = ratio;

    table.add_row({std::to_string(rate / gbps(1)) + " Gbps", mega(udp_small.ate_per_s),
                   mega(udp_mtu.ate_per_s), mega(rdma.ate_per_s), Table::num(ratio, 2)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("(crossover: %.2fx at 10 Gbps -> %.2fx at 100 Gbps)\n", ratio_10g, ratio_100g);

  const std::string written = sidecar.write();
  if (!written.empty()) std::printf("telemetry sidecar: %s\n", written.c_str());
  const std::string rep = report.write();
  if (!rep.empty()) std::printf("bench report: %s\n", rep.c_str());

  if (ratio_100g < 2.0) {
    std::fprintf(stderr,
                 "FAIL: RDMA-UC goodput is %.2fx UDP-MTU at 100 Gbps (expected >= 2x)\n",
                 ratio_100g);
    return 1;
  }
  return 0;
}
