// Figure 2: effect of the aggregator pool size s on tensor aggregation time
// (TAT) and per-packet RTT, 8 workers at 10 Gbps.
//
// Shape to reproduce: TAT decreases as s grows toward ceil(BDP/b) (§3.6),
// reaches the line-rate floor, and stays flat after that, while per-packet
// RTT keeps growing with s (extra in-flight packets only add queueing).
// The paper selects s=128 at 10 Gbps and s=512 at 100 Gbps.
#include <cstdio>

#include "bench_util.hpp"

using namespace switchml;
using namespace switchml::bench;

int main(int argc, char** argv) {
  const BenchScale scale = BenchScale::from_args(argc, argv, 4'000'000, 2);
  const std::uint64_t tensor_bytes = scale.tensor_elems * 4;
  MetricsSidecar sidecar("fig2_pool_size_metrics.json");
  const TimelineRequest timeline_req = TimelineRequest::from_args(argc, argv, msec(1));
  BenchReport report("fig2_pool_size", argc, argv);

  for (BitsPerSecond rate : {gbps(10), gbps(100)}) {
    std::printf("=== Figure 2: pool size sweep, %lld Gbps, tensor %.1f MB, 8 workers ===\n",
                static_cast<long long>(rate / kGbps),
                static_cast<double>(tensor_bytes) / 1e6);
    Table table({"pool size", "TAT [ms]", "RTT [us]", "TAT @ line rate [ms]"});
    const double line_ms =
        collectives::tat_seconds_at(
            collectives::switchml_ate_rate(rate, net::kDefaultElemsPerPacket),
            scale.tensor_elems) *
        1e3;
    for (std::uint32_t s : {32u, 64u, 128u, 256u, 512u, 1024u, 2048u, 4096u, 8192u, 16384u}) {
      const std::string label =
          std::to_string(rate / kGbps) + "gbps.pool-" + std::to_string(s);
      core::ClusterConfig cfg = core::ClusterConfig::for_rate(rate, 8);
      cfg.pool_size = s;
      auto r = measure_switchml(cfg, scale, {&sidecar, label, &timeline_req});
      table.add_row({std::to_string(s), Table::num(r.tat_ms), Table::num(r.rtt_us),
                     Table::num(line_ms)});
      report.add(label + ".tat_ms", r.tat_ms);
      report.add(label + ".rtt_us", r.rtt_us);
      report.add(label + ".rtt_p99_us", r.rtt_p99_us);
    }
    std::printf("%s", table.to_string().c_str());
    std::printf("(paper's deployed choice: s = %s; past the BDP, extra slots only add\n"
                " queueing RTT — and once RTT approaches the fixed 1 ms RTO, spurious\n"
                " retransmissions inflate TAT, which is precisely why §3.6 tunes s to the\n"
                " bandwidth-delay product instead of 'as large as fits')\n\n",
                rate >= gbps(100) ? "512" : "128");
  }
  const std::string written = sidecar.write();
  if (!written.empty()) std::printf("telemetry sidecar: %s\n", written.c_str());
  const std::string rep = report.write();
  if (!rep.empty()) std::printf("bench report: %s\n", rep.c_str());
  return 0;
}
