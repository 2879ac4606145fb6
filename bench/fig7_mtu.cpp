// Figure 7: TAT as tensor size grows (50..500 MB), comparing SwitchML's
// 180-byte packets with the "enhanced baseline" that emulates MTU-sized
// packets (366 elements, 1516 bytes — the switch aggregates the first 32 and
// forwards the rest, §5.5) and a Dedicated PS using MTU-sized packets.
//
// Shape to reproduce: SwitchML pays only a modest cost (the 28.9% vs 3.4%
// header overhead) for using packets an order of magnitude smaller; the MTU
// emulation improves TAT by ~31.6%.
#include <cstdio>

#include "bench_util.hpp"

using namespace switchml;
using namespace switchml::bench;

int main(int argc, char** argv) {
  const bool fast = has_flag(argc, argv, "--fast");
  const BitsPerSecond rate = gbps(10);
  const int workers = 8;
  // Paper sweeps 50..500 MB; ATE rate is size-independent, so we sweep the
  // same shape at 1/10 scale by default to keep the runs short.
  const double size_scale = fast ? 0.02 : 0.1;

  MetricsSidecar sidecar("fig7_mtu_metrics.json");
  const TimelineRequest timeline_req = TimelineRequest::from_args(argc, argv, msec(1));
  BenchReport report("fig7_mtu", argc, argv);

  std::printf("=== Figure 7: TAT vs tensor size (10 Gbps, 8 workers) ===\n");
  std::printf("(tensor sizes scaled by %.2fx; TAT scales linearly in size)\n\n", size_scale);
  Table table({"tensor", "SwitchML [ms]", "SwitchML(MTU) [ms]", "Dedicated PS(MTU) [ms]",
               "line rate [ms]", "line rate MTU [ms]"});

  for (std::int64_t mb : {50, 100, 250, 500}) {
    const auto elems =
        static_cast<std::uint64_t>(static_cast<double>(mb) * 1e6 / 4.0 * size_scale);
    BenchScale scale{elems, 1};
    const std::string tag = std::to_string(mb) + "mb.";
    core::ClusterConfig cfg = core::ClusterConfig::for_rate(rate, workers);
    const auto sml = measure_switchml(cfg, scale, {&sidecar, tag + "switchml", &timeline_req});
    cfg.elems_per_packet = net::kMtuElemsPerPacket;
    cfg.mtu_emulation = true;
    const auto sml_mtu =
        measure_switchml(cfg, scale, {&sidecar, tag + "switchml-mtu", &timeline_req});
    const auto ps_mtu = measure_baseline(BaselineKind::DedicatedPsMtu, rate, workers, scale, 0.0,
                                         {&sidecar, tag + "dedicated-ps-mtu", &timeline_req});
    report.add(tag + "switchml.tat_ms", sml.tat_ms);
    report.add(tag + "switchml-mtu.tat_ms", sml_mtu.tat_ms);
    report.add(tag + "dedicated-ps-mtu.tat_ms", ps_mtu.tat_ms);
    const double line_ms =
        collectives::tat_seconds_at(
            collectives::switchml_ate_rate(rate, net::kDefaultElemsPerPacket), elems) * 1e3;
    const double line_mtu_ms =
        collectives::tat_seconds_at(
            collectives::switchml_ate_rate(rate, net::kMtuElemsPerPacket), elems) * 1e3;
    table.add_row({std::to_string(mb) + " MB", Table::num(sml.tat_ms),
                   Table::num(sml_mtu.tat_ms), Table::num(ps_mtu.tat_ms),
                   Table::num(line_ms), Table::num(line_mtu_ms)});
  }
  std::printf("%s", table.to_string().c_str());

  const double overhead_small = 1.0 - 128.0 / 180.0;
  const double overhead_mtu = 1.0 - 1464.0 / 1516.0;
  std::printf("(header overhead: %.1f%% at 180 B vs %.1f%% at MTU)\n", overhead_small * 100,
              overhead_mtu * 100);
  const std::string written = sidecar.write();
  if (!written.empty()) std::printf("telemetry sidecar: %s\n", written.c_str());
  const std::string rep = report.write();
  if (!rep.empty()) std::printf("bench report: %s\n", rep.c_str());
  return 0;
}
