// Figure 4: aggregated tensor elements per second (ATE/s) as the number of
// workers grows (4/8/16), on 10 and 100 Gbps networks, for SwitchML vs the
// all-reduce libraries (Gloo, NCCL) and PS strategies, with the line-rate
// bounds the paper plots as dashed lines. Also §5.4's Gloo-RDMA comparison.
//
// Paper's shape to reproduce: SwitchML is highest and flat in n; Dedicated PS
// roughly matches it (using 2x machines); Colocated PS reaches about half;
// NCCL > Gloo, both well below the ring bound and declining slightly with n.
#include <cstdio>

#include "bench_util.hpp"

using namespace switchml;
using namespace switchml::bench;

int main(int argc, char** argv) {
  const BenchScale scale = BenchScale::from_args(argc, argv, 2'000'000, 2);
  MetricsSidecar sidecar("fig4_ate_scaling_metrics.json");
  const TimelineRequest timeline_req = TimelineRequest::from_args(argc, argv, msec(1));
  BenchReport report("fig4_ate_scaling", argc, argv);

  for (BitsPerSecond rate : {gbps(10), gbps(100)}) {
    std::printf("=== Figure 4: ATE/s (x1e6), %lld Gbps, tensor %.1f MB ===\n",
                static_cast<long long>(rate / kGbps),
                static_cast<double>(scale.tensor_elems) * 4 / 1e6);
    Table table({"strategy", "n=4", "n=8", "n=16"});
    // The paper draws fig 4 as violins; the registry's per-worker tensor
    // completion histograms give the same spread (median [min, max] across
    // workers and reps), plus the merged per-packet p99 RTT tail.
    Table violin({"n", "SwitchML TAT [ms] (median [min, max])", "p99 RTT [us]"});

    const std::string gtag = std::to_string(rate / kGbps) + "gbps.";
    auto row = [&](const std::string& name, const std::string& tag, auto&& fn) {
      std::vector<std::string> cells{name};
      for (int n : {4, 8, 16}) {
        const std::string label = gtag + tag + "-n" + std::to_string(n);
        const RateResult r = fn(n, label);
        cells.push_back(mega(r.ate_per_s));
        report.add(label + ".ate_per_s", r.ate_per_s);
        if (tag == "switchml")
          violin.add_row({std::to_string(n),
                          Table::num(r.tat_p50_ms) + " [" + Table::num(r.tat_min_ms) + ", " +
                              Table::num(r.tat_max_ms) + "]",
                          Table::num(r.rtt_p99_us)});
      }
      table.add_row(std::move(cells));
    };

    row("SwitchML", "switchml", [&](int n, const std::string& label) {
      return measure_switchml(core::ClusterConfig::for_rate(rate, n), scale,
                              {&sidecar, label, &timeline_req});
    });
    row("Gloo", "gloo", [&](int n, const std::string& label) {
      return measure_baseline(BaselineKind::GlooRing, rate, n, scale, 0.0,
                              {&sidecar, label, &timeline_req});
    });
    row("NCCL", "nccl", [&](int n, const std::string& label) {
      return measure_baseline(BaselineKind::NcclRing, rate, n, scale, 0.0,
                              {&sidecar, label, &timeline_req});
    });
    row("Gloo-RDMA (5.4)", "gloo-rdma", [&](int n, const std::string& label) {
      return measure_baseline(BaselineKind::GlooRdmaRing, rate, n, scale, 0.0, {&sidecar, label});
    });
    row("Halving-doubling", "halvdoub", [&](int n, const std::string& label) {
      return measure_baseline(BaselineKind::HalvingDoubling, rate, n, scale, 0.0,
                              {&sidecar, label});
    });
    row("Dedicated PS", "dedicated-ps", [&](int n, const std::string& label) {
      return measure_baseline(BaselineKind::DedicatedPs, rate, n, scale, 0.0, {&sidecar, label});
    });
    row("Colocated PS", "colocated-ps", [&](int n, const std::string& label) {
      return measure_baseline(BaselineKind::ColocatedPs, rate, n, scale, 0.0, {&sidecar, label});
    });
    table.add_row({"line rate (SwitchML)",
                   mega(collectives::switchml_ate_rate(rate, net::kDefaultElemsPerPacket)),
                   mega(collectives::switchml_ate_rate(rate, net::kDefaultElemsPerPacket)),
                   mega(collectives::switchml_ate_rate(rate, net::kDefaultElemsPerPacket))});
    table.add_row({"line rate (ring)", mega(collectives::ring_ate_rate(rate, 4)),
                   mega(collectives::ring_ate_rate(rate, 8)),
                   mega(collectives::ring_ate_rate(rate, 16))});

    std::printf("%s", table.to_string().c_str());
    std::printf("(SwitchML line-rate bound: %selem/s, independent of n)\n\n",
                format_si(collectives::switchml_ate_rate(rate, net::kDefaultElemsPerPacket))
                    .c_str());
    std::printf("per-worker completion spread (registry histograms):\n%s\n",
                violin.to_string().c_str());
  }
  const std::string written = sidecar.write();
  if (!written.empty()) std::printf("telemetry sidecar: %s\n", written.c_str());
  const std::string rep = report.write();
  if (!rep.empty()) std::printf("bench report: %s\n", rep.c_str());
  return 0;
}
