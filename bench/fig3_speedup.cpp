// Figure 3: end-to-end training speedup of SwitchML over the fastest
// TensorFlow baseline (Horovod + NCCL) for the nine benchmark DNNs, on
// 10 Gbps and 100 Gbps networks with 8 workers — computed with the
// event-driven layer-wise training simulation (see table1 bench header).
//
// Shape to reproduce: speedups between ~1.2x and ~3x, largest for the
// communication-bound models (vgg*, alexnet), smallest for compute-bound
// ones (inception4, googlenet).
#include <cstdio>

#include "bench_util.hpp"
#include "framework/training_sim.hpp"

using namespace switchml;
using namespace switchml::bench;

int main(int argc, char** argv) {
  const bool fast = has_flag(argc, argv, "--fast");
  const int workers = 8;
  MetricsSidecar sidecar("fig3_speedup_metrics.json");
  const TimelineRequest timeline_req = TimelineRequest::from_args(argc, argv, msec(1));
  BenchReport report("fig3_speedup", argc, argv);

  std::printf("=== Figure 3: training speedup vs NCCL, 8 workers (event-driven sim) ===\n");
  Table table({"model", "10 Gbps", "100 Gbps"});

  for (const auto& spec : perf::model_zoo()) {
    std::vector<std::string> cells{spec.name};
    for (BitsPerSecond rate : {gbps(10), gbps(100)}) {
      const std::string tag =
          std::string(spec.name) + "." + std::to_string(rate / kGbps) + "gbps";
      framework::TrainingSimConfig cfg;
      cfg.n_workers = workers;
      cfg.rate = rate;
      cfg.iterations = 3;
      cfg.size_scale = fast ? 1.0 / 32 : 1.0 / 16;
      attach_sim_telemetry(cfg, {&sidecar, tag + ".switchml", &timeline_req});
      const auto sml = framework::simulate_switchml_training(spec, cfg);
      attach_sim_telemetry(cfg, {&sidecar, tag + ".nccl", &timeline_req});
      const auto nccl = framework::simulate_ring_training(spec, cfg, core::nccl_tcp(rate));
      cells.push_back(Table::num(sml.images_per_s / nccl.images_per_s, 1) + "x");
      report.add(tag + ".switchml.images_per_s", sml.images_per_s);
      report.add(tag + ".nccl.images_per_s", nccl.images_per_s);
      report.add(tag + ".speedup", sml.images_per_s / nccl.images_per_s);
    }
    table.add_row(std::move(cells));
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("(paper reports 1.2x-3.0x at 10G and 1.2x-2.8x at 100G)\n");
  const std::string written = sidecar.write();
  if (!written.empty()) std::printf("telemetry sidecar: %s\n", written.c_str());
  const std::string rep = report.write();
  if (!rep.empty()) std::printf("bench report: %s\n", rep.c_str());
  return 0;
}
