// Table 1: training throughput (images/s) for inception3, resnet50 and vgg16
// in an 8-worker 10 Gbps setting, batch size 64, against (a) the calculated
// ideal (8x single-GPU), (b) the single-node 8-GPU configuration (published
// numbers from [55], constants), and (c) Horovod+NCCL.
//
// Two reproductions are printed:
//   * event-driven — the §4 layer-wise training simulation: per-layer
//     gradients enter the fabric in backward order, overlap and per-tensor
//     costs emerge from the protocol (SwitchML streams; NCCL uses
//     Horovod-style fusion over the TCP ring);
//   * closed-form — the analytic overlap model fed with measured ATE/s.
//
// Shape to reproduce: SwitchML ~ multi-GPU box for inception3, well above
// NCCL everywhere, with vgg16 the most communication-bound.
#include <cstdio>

#include "bench_util.hpp"
#include "framework/training_sim.hpp"
#include "perfmodel/training_model.hpp"

using namespace switchml;
using namespace switchml::bench;

int main(int argc, char** argv) {
  const bool fast = has_flag(argc, argv, "--fast");
  const BenchScale scale = BenchScale::from_args(argc, argv, 2'000'000, 2);
  const BitsPerSecond rate = gbps(10);
  const int workers = 8;
  const int batch = 64;

  framework::TrainingSimConfig sim_cfg;
  sim_cfg.n_workers = workers;
  sim_cfg.rate = rate;
  sim_cfg.batch = batch;
  sim_cfg.iterations = 3;
  sim_cfg.size_scale = fast ? 1.0 / 32 : 1.0 / 16;

  MetricsSidecar sidecar("table1_training_throughput_metrics.json");
  const TimelineRequest timeline_req = TimelineRequest::from_args(argc, argv, msec(1));
  BenchReport report("table1_training_throughput", argc, argv);

  const double sml_rate = measure_switchml(core::ClusterConfig::for_rate(rate, workers), scale,
                                           {&sidecar, "microbench.switchml"})
                              .ate_per_s;
  const double nccl_rate = measure_baseline(BaselineKind::NcclRing, rate, workers, scale, 0.0,
                                            {&sidecar, "microbench.nccl"})
                               .ate_per_s;
  report.add("microbench.switchml.ate_per_s", sml_rate);
  report.add("microbench.nccl.ate_per_s", nccl_rate);

  std::printf("=== Table 1: training throughput (images/s), 8 workers @ 10 Gbps, batch %d ===\n",
              batch);
  Table table({"model", "Ideal", "Multi-GPU [55]", "Horovod+NCCL", "SwitchML"});
  Table model_table({"model", "NCCL (closed-form)", "SwitchML (closed-form)"});
  for (const auto& row : perf::table1_rows()) {
    const auto& spec = perf::model(row.name);
    attach_sim_telemetry(sim_cfg, {&sidecar, std::string(row.name) + ".nccl", &timeline_req});
    const auto nccl_sim =
        framework::simulate_ring_training(spec, sim_cfg, core::nccl_tcp(rate));
    attach_sim_telemetry(sim_cfg, {&sidecar, std::string(row.name) + ".switchml", &timeline_req});
    const auto sml_sim = framework::simulate_switchml_training(spec, sim_cfg);
    report.add(std::string(row.name) + ".nccl.images_per_s", nccl_sim.images_per_s);
    report.add(std::string(row.name) + ".switchml.images_per_s", sml_sim.images_per_s);
    auto pct = [&](double v) {
      return Table::num(v, 0) + " (" + Table::num(v / row.ideal * 100, 1) + "%)";
    };
    table.add_row({row.name, Table::num(row.ideal, 0), pct(row.multi_gpu),
                   pct(nccl_sim.images_per_s), pct(sml_sim.images_per_s)});

    const auto nccl_cf = perf::estimate_training(spec, workers, nccl_rate, batch,
                                                 perf::kRingPerTensorOverheadS);
    const auto sml_cf = perf::estimate_training(spec, workers, sml_rate, batch,
                                                perf::kSwitchMlPerTensorOverheadS);
    model_table.add_row({row.name, pct(nccl_cf.images_per_s), pct(sml_cf.images_per_s)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("(event-driven layer-wise simulation; measured microbench ATE/s — SwitchML: "
              "%.0fM, NCCL: %.0fM)\n\n",
              sml_rate / 1e6, nccl_rate / 1e6);
  std::printf("closed-form overlap model for comparison:\n%s", model_table.to_string().c_str());
  const std::string written = sidecar.write();
  if (!written.empty()) std::printf("telemetry sidecar: %s\n", written.c_str());
  const std::string rep = report.write();
  if (!rep.empty()) std::printf("bench report: %s\n", rep.c_str());
  return 0;
}
