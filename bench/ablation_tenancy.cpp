// §6 multi-job (tenancy): several training jobs share one switch, each with
// its own admitted aggregator pool. Shows (a) per-job throughput is
// unaffected by concurrency — the paper's "resources used for one reduction
// are much less than 10% of switch capabilities" — and (b) the admission
// mechanism rejecting a job once the SRAM budget is exhausted.
#include <cstdio>

#include "bench_util.hpp"

using namespace switchml;
using namespace switchml::bench;

int main(int argc, char** argv) {
  const BenchScale scale = BenchScale::from_args(argc, argv, 1'000'000, 1);

  std::printf("=== Tenancy: concurrent jobs sharing one switch (10 Gbps, 4 workers/job) ===\n");
  Table table({"concurrent jobs", "per-job ATE/s (x1e6)", "switch SRAM used"});
  for (int jobs : {1, 2, 4, 8}) {
    core::FabricConfig cfg;
    cfg.topology = core::MultiJobSpec{.n_jobs = jobs, .workers_per_job = 4};
    core::Fabric cluster(cfg);
    auto tats = cluster.reduce_timing_all(scale.tensor_elems);
    Summary ate;
    for (const auto& job_tats : tats)
      for (Time t : job_tats)
        ate.add(static_cast<double>(scale.tensor_elems) / to_sec(t));
    char sram[32];
    std::snprintf(sram, sizeof sram, "%zu KiB",
                  cluster.root().register_bytes() / 1024);
    table.add_row({std::to_string(jobs), mega(ate.median()), sram});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Admission control: keep admitting 512-slot jobs until the budget is hit.
  std::printf("admission control against a 4 MiB SRAM budget (512-slot pools):\n");
  sim::Simulation sim;
  swprog::AggregationSwitch sw(sim, 1, "switch", swprog::AggregationConfig{});
  swprog::JobParams p;
  p.n_workers = 8;
  p.pool_size = 512;
  int admitted = 0;
  for (std::uint8_t j = 0; j < 64; ++j) {
    p.multicast_group = 1u + j;
    if (!sw.admit_job(j, p)) break;
    ++admitted;
  }
  std::printf("  %d jobs admitted, %zu KiB used, %zu KiB free -> job %d REJECTED\n", admitted,
              sw.register_bytes() / 1024, sw.sram_free_bytes() / 1024, admitted);
  return 0;
}
