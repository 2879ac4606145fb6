// Ablation (§5.1): worker CPU cores vs achievable aggregation rate at
// 100 Gbps. The paper is limited to 4 cores by a Flow Director bug and
// states its 100 Gbps numbers are therefore a lower bound; this sweep shows
// where the core count stops being the bottleneck.
#include <cstdio>

#include "bench_util.hpp"

using namespace switchml;
using namespace switchml::bench;

int main(int argc, char** argv) {
  const BenchScale scale = BenchScale::from_args(argc, argv, 2'000'000, 1);

  std::printf("=== Ablation: worker cores at 100 Gbps (8 workers) ===\n");
  Table table({"cores", "ATE/s (x1e6)", "% of line rate"});
  const double line = collectives::switchml_ate_rate(gbps(100), net::kDefaultElemsPerPacket);
  for (int cores : {1, 2, 4, 8, 16}) {
    core::ClusterConfig cfg = core::ClusterConfig::for_rate(gbps(100), 8);
    cfg.timing_only = true;
    cfg.nic = core::switchml_worker_nic_100g(cores);
    core::Fabric cluster(cfg.fabric());
    Summary tat_ms;
    for (int r = 0; r < scale.repetitions; ++r) {
      auto tats = cluster.reduce_timing(scale.tensor_elems);
      for (Time t : tats) tat_ms.add(to_msec(t));
    }
    const double ate = static_cast<double>(scale.tensor_elems) / (tat_ms.median() / 1e3);
    table.add_row({std::to_string(cores), mega(ate), Table::num(ate / line * 100, 1) + "%"});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("(the paper's testbed was pinned at 4 cores; §5.1 calls those numbers a lower bound)\n");
  return 0;
}
