// Ablation (§6): hierarchical multi-rack composition. Compares a flat
// 16-worker rack against 2 racks x 8 workers with leaf switches aggregating
// before one root, and reports the uplink traffic reduction: every leaf
// sends ONE partial-aggregate stream upstream regardless of its worker
// count, which is what makes the composition bandwidth-optimal and tolerant
// of p:1 oversubscription.
#include <cstdio>

#include "bench_util.hpp"

using namespace switchml;
using namespace switchml::bench;

int main(int argc, char** argv) {
  const BenchScale scale = BenchScale::from_args(argc, argv, 2'000'000, 1);

  std::printf("=== Ablation: hierarchical composition (§6) ===\n");
  Table table({"topology", "workers", "TAT [ms]", "ATE/s (x1e6)", "root-link packets"});

  {
    auto flat = measure_switchml(core::ClusterConfig::for_rate(gbps(10), 16), scale);
    table.add_row({"flat (1 switch)", "16", Table::num(flat.tat_ms), mega(flat.ate_per_s), "-"});
  }
  for (int racks : {2, 4}) {
    core::FabricConfig cfg;
    cfg.topology = core::HierarchySpec{.racks = racks, .workers_per_rack = 16 / racks};
    cfg.timing_only = true;
    cfg.nic = core::switchml_worker_nic_10g();
    core::Fabric h(cfg);
    Summary tat_ms;
    for (int r = 0; r < scale.repetitions; ++r) {
      auto tats = h.reduce_timing(scale.tensor_elems);
      for (Time t : tats) tat_ms.add(to_msec(t));
    }
    const double ate = static_cast<double>(scale.tensor_elems) / (tat_ms.median() / 1e3);
    table.add_row({std::to_string(racks) + " racks x " + std::to_string(16 / racks),
                   "16", Table::num(tat_ms.median()), mega(ate),
                   std::to_string(h.switch_at(1).counters().upstream_partials) + " per leaf"});
  }
  {
    // §6's H > 2 case: a 3-level tree (root -> 2 internal -> 4 racks x 4).
    core::FabricConfig cfg;
    cfg.topology = core::TreeSpec{.levels = 3, .branching = 2, .workers_per_rack = 4};
    cfg.timing_only = true;
    cfg.nic = core::switchml_worker_nic_10g();
    core::Fabric tree(cfg);
    Summary tat_ms;
    for (int r = 0; r < scale.repetitions; ++r) {
      auto tats = tree.reduce_timing(scale.tensor_elems);
      for (Time t : tats) tat_ms.add(to_msec(t));
    }
    const double ate = static_cast<double>(scale.tensor_elems) / (tat_ms.median() / 1e3);
    table.add_row({"3-level tree (2x2x4)", "16", Table::num(tat_ms.median()), mega(ate),
                   std::to_string(tree.switch_at(1).counters().upstream_partials) +
                       " per subtree"});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("(each leaf forwards one 180-B packet per aggregated chunk upstream,\n"
              " independent of its worker count: d:1 bandwidth reduction at every level)\n");
  return 0;
}
