// §6 "scaling beyond a rack": hierarchically composed SwitchML across
// multiple racks. Each leaf switch aggregates its rack's workers and
// forwards ONE partial-aggregate packet per chunk upstream; the root
// completes the aggregation and multicasts down through the leaves.
// Demonstrates correctness (including under loss) and the d:1 uplink
// bandwidth reduction that makes the composition oversubscription-friendly.
#include <cstdio>

#include "core/fabric.hpp"
#include "sim/rng.hpp"

using namespace switchml;

int main() {
  const core::HierarchySpec shape{.racks = 4, .workers_per_rack = 4};
  core::FabricConfig cfg;
  cfg.topology = shape;
  cfg.pool_size = 32;
  cfg.loss_prob = 0.001; // a little loss everywhere, to exercise recovery
  core::Fabric cluster(cfg);

  const int n = cluster.n_workers();
  const std::size_t d = 64 * 1024;
  sim::Rng rng = sim::Rng::stream(7, "hier");
  std::vector<std::vector<std::int32_t>> updates(static_cast<std::size_t>(n),
                                                 std::vector<std::int32_t>(d));
  std::vector<std::int32_t> expected(d, 0);
  for (auto& u : updates)
    for (std::size_t i = 0; i < d; ++i) {
      u[i] = static_cast<std::int32_t>(rng.uniform_int(-1000, 1000));
      expected[i] += u[i];
    }

  std::printf("hierarchical SwitchML: %d racks x %d workers, 0.1%% loss on every link\n",
              shape.racks, shape.workers_per_rack);
  auto result = cluster.reduce_i32(updates);

  bool correct = true;
  for (int w = 0; w < n; ++w)
    if (result.outputs[static_cast<std::size_t>(w)] != expected) correct = false;
  std::printf("exact aggregate at all %d workers: %s\n", n, correct ? "YES" : "NO");
  std::printf("median TAT: %.3f ms\n\n", to_msec(result.tat[static_cast<std::size_t>(n / 2)]));

  const std::uint64_t chunks = d / 32;
  std::printf("bandwidth accounting (chunks = %llu):\n",
              static_cast<unsigned long long>(chunks));
  for (int r = 0; r < shape.racks; ++r) {
    const auto& c = cluster.switch_at(1 + static_cast<std::size_t>(r)).counters();
    std::printf("  leaf %d: %llu worker updates in -> %llu partials up (%.1f:1 reduction)\n", r,
                static_cast<unsigned long long>(c.updates_received),
                static_cast<unsigned long long>(c.upstream_partials),
                static_cast<double>(c.updates_received) /
                    static_cast<double>(c.upstream_partials));
  }
  const auto& root = cluster.root().counters();
  std::printf("  root: %llu partials in, %llu results multicast to %d leaves\n",
              static_cast<unsigned long long>(root.updates_received),
              static_cast<unsigned long long>(root.results_multicast), shape.racks);
  return correct ? 0 : 1;
}
