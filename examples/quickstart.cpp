// Quickstart: aggregate one float tensor across 8 simulated workers through
// the programmable switch, exactly as an ML framework would call the library.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "core/allreduce.hpp"
#include "core/cluster.hpp"
#include "sim/rng.hpp"

using namespace switchml;

int main() {
  // 1. Describe the rack: 8 workers, 10 Gbps links, paper-tuned pool size.
  core::ClusterConfig config = core::ClusterConfig::for_rate(gbps(10), /*n_workers=*/8);
  core::Fabric cluster(config.fabric());

  // 2. Each worker contributes a gradient tensor (here: random values).
  const std::size_t d = 1 << 18; // 1 MB of float32 gradients
  sim::Rng rng = sim::Rng::stream(1, "quickstart");
  std::vector<std::vector<float>> gradients(8, std::vector<float>(d));
  for (auto& g : gradients)
    for (auto& v : g) v = static_cast<float>(rng.normal(0.0, 0.5));

  // 3. All-reduce: quantize (Theorem 2 scaling factor chosen automatically),
  //    stream 180-byte packets through the switch pool, dequantize.
  core::AllReduceOptions options;
  options.average = true; // model averaging: divide the sum by n
  const auto result = core::all_reduce(cluster, gradients, options);

  // 4. Inspect the outcome.
  std::printf("SwitchML quickstart\n");
  std::printf("  aggregated %zu elements across %d workers\n", d, cluster.n_workers());
  std::printf("  scaling factor f = %.3e (Theorem 1 error bound: %.3e per element)\n",
              result.scaling_factor, 8.0 / result.scaling_factor);
  std::printf("  tensor aggregation time: %.3f ms per worker (median)\n",
              to_msec(result.tat[0]));
  std::printf("  sample: worker0[0..3] = %.4f %.4f %.4f %.4f\n", result.outputs[0][0],
              result.outputs[0][1], result.outputs[0][2], result.outputs[0][3]);

  const auto& sw = cluster.root().counters();
  std::printf("  switch: %llu updates aggregated, %llu results multicast, %zu B of registers\n",
              static_cast<unsigned long long>(sw.updates_received),
              static_cast<unsigned long long>(sw.results_multicast),
              cluster.root().register_bytes());
  return 0;
}
