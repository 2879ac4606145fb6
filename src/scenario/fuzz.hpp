// Seeded scenario fuzzer for the chaos soak: generates valid-by-construction
// random scenarios across every topology shape and fault class, scaled to a
// measured clean-run horizon. Same seed, same scenario, bit-identical run —
// a soak failure reproduces from its seed alone.
#pragma once

#include <cstdint>

#include "scenario/scenario.hpp"

namespace switchml::scenario {

// A random fault-free scenario. `seed % 5` selects the topology shape (rack,
// multi_job, hierarchy, tree, irregular — in that order), so any 5 consecutive
// seeds cover all five; the rest of the seed drives sizes and fabric knobs.
// Always data mode (the soak asserts bit-exact convergence), small tensors,
// small aggregator pools (slot reuse under faults is the interesting regime),
// recovery budgets armed for single-job shapes and disabled for multi-job
// (Fabric's fallback collective rejects multi-job fabrics by design).
[[nodiscard]] Scenario fuzz_scenario(std::uint64_t seed);

// Adds a random-but-valid FaultPlan to `s`, with every time scaled to
// `horizon` (a clean run's max TAT, so faults land while traffic flows).
// Guarantees the PR 5 termination contract can hold:
//   * at most ONE flap spec (one-shot or cycle) per link, windows ending by
//     `horizon` — one-shot windows are also what the soak's zero-deliveries
//     assertion checks;
//   * flap cycles carry a bounded cycle count;
//   * switch kills only when the fallback path is armed (single job, one
//     reduction, dead_after > 0), and no switch restarts or kills on a
//     streaming-PS fabric, which has no aggregation switch;
//   * multi-job fabrics only target job 0's workers/links (the job the soak
//     reduces); the shared switch may still restart.
// All six fault classes are reachable across seeds.
void fuzz_faults(Scenario& s, std::uint64_t seed, Time horizon);

} // namespace switchml::scenario
