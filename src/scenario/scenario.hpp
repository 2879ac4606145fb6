// Declarative scenario engine: one schema-versioned JSON file describes one
// whole experiment — fabric parameters, a topology (any TopologySpec shape,
// including the explicit-adjacency IrregularSpec), a full FaultPlan, and a
// workload section — and `run()` executes it on the unified fabric.
//
// The loader is strict by design (the corpus doubles as documentation, so a
// silently-ignored typo would teach the wrong schema):
//   * unknown keys are rejected, naming the key, its JSON path, and the keys
//     that ARE valid there;
//   * every type/range error is JSON-path-qualified ("$.faults.flap_cycles[2]
//     .duty_down: ..."): an integer must fit its member, and each key has
//     the range its row in scenario.cpp gives; fault-plan errors reuse the
//     messages of core::validate_fault_plan, which runs eagerly at load time
//     against shape_counts() — no fabric build needed to reject a plan;
//   * `to_json` emits the fully-resolved (normalized) form, and
//     load(to_json(s)) round-trips to an identical document —
//     ScenarioRoundTrip.NormalizedFormIsAFixedPoint and the scenario soak pin
//     that.
//
// Schema reference lives in DESIGN.md ("Scenario engine"); the committed
// corpus under scenarios/ holds one file per ported bench configuration, each
// its own normal form.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "core/fabric.hpp"
#include "core/fault.hpp"

namespace switchml::scenario {

// Which calibrated NIC profile (core/profiles.hpp) the fabric's workers use;
// kept symbolic (not a resolved NicConfig) so a scenario re-emits the
// profile name it was written with.
enum class NicProfile : std::uint8_t { kSwitchml, kCrossoverUdp, kPsHost };

struct NicSelection {
  NicProfile profile = NicProfile::kSwitchml;
  int cores = 4;
};

struct Workload {
  bool timing = true; // "timing" (TAT only) or "data" (bit-exact int32 sums)
  std::uint64_t tensor_elems = 256 * 1024;
  int reductions = 1;          // back-to-back reductions on ONE fabric
  std::uint64_t data_seed = 1; // update-generator seed (data mode)
};

struct Scenario {
  static constexpr int kSchemaVersion = 1;

  std::string name;
  std::string description;
  // Resolved fabric parameters, including `faults` (the full FaultPlan) and
  // the NIC resolved from `nic_selection`. timing_only is derived from the
  // workload at run()/to_fabric_config() time, never stored in the file.
  core::FabricParams fabric;
  NicSelection nic_selection;
  core::TopologySpec topology = core::RackSpec{};
  Workload workload;
};

// Worker/link/switch counts of a TopologySpec WITHOUT building the fabric,
// read off core::lower_topology (a streaming PS: 0 switches, n links
// colocated, 2n dedicated) — what the loader validates a FaultPlan's indices
// against. (Link indices: on every shape, link w is worker w's uplink, then
// the switch uplinks, or the PS uplinks, follow in order — see
// core/fabric.hpp.) Throws std::invalid_argument on an invalid shape.
[[nodiscard]] core::FaultTargets shape_counts(const core::TopologySpec& topology);

// --- load/store --------------------------------------------------------------

// Throws json::ParseError (malformed JSON, with line/column) or
// std::invalid_argument (schema violations, with the "$."-rooted JSON path).
[[nodiscard]] Scenario load_file(const std::string& path);
[[nodiscard]] Scenario load_string(std::string_view text);
[[nodiscard]] Scenario from_json(const json::Value& doc);

// Normalized form: every fabric/workload field explicit, fault arrays only
// when non-empty. load(to_json(s)) == s and re-emits identically.
[[nodiscard]] json::Value to_json(const Scenario& s);

// The FabricConfig `run` builds (timing_only derived from the workload).
[[nodiscard]] core::FabricConfig to_fabric_config(const Scenario& s);

// --- data-mode workload ------------------------------------------------------

// Deterministic per-worker updates (splitmix64 over seed x worker), values in
// [-32768, 32767] like a quantized gradient shard.
[[nodiscard]] std::vector<std::vector<std::int32_t>>
make_updates(int workers, std::uint64_t elems, std::uint64_t seed);

// Element-wise wrapping int32 sum — what every worker must receive bit-exactly.
[[nodiscard]] std::vector<std::int32_t>
expected_sum(const std::vector<std::vector<std::int32_t>>& updates);

// --- runner ------------------------------------------------------------------

struct RunHooks {
  // After the fabric is built, before any reduction: attach tracers,
  // timelines, sidecars.
  std::function<void(core::Fabric&)> on_built;
  // After each reduction, with that rep's per-worker TATs.
  std::function<void(core::Fabric&, int rep, const std::vector<Time>& tats)> on_reduction;
};

struct RunResult {
  // Per reduction, per worker. Timing mode covers every worker (all jobs of
  // a multi-job fabric reduce concurrently); data mode runs job 0.
  std::vector<std::vector<Time>> tats;
  bool fallback_engaged = false;   // any reduction degraded to streaming-PS
  std::uint64_t dead_declared = 0; // workers that declared the switch dead
  bool data_checked = false;       // data mode ran and outputs were compared
  bool data_bit_exact = false;     // every worker, every rep, matched expected_sum
};

// Builds one fabric and executes the workload with the scenario's FaultPlan
// armed. The PR 5 termination contract applies: the run either converges
// (data mode bit-exactly), or degrades explicitly — fallback_engaged /
// dead_declared report which.
[[nodiscard]] RunResult run(const Scenario& s, const RunHooks& hooks = {});

} // namespace switchml::scenario
