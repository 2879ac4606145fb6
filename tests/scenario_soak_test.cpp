// Randomized chaos soak: seeded scenario fuzzing across all five topology
// shapes x fault classes, each seed run over UDP and again over RDMA UC.
// Every run pins the whole contract chain:
//
//   1. the fuzzed scenario round-trips through JSON losslessly (the run below
//      executes the RELOADED scenario, so the serialization path is on the
//      invariant's critical path, not beside it);
//   2. the run terminates (the PR 5 contract: converge, or degrade
//      explicitly) and data mode is bit-exact against expected_sum;
//   3. a switch kill always engages the streaming-PS fallback and at least
//      one worker declares the switch dead;
//   4. the span ledger conserves exactly (max_residual_ns == 0) — fault
//      churn, wipes, and fallback handoffs never leak attributed time;
//   5. one-shot-flapped links deliver ZERO packets inside the down window
//      (read from the TraceSink's link events).
//
// Iteration count defaults low for developer ctest; CI soaks with
// SWITCHML_SOAK_ITERS=200 (see .github/workflows/ci.yml), also under
// ASan/UBSan.
#include "scenario/fuzz.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/attribution.hpp"
#include "common/tracing.hpp"
#include "scenario/scenario.hpp"

namespace switchml::scenario {
namespace {

int soak_iters() {
  if (const char* env = std::getenv("SWITCHML_SOAK_ITERS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 10;
}

// Room for every link and fault event of the largest fuzzed run; the soak
// asserts that none was dropped.
constexpr std::size_t kSinkCapacity = 1u << 16;

Time max_tat(const RunResult& r) {
  Time m = 0;
  for (const auto& rep : r.tats)
    for (Time t : rep) m = std::max(m, t);
  return m;
}

void soak_one(std::uint64_t seed, net::TransportKind transport) {
  SCOPED_TRACE("seed " + std::to_string(seed) +
               (transport == net::TransportKind::kUdp ? " over UDP" : " over RDMA UC"));

  // The faultless twin both smoke-checks the fuzzed base scenario and sets
  // the time horizon the fault plan is laid out against. The fuzzer names no
  // transport, so its draws are the same on both.
  Scenario s = fuzz_scenario(seed);
  s.fabric.transport = transport;
  const RunResult clean = run(s);
  ASSERT_TRUE(clean.data_checked);
  ASSERT_TRUE(clean.data_bit_exact);
  ASSERT_FALSE(clean.fallback_engaged);
  ASSERT_GT(max_tat(clean), 0);

  fuzz_faults(s, seed ^ 0x5DEECE66Dull, max_tat(clean));
  ASSERT_FALSE(s.fabric.faults.empty());

  // Serialization sits on the critical path: the faulted run executes the
  // scenario as RELOADED from its own emission, which must be a fixed point.
  const std::string doc = to_json(s).dump(true);
  Scenario loaded;
  ASSERT_NO_THROW(loaded = load_string(doc)) << doc;
  EXPECT_EQ(to_json(loaded).dump(true), doc);

  // The endpoints of every one-shot-flapped link, by the fabric's link-order
  // rule (DESIGN §6): link i is worker i's uplink for i < n_workers, then
  // switch 1 + (i - n_workers)'s uplink. fuzz_faults never stacks a second
  // flap spec on the same link, so each window is the whole truth about that
  // link's downtime.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> flapped;
  RunHooks hooks;
  hooks.on_built = [&](core::Fabric& f) {
    const auto n = static_cast<std::size_t>(f.n_workers());
    for (const core::LinkFlapSpec& spec : loaded.fabric.faults.flaps) {
      net::Node& end =
          spec.link < n ? static_cast<net::Node&>(f.worker(static_cast<int>(spec.link)))
                        : f.switch_at(1 + spec.link - n);
      flapped.emplace_back(end.id(), f.link(spec.link).peer_of(end).id());
    }
  };

  attr::SpanLedger ledger;
  trace::TraceSink sink(kSinkCapacity, trace::kCatLink | trace::kCatFault);
  RunResult faulted;
  {
    attr::SpanLedger::Scope scope(&ledger);
    trace::TraceSink::Scope trace_scope(&sink);
    faulted = run(loaded, hooks);
  }

  // Termination + correctness: the run came back, every reduction's outputs
  // matched the wrapping int32 expected_sum bit-exactly.
  ASSERT_EQ(faulted.tats.size(), static_cast<std::size_t>(loaded.workload.reductions));
  for (const auto& rep : faulted.tats) EXPECT_FALSE(rep.empty());
  ASSERT_TRUE(faulted.data_checked);
  EXPECT_TRUE(faulted.data_bit_exact);

  // A kill is unsurvivable by design: the fabric must degrade explicitly.
  if (!loaded.fabric.faults.switch_kills.empty()) {
    EXPECT_TRUE(faulted.fallback_engaged);
    EXPECT_GE(faulted.dead_declared, 1u);
  }

  // Attribution conservation: zero by construction, so zero it stays — even
  // across wipes, RTO churn, and the fallback handoff.
  EXPECT_EQ(ledger.max_residual_ns(), 0u);
  EXPECT_GT(ledger.chunks_closed(), 0u);

  // Downed links deliver nothing: no `deliver` between a flapped link's
  // endpoints strictly inside its one-shot window (endpoints excluded — a
  // delivery scheduled for the same instant as the down edge may legally
  // land first). A switch-dead fallback replays on a fabric of its own,
  // whose clock restarts at 0 and whose node ids collide with the job's,
  // so the scan ends at its `fallback_begin`.
  EXPECT_EQ(sink.total_drops(), 0u);
  for (const trace::Event& e : sink.events()) {
    const std::string_view name = e.name;
    if (name == "fallback_begin") break;
    if (name != "deliver") continue;
    const auto to = static_cast<std::uint32_t>(e.a0.value);
    for (std::size_t i = 0; i < flapped.size(); ++i) {
      const auto [a, b] = flapped[i];
      if (!((e.node == a && to == b) || (e.node == b && to == a))) continue;
      const core::LinkFlapSpec& spec = loaded.fabric.faults.flaps[i];
      EXPECT_FALSE(e.ts > spec.down_at && e.ts < spec.up_at)
          << "link " << spec.link << " delivered a packet at t=" << e.ts
          << " ns inside its down window [" << spec.down_at << ", " << spec.up_at << ")";
    }
  }
}

TEST(ScenarioSoak, RandomizedFaultedRunsHoldEveryInvariant) {
  const int iters = soak_iters();
  for (int i = 0; i < iters; ++i) {
    for (net::TransportKind t : {net::TransportKind::kUdp, net::TransportKind::kRdmaUc}) {
      soak_one(static_cast<std::uint64_t>(i), t);
      if (HasFatalFailure()) return;
    }
  }
}

// The fuzzer must exercise all five topology shapes — a regression that
// collapses its shape selector would silently gut the soak's coverage.
TEST(ScenarioSoak, FuzzerCoversEveryTopologyShape) {
  bool seen[5] = {};
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Scenario s = fuzz_scenario(seed);
    seen[s.topology.index()] = true;
  }
  for (bool b : seen) EXPECT_TRUE(b);
}

TEST(ScenarioSoak, FuzzedPlansAlwaysValidate) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Scenario s = fuzz_scenario(seed);
    fuzz_faults(s, seed, msec(1));
    EXPECT_FALSE(s.fabric.faults.empty()) << "seed " << seed;
    EXPECT_NO_THROW(core::validate_fault_plan(s.fabric.faults, shape_counts(s.topology),
                                              s.fabric.lossless))
        << "seed " << seed;
  }
}

} // namespace
} // namespace switchml::scenario
