// SpanLedger: state-machine semantics (clamp rules, offset matching,
// contributor lists, restart sweeps), the conservation invariant on full
// cluster runs under clean / lossy / straggler / restart / kill fault plans,
// same-seed bit-identical determinism, JSONL export shape, and the
// zero-event / zero-allocation guarantee when no ledger is installed.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "common/attribution.hpp"
#include "core/cluster.hpp"
#include "core/fault.hpp"

// --- allocation counting -----------------------------------------------------
// Replacing global operator new lets the no-ledger test assert that the
// instrumentation helpers perform no heap allocation. The counter covers the
// whole binary; tests read deltas around the calls under test.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace switchml {
namespace {

using attr::Component;

std::uint64_t record_sum(const attr::ChunkRecord& r) {
  std::uint64_t sum = 0;
  for (std::uint64_t v : r.ns) sum += v;
  return sum;
}

// The invariant the whole subsystem exists to uphold: every recorded chunk's
// components partition [start, end] exactly, and the rollups agree.
void expect_conserved(const attr::SpanLedger& ledger) {
  EXPECT_EQ(ledger.max_residual_ns(), 0u);
  std::uint64_t span_sum = 0;
  for (const attr::ChunkRecord& r : ledger.records()) {
    ASSERT_GE(r.end, r.start);
    const auto span = static_cast<std::uint64_t>(r.end - r.start);
    EXPECT_EQ(record_sum(r), span)
        << "node " << r.node << " slot " << r.slot << " off " << r.off;
    span_sum += span;
  }
  if (ledger.records_dropped() == 0) {
    EXPECT_EQ(ledger.total_ns(), span_sum);
  }
}

TEST(Attribution, OpenTransitionCloseConservesExactly) {
  attr::SpanLedger ledger;
  ledger.open(3, 0, 4096, 100);
  ledger.transition(3, 0, Component::kWire, 150);
  ledger.transition(3, 0, Component::kProp, 170);
  ledger.close(3, 0, 200);

  EXPECT_EQ(ledger.chunks_closed(), 1u);
  EXPECT_EQ(ledger.total(Component::kHostTx), 50u);
  EXPECT_EQ(ledger.total(Component::kWire), 20u);
  EXPECT_EQ(ledger.total(Component::kProp), 30u);
  EXPECT_EQ(ledger.total_ns(), 100u);
  EXPECT_EQ(ledger.node_total(3, Component::kWire), 20u);

  ASSERT_EQ(ledger.records().size(), 1u);
  const attr::ChunkRecord& r = ledger.records()[0];
  EXPECT_EQ(r.node, 3u);
  EXPECT_EQ(r.slot, 0u);
  EXPECT_EQ(r.off, 4096u);
  EXPECT_EQ(r.start, 100);
  EXPECT_EQ(r.end, 200);
  expect_conserved(ledger);
}

TEST(Attribution, StaleTimestampsClampToZeroLengthSegments) {
  // Transitions may carry timestamps computed ahead of (or behind) the last
  // segment boundary; a stale one must switch state without going backwards.
  attr::SpanLedger ledger;
  ledger.open(0, 0, 0, 100);
  ledger.transition(0, 0, Component::kWire, 160);
  ledger.transition(0, 0, Component::kRtoStall, 140); // stale: zero-length wire->stall
  ledger.close(0, 0, 180);
  EXPECT_EQ(ledger.total(Component::kHostTx), 60u);
  EXPECT_EQ(ledger.total(Component::kWire), 0u);      // clamped
  EXPECT_EQ(ledger.total(Component::kRtoStall), 20u); // 160 -> 180
  expect_conserved(ledger);

  // Closing before the last transition clamps the same way: end = since.
  ledger.open(0, 0, 64, 200);
  ledger.transition(0, 0, Component::kProp, 250);
  ledger.close(0, 0, 210);
  ASSERT_EQ(ledger.records().size(), 2u);
  EXPECT_EQ(ledger.records()[1].end, 250);
  expect_conserved(ledger);
}

TEST(Attribution, TransitionMatchingIgnoresStaleOffsets) {
  // A duplicate result for the slot's PREVIOUS chunk must not relabel the
  // successor chunk now occupying the same (node, slot) key.
  attr::SpanLedger ledger;
  ledger.open(1, 7, 128, 0);
  ledger.transition_matching(1, 7, 999, Component::kRtoStall, 50); // stale off: ignored
  ledger.transition_matching(1, 7, 128, Component::kWire, 60);     // matches
  ledger.close(1, 7, 100);
  EXPECT_EQ(ledger.total(Component::kRtoStall), 0u);
  EXPECT_EQ(ledger.total(Component::kHostTx), 60u);
  EXPECT_EQ(ledger.total(Component::kWire), 40u);
  expect_conserved(ledger);
}

TEST(Attribution, ReopenResetsInPlaceWithoutRecording) {
  attr::SpanLedger ledger;
  ledger.open(0, 0, 0, 10);
  ledger.open(0, 0, 64, 20); // same key re-opened: the partial chunk vanishes
  EXPECT_EQ(ledger.reopened(), 1u);
  EXPECT_EQ(ledger.chunks_closed(), 0u);
  ledger.close(0, 0, 50);
  EXPECT_EQ(ledger.chunks_closed(), 1u);
  EXPECT_EQ(ledger.total_ns(), 30u); // only the second chunk's span
  EXPECT_EQ(ledger.records()[0].off, 64u);
}

TEST(Attribution, ContributorListsMoveEveryWaiterOnSlotCompletion) {
  attr::SpanLedger ledger;
  for (std::uint32_t n : {1u, 2u, 3u}) ledger.open(n, 5, 256, 0);
  ledger.contribute(/*switch=*/0, /*job=*/1, /*ver=*/0, /*idx=*/5, 1, 256, 10);
  ledger.contribute(0, 1, 0, 5, 2, 256, 20);
  ledger.contribute(0, 1, 0, 5, 3, 256, 30);
  ledger.complete_slot(0, 1, 0, 5, 256, 40);
  for (std::uint32_t n : {1u, 2u, 3u}) ledger.close(n, 5, 50);
  // Each contributor waited in kSwitchWait from its contribution to the
  // completion, then rode kSwitchReady to its close.
  EXPECT_EQ(ledger.node_total(1, Component::kSwitchWait), 30u);
  EXPECT_EQ(ledger.node_total(2, Component::kSwitchWait), 20u);
  EXPECT_EQ(ledger.node_total(3, Component::kSwitchWait), 10u);
  EXPECT_EQ(ledger.total(Component::kSwitchReady), 30u);
  expect_conserved(ledger);
}

TEST(Attribution, ContributorListsAreJobLocal) {
  // Two jobs share a switch; their slot indices overlap but their contributor
  // lists must not (each job owns its own pool registers).
  attr::SpanLedger ledger;
  ledger.open(1, 0, 0, 0);
  ledger.open(2, 0, 0, 0);
  ledger.contribute(/*switch=*/9, /*job=*/0, 0, /*idx=*/0, 1, 0, 10);
  ledger.contribute(9, /*job=*/1, 0, 0, 2, 0, 10);
  ledger.complete_slot(9, /*job=*/0, 0, 0, 0, 30); // only job 0's list moves
  ledger.close(1, 0, 50);
  ledger.close(2, 0, 50);
  EXPECT_EQ(ledger.node_total(1, Component::kSwitchReady), 20u);
  EXPECT_EQ(ledger.node_total(2, Component::kSwitchReady), 0u);
  EXPECT_EQ(ledger.node_total(2, Component::kSwitchWait), 40u);
  expect_conserved(ledger);
}

TEST(Attribution, SweepSwitchMovesEveryJobsContributors) {
  attr::SpanLedger ledger;
  ledger.open(1, 0, 0, 0);
  ledger.open(2, 3, 0, 0);
  ledger.contribute(9, /*job=*/0, 0, 0, 1, 0, 10);
  ledger.contribute(9, /*job=*/1, 1, 3, 2, 0, 10);
  ledger.sweep_switch(9, Component::kRecovery, 20); // dataplane wipe: all jobs
  ledger.close(1, 0, 50);
  ledger.close(2, 3, 50);
  EXPECT_EQ(ledger.node_total(1, Component::kRecovery), 30u);
  EXPECT_EQ(ledger.node_total(2, Component::kRecovery), 30u);
  expect_conserved(ledger);
}

TEST(Attribution, RecordBufferIsBoundedButRollupsAreNot) {
  attr::SpanLedger ledger(/*record_capacity=*/2);
  for (std::uint32_t i = 0; i < 5; ++i) {
    ledger.open(0, i, i * 64, 0);
    ledger.close(0, i, 10);
  }
  EXPECT_EQ(ledger.records().size(), 2u);
  EXPECT_EQ(ledger.records_dropped(), 3u);
  EXPECT_EQ(ledger.chunks_closed(), 5u);
  EXPECT_EQ(ledger.total_ns(), 50u); // totals kept accumulating past capacity
  // Truncation is visible in the export, never silent.
  EXPECT_NE(ledger.jsonl().find("{\"records_dropped\":3}"), std::string::npos);
}

TEST(Attribution, JsonlRecordsCarryEveryComponent) {
  attr::SpanLedger ledger;
  ledger.open(4, 2, 512, 100);
  ledger.transition(4, 2, Component::kFallback, 130);
  ledger.close(4, 2, 150);
  const std::string line = ledger.jsonl();
  EXPECT_NE(line.find("\"node\":4"), std::string::npos);
  EXPECT_NE(line.find("\"slot\":2"), std::string::npos);
  EXPECT_NE(line.find("\"off\":512"), std::string::npos);
  EXPECT_NE(line.find("\"start_ns\":100"), std::string::npos);
  EXPECT_NE(line.find("\"end_ns\":150"), std::string::npos);
  EXPECT_NE(line.find("\"host_tx\":30"), std::string::npos);
  EXPECT_NE(line.find("\"fallback\":20"), std::string::npos);
  // All ten component keys appear even when zero — scripts/critical_path.py
  // sums fixed columns.
  for (std::size_t c = 0; c < attr::kComponentCount; ++c)
    EXPECT_NE(line.find(std::string("\"") + attr::to_string(static_cast<Component>(c)) + "\":"),
              std::string::npos)
        << attr::to_string(static_cast<Component>(c));
}

TEST(Attribution, ScopesNestAndNullMasks) {
  EXPECT_EQ(attr::SpanLedger::current(), nullptr);
  attr::SpanLedger outer;
  {
    attr::SpanLedger::Scope s1(&outer);
    EXPECT_EQ(attr::SpanLedger::current(), &outer);
    {
      // Scope(nullptr) masks the outer ledger — the fabric uses this to keep
      // the PS-fallback replay fabric (colliding node ids) out of the ledger.
      attr::SpanLedger::Scope mask(nullptr);
      EXPECT_EQ(attr::SpanLedger::current(), nullptr);
      attr::open(7, 0, 0, 0);
      attr::close(7, 0, 10);
    }
    EXPECT_EQ(attr::SpanLedger::current(), &outer);
  }
  EXPECT_EQ(attr::SpanLedger::current(), nullptr);
  EXPECT_EQ(outer.chunks_closed(), 0u); // the masked calls went nowhere
}

// --- full cluster runs -------------------------------------------------------

core::ClusterConfig small_cfg(int workers) {
  core::ClusterConfig cfg = core::ClusterConfig::for_rate(gbps(10), workers);
  cfg.timing_only = true;
  return cfg;
}

constexpr std::uint64_t kElems = 128 * 1024;

TEST(Attribution, CleanRunConservesWithNoStallComponents) {
  attr::SpanLedger ledger;
  attr::SpanLedger::Scope scope(&ledger);
  core::Fabric cluster(small_cfg(4).fabric());
  cluster.reduce_timing(kElems);

  EXPECT_GT(ledger.chunks_closed(), 0u);
  EXPECT_EQ(ledger.records_dropped(), 0u);
  expect_conserved(ledger);
  // No faults, no loss: the pathological components must be exactly zero.
  EXPECT_EQ(ledger.total(Component::kRtoStall), 0u);
  EXPECT_EQ(ledger.total(Component::kRecovery), 0u);
  EXPECT_EQ(ledger.total(Component::kFallback), 0u);
  // The happy-path ones all saw time.
  for (Component c : {Component::kHostTx, Component::kWire, Component::kProp,
                      Component::kSwitchReady, Component::kHostRx})
    EXPECT_GT(ledger.total(c), 0u) << attr::to_string(c);
}

TEST(Attribution, LossyRunConservesAndChargesRtoStall) {
  attr::SpanLedger ledger;
  attr::SpanLedger::Scope scope(&ledger);
  core::ClusterConfig cfg = small_cfg(4);
  cfg.loss_prob = 0.01;
  cfg.adaptive_rto = true;
  core::Fabric cluster(cfg.fabric());
  cluster.reduce_timing(kElems);

  expect_conserved(ledger);
  EXPECT_GT(ledger.total(Component::kRtoStall), 0u);
  // Lost chunks stall their peers in the aggregator too.
  EXPECT_GT(ledger.total(Component::kSwitchWait), 0u);
}

TEST(Attribution, StragglerRunConservesAndChargesSwitchWait) {
  attr::SpanLedger ledger;
  attr::SpanLedger::Scope scope(&ledger);
  core::ClusterConfig cfg = small_cfg(4);
  cfg.faults.stragglers.push_back({0, 16.0, 0, -1});
  core::Fabric cluster(cfg.fabric());
  cluster.reduce_timing(kElems);

  expect_conserved(ledger);
  // The fast workers' chunks park in the slot waiting for the straggler.
  EXPECT_GT(ledger.total(Component::kSwitchWait), 0u);
  EXPECT_EQ(ledger.total(Component::kFallback), 0u);
}

TEST(Attribution, SwitchRestartRunConservesAndChargesRecovery) {
  // Clean run first to place the restart mid-flight; the straggler keeps
  // slots partially aggregated (and thus vulnerable) when the wipe hits,
  // mirroring the fault_sweep hierarchy scenario.
  Time clean_max = 0;
  {
    core::ClusterConfig cfg = small_cfg(4);
    cfg.faults.stragglers.push_back({0, 16.0, 0, -1});
    core::Fabric cluster(cfg.fabric());
    for (Time t : cluster.reduce_timing(kElems)) clean_max = std::max(clean_max, t);
  }
  attr::SpanLedger ledger;
  attr::SpanLedger::Scope scope(&ledger);
  core::ClusterConfig cfg = small_cfg(4);
  cfg.faults.stragglers.push_back({0, 16.0, 0, -1});
  cfg.faults.switch_restarts.push_back({0, clean_max / 2});
  core::Fabric cluster(cfg.fabric());
  cluster.reduce_timing(kElems);

  expect_conserved(ledger);
  EXPECT_GT(ledger.total(Component::kRecovery), 0u);
  EXPECT_EQ(ledger.total(Component::kFallback), 0u);
}

TEST(Attribution, SwitchKillFallbackConservesAndChargesFallback) {
  Time clean_max = 0;
  {
    core::Fabric cluster(small_cfg(4).fabric());
    for (Time t : cluster.reduce_timing(kElems)) clean_max = std::max(clean_max, t);
  }
  attr::SpanLedger ledger;
  attr::SpanLedger::Scope scope(&ledger);
  core::ClusterConfig cfg = small_cfg(4);
  cfg.faults.switch_kills.push_back({0, clean_max / 2});
  core::Fabric cluster(cfg.fabric());
  cluster.reduce_timing(kElems);

  ASSERT_TRUE(cluster.fallback_engaged());
  expect_conserved(ledger);
  // The kill burns the retry budget (recovery) and the surviving chunks are
  // replayed on the streaming-PS fallback.
  EXPECT_GT(ledger.total(Component::kRecovery), 0u);
  EXPECT_GT(ledger.total(Component::kFallback), 0u);
}

TEST(Attribution, SameSeedRunsAreBitIdentical) {
  auto run = [] {
    auto ledger = std::make_unique<attr::SpanLedger>();
    attr::SpanLedger::Scope scope(ledger.get());
    core::ClusterConfig cfg = small_cfg(4);
    cfg.loss_prob = 0.01;
    cfg.adaptive_rto = true;
    core::Fabric cluster(cfg.fabric());
    cluster.reduce_timing(kElems);
    return ledger;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a->chunks_closed(), b->chunks_closed());
  EXPECT_EQ(a->total_ns(), b->total_ns());
  for (std::size_t c = 0; c < attr::kComponentCount; ++c)
    EXPECT_EQ(a->total(static_cast<Component>(c)), b->total(static_cast<Component>(c)))
        << attr::to_string(static_cast<Component>(c));
  ASSERT_EQ(a->records().size(), b->records().size());
  for (std::size_t i = 0; i < a->records().size(); ++i) {
    EXPECT_EQ(a->records()[i].node, b->records()[i].node);
    EXPECT_EQ(a->records()[i].off, b->records()[i].off);
    EXPECT_EQ(a->records()[i].start, b->records()[i].start);
    EXPECT_EQ(a->records()[i].end, b->records()[i].end);
    EXPECT_EQ(a->records()[i].ns, b->records()[i].ns);
  }
}

TEST(Attribution, AttributionDoesNotPerturbTiming) {
  // Pure observation: the same run with and without a ledger must produce
  // bit-identical TATs.
  auto run = [](bool with_ledger) {
    attr::SpanLedger ledger;
    attr::SpanLedger::Scope scope(with_ledger ? &ledger : nullptr);
    core::ClusterConfig cfg = small_cfg(4);
    cfg.loss_prob = 0.01;
    cfg.adaptive_rto = true;
    core::Fabric cluster(cfg.fabric());
    return cluster.reduce_timing(kElems);
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(Attribution, RegistryRollupsOnlyExistWhenLedgerInstalled) {
  {
    attr::SpanLedger ledger;
    attr::SpanLedger::Scope scope(&ledger);
    core::Fabric cluster(small_cfg(4).fabric());
    cluster.reduce_timing(64 * 1024);
    const std::string json = cluster.metrics().snapshot().json().dump();
    EXPECT_NE(json.find("attr.total.host_tx_ns"), std::string::npos);
    EXPECT_NE(json.find("attr.worker-0.host_rx_ns"), std::string::npos);
    EXPECT_NE(json.find("attr.max_residual_ns"), std::string::npos);
  }
  {
    // No ledger at construction: the registry must look exactly as before
    // the attribution subsystem existed.
    core::Fabric cluster(small_cfg(4).fabric());
    cluster.reduce_timing(64 * 1024);
    EXPECT_EQ(cluster.metrics().snapshot().json().dump().find("attr."), std::string::npos);
  }
}

TEST(Attribution, NoLedgerEmitsNothingAndAllocatesNothing) {
  ASSERT_EQ(attr::SpanLedger::current(), nullptr);
  const std::uint64_t before = g_allocations.load();
  for (std::uint32_t i = 0; i < 1000; ++i) {
    attr::open(3, i & 63, i * 64, i);
    attr::transition(3, i & 63, Component::kWire, i + 1);
    attr::transition_matching(3, i & 63, i * 64, Component::kProp, i + 2);
    attr::contribute(0, 0, 0, i & 63, 3, i * 64, i + 3);
    attr::complete_slot(0, 0, 0, i & 63, i * 64, i + 4);
    attr::close(3, i & 63, i + 5);
  }
  EXPECT_EQ(g_allocations.load(), before);
}

} // namespace
} // namespace switchml
