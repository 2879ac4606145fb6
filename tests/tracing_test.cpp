// TraceSink: recording, category masks, bounded-buffer drop accounting,
// Chrome trace-event export well-formedness (validated with json::parse),
// actor registration through Node construction, and the zero-event /
// zero-allocation guarantee when tracing is disabled.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>

#include "common/json.hpp"
#include "common/tracing.hpp"
#include "core/cluster.hpp"

// --- allocation counting -----------------------------------------------------
// Replacing global operator new lets the disabled-tracing test assert that
// emit() performs no heap allocation. The counter covers the whole binary;
// tests read deltas around the calls under test.
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
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace switchml {
namespace {

TEST(Tracing, RecordsEventsWithArgsInsideScope) {
  if (!trace::compiled_in(trace::kCatWorker)) GTEST_SKIP() << "worker tracing compiled out";
  trace::TraceSink sink(128);
  trace::TraceSink::Scope scope(&sink);
  ASSERT_TRUE(trace::enabled(trace::kCatWorker));
  trace::emit(trace::kCatWorker, usec(3), 7, "send", {"slot", 5}, {"off", 1024});
  ASSERT_EQ(sink.events().size(), 1u);
  const trace::Event& e = sink.events()[0];
  EXPECT_EQ(e.ts, usec(3));
  EXPECT_EQ(e.node, 7u);
  EXPECT_EQ(e.cat, trace::kCatWorker);
  EXPECT_STREQ(e.name, "send");
  EXPECT_STREQ(e.a0.key, "slot");
  EXPECT_EQ(e.a0.value, 5);
  EXPECT_EQ(e.a2.key, nullptr);
}

TEST(Tracing, RuntimeMaskFiltersCategories) {
  if (!trace::compiled_in(trace::kCatWorker)) GTEST_SKIP() << "worker tracing compiled out";
  trace::TraceSink sink(128, trace::kCatWorker);
  trace::TraceSink::Scope scope(&sink);
  EXPECT_TRUE(trace::enabled(trace::kCatWorker));
  EXPECT_FALSE(trace::enabled(trace::kCatSwitch));
  trace::emit(trace::kCatSwitch, 0, 1, "claim");
  trace::emit(trace::kCatWorker, 0, 1, "send");
  ASSERT_EQ(sink.events().size(), 1u);
  EXPECT_STREQ(sink.events()[0].name, "send");
  // Filtered-by-mask events are not "drops": the buffer never saw them.
  EXPECT_EQ(sink.total_drops(), 0u);
}

TEST(Tracing, FullBufferDropsAreCountedPerCategory) {
  if (!trace::compiled_in(trace::kCatLink | trace::kCatSwitch))
    GTEST_SKIP() << "link or switch tracing compiled out";
  trace::TraceSink sink(4);
  trace::TraceSink::Scope scope(&sink);
  for (int i = 0; i < 10; ++i) trace::emit(trace::kCatLink, i, 1, "enqueue");
  trace::emit(trace::kCatSwitch, 11, 2, "claim");
  EXPECT_EQ(sink.events().size(), 4u);
  EXPECT_EQ(sink.drops(trace::kCatLink), 6u);
  EXPECT_EQ(sink.drops(trace::kCatSwitch), 1u);
  EXPECT_EQ(sink.total_drops(), 7u);
  // Truncation is visible in the export.
  const std::string json = sink.chrome_json();
  EXPECT_NE(json.find("\"dropped_link\":6"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_switch\":1"), std::string::npos);
}

TEST(Tracing, ScopesNestAndRestore) {
  EXPECT_EQ(trace::TraceSink::current(), nullptr);
  trace::TraceSink outer(16);
  {
    trace::TraceSink::Scope s1(&outer);
    EXPECT_EQ(trace::TraceSink::current(), &outer);
    trace::TraceSink inner(16);
    {
      trace::TraceSink::Scope s2(&inner);
      EXPECT_EQ(trace::TraceSink::current(), &inner);
    }
    EXPECT_EQ(trace::TraceSink::current(), &outer);
  }
  EXPECT_EQ(trace::TraceSink::current(), nullptr);
}

TEST(Tracing, DisabledTracingEmitsNothingAndAllocatesNothing) {
  // No sink installed: the emit path must not touch the heap.
  ASSERT_EQ(trace::TraceSink::current(), nullptr);
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i)
    trace::emit(trace::kCatWorker, i, 3, "send", {"slot", i}, {"off", i * 64}, {"ver", i & 1});
  EXPECT_EQ(g_allocations.load(), before);

  // Sink installed but category runtime-masked out: still zero allocations,
  // zero events.
  trace::TraceSink sink(64, trace::kCatSwitch);
  trace::TraceSink::Scope scope(&sink);
  const std::uint64_t before2 = g_allocations.load();
  for (int i = 0; i < 1000; ++i) trace::emit(trace::kCatWorker, i, 3, "send", {"slot", i});
  EXPECT_EQ(g_allocations.load(), before2);
  EXPECT_TRUE(sink.events().empty());

  if (!trace::compiled_in(trace::kCatWorker)) GTEST_SKIP() << "worker tracing compiled out";
  // Recording within capacity is also allocation-free: the buffer was
  // reserved at construction and event payloads are PODs.
  trace::TraceSink hot(2048, trace::kCatAll);
  trace::TraceSink::Scope hot_scope(&hot);
  trace::emit(trace::kCatWorker, 0, 3, "warm"); // fault in the thread_local
  const std::uint64_t before3 = g_allocations.load();
  for (int i = 0; i < 1000; ++i) trace::emit(trace::kCatWorker, i, 3, "send", {"slot", i});
  EXPECT_EQ(g_allocations.load(), before3);
  EXPECT_EQ(hot.events().size(), 1001u);
}

TEST(Tracing, CompiledMaskConstantFoldsDisabledCategories) {
  // The build compiles all categories in by default; `enabled` must still be
  // false for a bit outside the compiled mask even with a permissive sink.
  trace::TraceSink sink(16);
  trace::TraceSink::Scope scope(&sink);
  constexpr unsigned kUnknownCat = 1u << 30; // never compiled in
  static_assert((trace::kCompiledMask & kUnknownCat) == 0);
  EXPECT_FALSE(trace::enabled(kUnknownCat));
  trace::emit(kUnknownCat, 0, 1, "ghost");
  EXPECT_TRUE(sink.events().empty());
}

TEST(Tracing, ParseMaskAcceptsCategoryNamesAndAll) {
  EXPECT_EQ(trace::parse_mask("switch"), trace::kCatSwitch);
  EXPECT_EQ(trace::parse_mask("switch,worker,link"),
            trace::kCatSwitch | trace::kCatWorker | trace::kCatLink);
  EXPECT_EQ(trace::parse_mask("transport,fault,flow"),
            trace::kCatTransport | trace::kCatFault | trace::kCatFlow);
  EXPECT_EQ(trace::parse_mask("all"), trace::kCatAll);
  EXPECT_EQ(trace::parse_mask("fault,all"), trace::kCatAll);
  EXPECT_EQ(trace::parse_mask(""), 0u);
  EXPECT_EQ(trace::parse_mask("worker,,worker"), trace::kCatWorker); // empty tokens skipped
}

TEST(Tracing, ParseMaskRejectsUnknownNamesWithGuidance) {
  EXPECT_THROW(static_cast<void>(trace::parse_mask("wrker")), std::invalid_argument);
  try {
    const unsigned mask = trace::parse_mask("switch,bogus");
    FAIL() << "must throw, returned mask " << mask;
  } catch (const std::invalid_argument& e) {
    // The message names the offender and the valid alternatives.
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("transport"), std::string::npos);
  }
}

TEST(Tracing, FlowEventsExportChromeFlowPhases) {
  if (!trace::compiled_in(trace::kCatFlow)) GTEST_SKIP() << "flow tracing compiled out";
  trace::TraceSink sink(64);
  trace::TraceSink::Scope scope(&sink);
  const std::uint64_t id = trace::chunk_flow_id(3, 4096);
  trace::emit_flow(usec(1), 3, "chunk", id, trace::FlowPhase::kStart);
  trace::emit_flow(usec(2), 9, "chunk", id, trace::FlowPhase::kStep);
  trace::emit_flow(usec(3), 3, "chunk", id, trace::FlowPhase::kEnd);
  ASSERT_EQ(sink.events().size(), 3u);
  EXPECT_EQ(sink.events()[0].flow, trace::FlowPhase::kStart);
  EXPECT_EQ(sink.events()[1].flow_id, id);

  const std::string json = sink.chrome_json();
  EXPECT_NO_THROW((void)json::parse(json)) << json;
  // Chrome flow semantics: start 's', step 't', finish 'f' with "bp":"e",
  // all bound by the same id.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":" + std::to_string(id)), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"flow\""), std::string::npos);
}

TEST(Tracing, ChunkFlowIdSeparatesNodesAndOffsets) {
  EXPECT_NE(trace::chunk_flow_id(0, 64), trace::chunk_flow_id(1, 64));
  EXPECT_NE(trace::chunk_flow_id(0, 64), trace::chunk_flow_id(0, 128));
  static_assert(trace::chunk_flow_id(2, 0) == (2ull << 40));
}

TEST(Tracing, LossyClusterRunExportsValidChromeJson) {
  // A fig6-style lossy run: every instrumentation point fires (sends,
  // retransmits, timeouts, claims, dups, shadow replies, link drops).
  if (!trace::compiled_in(trace::kCatWorker | trace::kCatSwitch | trace::kCatLink |
                          trace::kCatFlow))
    GTEST_SKIP() << "worker, switch, link or flow tracing compiled out";
  trace::TraceSink sink(1u << 16);
  trace::TraceSink::Scope scope(&sink);
  core::ClusterConfig cfg = core::ClusterConfig::for_rate(gbps(10), 4);
  cfg.timing_only = true;
  cfg.loss_prob = 0.01;
  cfg.adaptive_rto = true;
  core::Fabric cluster(cfg.fabric());
  cluster.reduce_timing(128 * 1024);

  ASSERT_GT(sink.events().size(), 1000u);
  const std::string json = sink.chrome_json();
  EXPECT_NO_THROW((void)json::parse(json)) << json.substr(0, 400);
  // Node construction registered actor names for the Perfetto rows.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"worker-0\""), std::string::npos);
  // All active categories appear, including the per-chunk flow arrows
  // (send -> claim/aggregate -> deliver).
  EXPECT_NE(json.find("\"cat\":\"worker\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"switch\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"link\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"flow\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
}

TEST(Tracing, ChromeJsonEscapesHostileActorNames) {
  const std::string hostile = "evil\"name\\with\ncontrol\tchars";
  trace::TraceSink sink(16);
  sink.register_actor(1, hostile);
  sink.record(trace::kCatLink, 0, 1, "enqueue");
  const json::Value doc = json::parse(sink.chrome_json());
  const json::Value& actor = doc.find("traceEvents")->as_array().front();
  EXPECT_EQ(actor.find("args")->find("name")->as_string(), hostile);
}

} // namespace
} // namespace switchml
