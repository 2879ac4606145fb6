// Structured event tracing (tier 2 of the observability layer).
//
// A TraceSink collects fixed-size POD events from the simulator's hot paths
// — switch slot claims/aggregations, worker sends/retransmits, link queue
// activity — and exports them as Chrome `trace_event` JSON loadable in
// Perfetto / chrome://tracing, with sim-time timestamps.
//
// Cost model, from cheapest to priciest:
//   1. No sink installed (or the category runtime-disabled): one inline
//      thread-local load and a branch.
//   2. Recording: one bounds check plus a POD store into a pre-reserved
//      buffer — no allocation, ever. When the buffer is full the event is
//      counted in a per-category drop counter instead, so truncation is
//      visible in the export rather than silent.
//
// Like MetricsRegistry, the sink is discovered through an ambient scoped
// pointer (TraceSink::Scope, common/ambient.hpp), so instrumentation points
// need no plumbing and code running outside any scope pays only cost 1.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/ambient.hpp"
#include "common/units.hpp"

namespace switchml::trace {

// Trace categories (bitmask). Keep in sync with kCategoryNames in tracing.cpp.
inline constexpr unsigned kCatSwitch = 1u << 0;    // slot claim/aggregate/complete
inline constexpr unsigned kCatWorker = 1u << 1;    // send/recv/retransmit/timeout
inline constexpr unsigned kCatLink = 1u << 2;      // enqueue/deliver/drop
inline constexpr unsigned kCatTransport = 1u << 3; // reliable-transport segments/acks
inline constexpr unsigned kCatFault = 1u << 4;     // fault injection: flaps/stragglers/restarts
inline constexpr unsigned kCatFlow = 1u << 5;      // per-chunk causal chains (Perfetto flows)
inline constexpr unsigned kCatAll = 0x3Fu;
inline constexpr unsigned kCategoryCount = 6;

// Every category is always built in; only perfbench's provenance reads this.
inline constexpr unsigned kCompiledMask = kCatAll;

// Parses a comma-separated list of category names ("switch,worker,link",
// "all") into a bitmask; throws std::invalid_argument naming the unknown
// category otherwise. The bench drivers' --trace-mask speaks names, not bits.
[[nodiscard]] unsigned parse_mask(std::string_view names);

// The category's lowercase name ("switch", ..., "flow"); `cat` must be a
// single category bit.
[[nodiscard]] const char* category_name(unsigned cat);

// One optional key/value attribute on an event. Keys must be string literals
// (static lifetime); a null key means "absent".
struct Arg {
  const char* key = nullptr;
  std::int64_t value = 0;
};

// Flow phase of an event (Chrome trace_event flow semantics): kStart opens a
// chain, kStep continues it, kEnd terminates it. Events of one chain share a
// flow id and render as clickable arrows in Perfetto.
enum class FlowPhase : std::uint8_t { kNone = 0, kStart, kStep, kEnd };

// Fixed-size POD record; `name` and arg keys are static-lifetime literals so
// recording never copies strings.
struct Event {
  Time ts = 0;                // sim time, ns
  std::uint32_t node = 0;     // NodeId of the emitting component
  std::uint32_t cat = 0;      // single category bit
  const char* name = nullptr; // e.g. "send", "claim", "drop_loss"
  Arg a0, a1, a2;
  std::uint64_t flow_id = 0;  // chain identity; meaningful when flow != kNone
  FlowPhase flow = FlowPhase::kNone;
};

class TraceSink : public Ambient<TraceSink> {
public:
  // `capacity` bounds the event buffer (reserved up front; never grows).
  // `mask` enables a subset of the categories; bits outside kCatAll are
  // dropped, so an unknown category never records.
  explicit TraceSink(std::size_t capacity = 1u << 20, unsigned mask = kCatAll);
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  [[nodiscard]] bool wants(unsigned cat) const { return (mask_ & cat) != 0; }

  // Hot path. Drops (and counts) the event when the buffer is full.
  void record(unsigned cat, Time ts, std::uint32_t node, const char* name, Arg a0 = {},
              Arg a1 = {}, Arg a2 = {});

  // Hot path. Records one step of a flow chain (Perfetto flow arrows linking
  // send -> claim -> aggregate -> result -> deliver across actors).
  void record_flow(unsigned cat, Time ts, std::uint32_t node, const char* name,
                   std::uint64_t flow_id, FlowPhase phase);

  // Associates a NodeId with a display name; exported as Chrome thread_name
  // metadata so Perfetto rows read "worker-0" instead of "tid 3". Nodes
  // self-register from the net::Node constructor.
  void register_actor(std::uint32_t id, std::string name);

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  // Events discarded because the buffer was full, per category bit index.
  [[nodiscard]] std::uint64_t drops(unsigned cat) const;
  [[nodiscard]] std::uint64_t total_drops() const;

  // Chrome trace_event JSON ("traceEvents" array of instant events with
  // thread_name metadata; "otherData" carries the drop counters). When any
  // events were dropped the export logs a Warn-level truncation notice —
  // an incomplete trace file is never silent.
  [[nodiscard]] std::string chrome_json() const;
  void write_chrome_json(const std::string& path) const;

private:
  unsigned mask_;
  std::size_t capacity_;
  std::vector<Event> events_;
  std::array<std::uint64_t, kCategoryCount> drops_{};
  std::vector<std::pair<std::uint32_t, std::string>> actors_;
};

// True when a sink is installed and its mask includes `cat`.
inline bool enabled(unsigned cat) {
  TraceSink* s = TraceSink::current();
  return s != nullptr && s->wants(cat);
}

// One-call emission for hot paths.
inline void emit(unsigned cat, Time ts, std::uint32_t node, const char* name, Arg a0 = {},
                 Arg a1 = {}, Arg a2 = {}) {
  if (TraceSink* s = TraceSink::current(); s != nullptr && s->wants(cat))
    s->record(cat, ts, node, name, a0, a1, a2);
}

// Flow-chain id for one worker chunk: owning node id in the top bits, element
// offset below. Offsets stay far under 2^40 in practice; a collision would
// merely merge two arrows in the viewer.
inline constexpr std::uint64_t chunk_flow_id(std::uint32_t node, std::uint64_t off) {
  return (static_cast<std::uint64_t>(node) << 40) | (off & ((1ull << 40) - 1));
}

// One-call flow-step emission (kCatFlow) for hot paths.
inline void emit_flow(Time ts, std::uint32_t node, const char* name, std::uint64_t flow_id,
                      FlowPhase phase) {
  if (TraceSink* s = TraceSink::current(); s != nullptr && s->wants(kCatFlow))
    s->record_flow(kCatFlow, ts, node, name, flow_id, phase);
}

} // namespace switchml::trace
