// Critical-path time attribution (tier 4 of the observability layer).
//
// A SpanLedger decomposes every chunk's wall-clock lifetime — from the
// worker's first send to the moment the aggregated result is consumed — into
// exclusive, non-overlapping components on the simulation clock. Where the
// TraceSink answers "what happened when", the ledger answers "where did the
// time go": when recovery_sweep reports 1.33x TAT inflation, the ledger says
// how much of it was wire time vs. switch slot dwell vs. RTO stalls vs.
// epoch-resync stalls.
//
// The ledger is an event-driven state machine, not a post-hoc timestamp
// matcher. Each open chunk (keyed by owning worker node id + pool slot index)
// is always in exactly one component; a transition closes the current
// segment (accumulating `at - since` into the component the chunk was in)
// and opens the next. Conservation therefore holds *by construction*: the
// per-component nanoseconds of a closed chunk sum exactly to its measured
// end - start, bit-identically across same-seed runs, with no residual to
// tolerate away.
//
// Cost model, mirroring TraceSink's discipline:
//   1. No ledger installed (the default): one inline thread-local load and a
//      branch.
//   2. Recording: array indexing plus a handful of scalar updates. Per-node
//      state slabs are allocated once, on first use, so steady-state
//      recording is allocation-free; finished-chunk records go into a buffer
//      reserved up front and are dropped (and counted) beyond capacity —
//      rollup totals and the conservation check never stop.
//
// Attribution is pure observation: it schedules no events, draws no random
// numbers, and never changes simulation behavior — enabling it leaves every
// other metric bit-identical.
//
// Like MetricsRegistry and TraceSink, the ledger is discovered through an
// ambient scoped pointer (SpanLedger::Scope, common/ambient.hpp), so
// instrumentation points need no plumbing and code running outside any scope
// pays only cost 1.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/ambient.hpp"
#include "common/units.hpp"

namespace switchml::attr {

// The ledger is always built in; only perfbench's provenance reads this.
inline constexpr bool kCompiledIn = true;

// Where a chunk's time can go. Exclusive and exhaustive: an open chunk is in
// exactly one component at any sim time. Keep in sync with kComponentNames.
enum class Component : std::uint8_t {
  kHostTx = 0,   // worker-side send path: NIC core occupancy + quantization cost
  kLinkQueue,    // waiting behind earlier serializations for the egress port
  kWire,         // the packet's own serialization time at the link rate
  kProp,         // propagation delay (both directions)
  kSwitchWait,   // in an aggregator slot, waiting for the remaining workers
  kSwitchReady,  // aggregation complete: result egress/relay back to the worker
  kHostRx,       // worker-side receive path: NIC rx processing until consume
  kRtoStall,     // a drop happened; dead time until the retransmission timer acts
  kRecovery,     // switch-restart wipe / dead-switch stalls until re-driven
  kFallback,     // job degraded: chunk replayed by the streaming-PS collective
};
inline constexpr std::size_t kComponentCount = 10;

// Snake_case names used for metrics ("attr.worker-0.wire_ns"), JSONL keys,
// and bench report rows.
[[nodiscard]] const char* to_string(Component c);

// One finished chunk: where every nanosecond of [start, end] went.
struct ChunkRecord {
  std::uint32_t node = 0; // owning worker's NodeId
  std::uint32_t slot = 0; // aggregator pool slot index
  std::uint64_t off = 0;  // element offset of the chunk
  Time start = 0;
  Time end = 0;
  std::array<std::uint64_t, kComponentCount> ns{};
};

// Scope(nullptr) masks an outer ledger — the fabric uses this to keep the
// PS-fallback replay fabric (whose node ids collide with the job's) from
// writing into the job's ledger.
class SpanLedger : public Ambient<SpanLedger> {
public:
  // `record_capacity` bounds the finished-chunk buffer (reserved up front;
  // never grows). Rollup totals keep accumulating after it fills.
  explicit SpanLedger(std::size_t record_capacity = 1u << 16);
  SpanLedger(const SpanLedger&) = delete;
  SpanLedger& operator=(const SpanLedger&) = delete;

  // --- hot path: per-chunk state machine -------------------------------------

  // Begins a chunk's lifetime in kHostTx at `at`. Reopening a key that is
  // already open resets it in place (counted in reopened()), never recording
  // the partial chunk.
  void open(std::uint32_t node, std::uint32_t slot, std::uint64_t off, Time at);

  // Closes the current segment and enters `c`. Timestamps may be computed
  // ahead of sim-time (a link's planned serialization finish); a transition
  // that lands before the segment start clamps to a zero-length segment, so
  // conservation is unaffected. Unknown keys are ignored — instrumentation
  // sites need not know whether their packet belongs to a tracked chunk.
  void transition(std::uint32_t node, std::uint32_t slot, Component c, Time at);

  // Like transition(), but only when the open chunk is still at offset `off`.
  // Packet-driven sites (links, switches) use this so a stale duplicate —
  // e.g. a shadow-copy reply racing the multicast it duplicates — cannot
  // mislabel the slot's successor chunk.
  void transition_matching(std::uint32_t node, std::uint32_t slot, std::uint64_t off,
                           Component c, Time at);

  // Ends the chunk at max(at, last transition), records it, and folds its
  // per-component time into the node rollup.
  void close(std::uint32_t node, std::uint32_t slot, Time at);

  // Transitions every open chunk of `node` into `c` at `at` (PS-fallback
  // handoff), or closes them all (fallback completion).
  void transition_all(std::uint32_t node, Component c, Time at);
  void close_all(std::uint32_t node, Time at);

  // --- hot path: switch-side contributor tracking ----------------------------
  // The switch does not know which chunk a slot serves — only which packets
  // contributed. The ledger tracks contributor lists per (switch, job, slot
  // idx, version) so slot completion can move every contributor's chunk at
  // once. Worker chunks are keyed by the pool index carried in the packets.

  // Records `contributor` (the update's src node) into the slot's list and
  // moves its chunk into kSwitchWait (when still at offset `off`).
  void contribute(std::uint32_t switch_node, std::uint32_t job, std::uint32_t ver,
                  std::uint32_t idx, std::uint32_t contributor, std::uint64_t off, Time at);

  // Slot went complete at offset `off`: every recorded contributor's chunk
  // still at `off` moves to kSwitchReady; the list is cleared.
  void complete_slot(std::uint32_t switch_node, std::uint32_t job, std::uint32_t ver,
                     std::uint32_t idx, std::uint64_t off, Time at);

  // Dataplane restart wiped the pool: every contributor of every slot moves
  // to `c` (kRecovery) and all lists clear.
  void sweep_switch(std::uint32_t switch_node, Component c, Time at);

  // --- queries (export / test time, never the hot path) ----------------------

  [[nodiscard]] std::uint64_t node_total(std::uint32_t node, Component c) const;
  [[nodiscard]] std::uint64_t total(Component c) const;
  // Sum of every component over every closed chunk == sum of (end - start).
  [[nodiscard]] std::uint64_t total_ns() const;

  [[nodiscard]] std::uint64_t chunks_closed() const { return closed_; }
  [[nodiscard]] std::uint64_t reopened() const { return reopened_; }
  [[nodiscard]] std::uint64_t records_dropped() const { return record_drops_; }
  [[nodiscard]] std::size_t record_capacity() const { return record_capacity_; }

  // Largest |sum(components) - (end - start)| seen at close time, in ns.
  // Zero by construction; exported as a guarded bench metric so the invariant
  // is continuously enforced against the committed baselines.
  [[nodiscard]] std::uint64_t max_residual_ns() const { return max_residual_; }

  [[nodiscard]] const std::vector<ChunkRecord>& records() const { return records_; }

  // One JSON object per closed chunk:
  //   {"node":0,"slot":3,"off":4096,"start_ns":..,"end_ns":..,
  //    "ns":{"host_tx":..,"link_queue":..,...}}
  // A trailing object reports {"records_dropped":N} when the buffer filled.
  // scripts/critical_path.py consumes this.
  [[nodiscard]] std::string jsonl() const;
  void write_jsonl(const std::string& path) const;

private:
  struct ChunkState {
    bool is_open = false;
    Component cur = Component::kHostTx;
    Time start = 0;
    Time since = 0;
    std::uint64_t off = 0;
    std::array<std::uint64_t, kComponentCount> acc{};
  };
  struct NodeSlab {
    std::vector<ChunkState> slots;
    std::array<std::uint64_t, kComponentCount> totals{};
  };
  // Contributor lists of one (switch, job), per slot index and pool version.
  struct SwitchSlab {
    std::uint64_t key = 0; // (switch node id << 8) | job
    std::vector<std::array<std::vector<std::uint32_t>, 2>> slots; // [idx][ver] -> nodes
  };

  NodeSlab& slab(std::uint32_t node);
  [[nodiscard]] ChunkState* find(std::uint32_t node, std::uint32_t slot);
  SwitchSlab& switch_slab(std::uint64_t key);
  void advance(ChunkState& s, Component c, Time at);
  void finish(std::uint32_t node, NodeSlab& n, std::uint32_t slot, ChunkState& s, Time at);

  std::size_t record_capacity_;
  std::vector<std::unique_ptr<NodeSlab>> nodes_; // indexed by node id
  std::vector<SwitchSlab> switches_;             // few entries; linear scan
  std::vector<ChunkRecord> records_;
  std::array<std::uint64_t, kComponentCount> totals_{};
  std::uint64_t closed_ = 0;
  std::uint64_t reopened_ = 0;
  std::uint64_t record_drops_ = 0;
  std::uint64_t max_residual_ = 0;
};

// True when a ledger is installed.
inline bool enabled() { return SpanLedger::current() != nullptr; }

// One-call instrumentation points for hot paths (cost model above).
inline void open(std::uint32_t node, std::uint32_t slot, std::uint64_t off, Time at) {
  if (SpanLedger* l = SpanLedger::current()) l->open(node, slot, off, at);
}
inline void transition(std::uint32_t node, std::uint32_t slot, Component c, Time at) {
  if (SpanLedger* l = SpanLedger::current()) l->transition(node, slot, c, at);
}
inline void close(std::uint32_t node, std::uint32_t slot, Time at) {
  if (SpanLedger* l = SpanLedger::current()) l->close(node, slot, at);
}
inline void transition_matching(std::uint32_t node, std::uint32_t slot, std::uint64_t off,
                                Component c, Time at) {
  if (SpanLedger* l = SpanLedger::current()) l->transition_matching(node, slot, off, c, at);
}
inline void transition_all(std::uint32_t node, Component c, Time at) {
  if (SpanLedger* l = SpanLedger::current()) l->transition_all(node, c, at);
}
inline void close_all(std::uint32_t node, Time at) {
  if (SpanLedger* l = SpanLedger::current()) l->close_all(node, at);
}
inline void contribute(std::uint32_t switch_node, std::uint32_t job, std::uint32_t ver,
                       std::uint32_t idx, std::uint32_t contributor, std::uint64_t off, Time at) {
  if (SpanLedger* l = SpanLedger::current())
    l->contribute(switch_node, job, ver, idx, contributor, off, at);
}
inline void complete_slot(std::uint32_t switch_node, std::uint32_t job, std::uint32_t ver,
                          std::uint32_t idx, std::uint64_t off, Time at) {
  if (SpanLedger* l = SpanLedger::current()) l->complete_slot(switch_node, job, ver, idx, off, at);
}
inline void sweep_switch(std::uint32_t switch_node, Component c, Time at) {
  if (SpanLedger* l = SpanLedger::current()) l->sweep_switch(switch_node, c, at);
}

} // namespace switchml::attr
