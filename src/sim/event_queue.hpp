// Slab-backed event queue: the storage and ordering core of the simulator.
//
// Two structures, deliberately separated:
//
//   - a RECYCLING SLAB of event records (the 64-byte EventFn closure plus
//     timer state), allocated in fixed-size chunks so a record's address
//     never changes while it is queued and growth never moves a live
//     closure. Slots are recycled through a free list when their event pops,
//     and a per-slot generation counter invalidates stale cancellation refs.
//
//   - an intrusive 4-ARY MIN-HEAP over 16-byte keys {time, seq|slot}. Sifts
//     move only keys — never closures — and a 64-byte cache line holds four
//     of them, which is exactly one 4-ary node's children: a sift-down
//     compares all four with a single line fetch, and the tree is half the
//     depth of a binary heap. (The old std::priority_queue<Event> sifted
//     whole events, moving a std::function at every level.)
//
// Ordering is (time, seq) with seq a per-queue monotonic counter, i.e. FIFO
// for same-time events — identical to the previous engine, so same-seed runs
// stay bit-identical. The seq is packed into the key's upper 40 bits above a
// 24-bit slot index; since seqs are unique, key comparison IS (time, seq)
// comparison. The counter resets whenever the queue drains, so the 40-bit
// budget (~1.1e12 schedules between drains) is effectively unbounded; both
// limits throw rather than wrap.
//
// Cancellation drops straight to the slab: the closure is destroyed
// immediately (releasing captured resources), the record is marked dead, and
// the heap key stays behind to pop as a no-op — O(1), no heap surgery. The
// `inert` count tracks queued keys that will never do observable work
// (cancelled timers plus daemon events) so live() can answer "would the
// simulation go quiet?" without scanning.
//
// Re-arming moves an armed timer without a second key. Each record keeps its
// target (at, seq) next to the time of its one queued key; rearm() swaps the
// closure, draws the seq a cancel + push would have drawn, and moves only
// the target. When the stale key reaches the top it is re-filed at the
// target by replacing the heap top (never popping, so the heap cannot drain
// and reset the seq counter); that pop runs nothing. Since the key never
// sits later than the target and seqs are unique, every live event still
// runs at exactly the (time, seq) a cancel + push would have given it.
//
// Each queue carries a DOMAIN id and its own seq counter. This is the seam
// for the planned per-rack sharded engine: one EventQueue per shard domain,
// merged on (time, domain, seq), with no caller-visible change — callers
// already go through the Simulation facade only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "sim/event_fn.hpp"

namespace switchml::sim {

using switchml::Time;

class EventQueue {
public:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  // Cancellation handle contents: slab slot + generation. Refs outlive their
  // event harmlessly — the generation check makes stale refs inert.
  struct Ref {
    std::uint32_t slot = kNoSlot;
    std::uint32_t gen = 0;
  };

  explicit EventQueue(std::uint32_t domain = 0) : domain_(domain) {}
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules a plain (non-cancellable) event. The callable is constructed
  // directly in its slab record (no intermediate EventFn relocation);
  // passing an EventFn moves it in.
  template <typename F>
  void push(Time at, F&& fn) {
    push_record(at, std::forward<F>(fn), false);
  }

  // Schedules a cancellable event. `daemon` events are inert from birth:
  // they run, but never count as live work.
  template <typename F>
  Ref push_timer(Time at, F&& fn, bool daemon) {
    const std::uint32_t slot = push_record(at, std::forward<F>(fn), daemon);
    return Ref{slot, record(slot).gen};
  }

  // Moves armed, non-daemon timer `r` to fire at `at` running `fn`, keeping
  // its one heap key, and points `r` at the moved timer (the generation
  // bump kills other copies of the old ref, as a cancel would). Returns
  // false — touching nothing, `fn` unconsumed — when the key cannot be kept:
  // the ref is stale or cancelled, the timer is a daemon, or `at` is earlier
  // than the key already queued. The caller then falls back to cancel +
  // push_timer.
  template <typename F>
  bool rearm(Ref& r, Time at, F&& fn) {
    if (r.slot == kNoSlot) return false;
    Record& rec = record(r.slot);
    if (rec.gen != r.gen || !rec.armed || rec.daemon || at < rec.keyed_at) return false;
    const std::uint64_t order = draw_order(r.slot);
    set_fn(rec, std::forward<F>(fn));
    rec.target = Key{at, order};
    r.gen = ++rec.gen;
    return true;
  }

  // O(1) cancel: destroys the closure now, leaves the key to pop inert.
  // Returns false (no-op) for stale or already-cancelled refs.
  bool cancel(Ref r) {
    if (r.slot == kNoSlot) return false;
    Record& rec = record(r.slot);
    if (rec.gen != r.gen || !rec.armed) return false;
    rec.fn.reset();
    rec.armed = false;
    // A cancelled daemon was already inert; don't count it twice.
    inert_ += static_cast<std::uint64_t>(!rec.daemon);
    return true;
  }

  [[nodiscard]] bool armed(Ref r) const {
    return r.slot != kNoSlot && record(r.slot).gen == r.gen && record(r.slot).armed;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  // Queued events that will still do observable work (excludes cancelled
  // timers and daemons). Throws if the inert bookkeeping ever drifts past
  // the queue size — the alternative is a silent unsigned wrap that would
  // make "has the sim live work?" answer yes forever.
  [[nodiscard]] std::uint64_t live() const {
    if (inert_ > heap_.size()) throw_inert_drift();
    return heap_.size() - inert_;
  }

  // Earliest queued time; queue must be non-empty.
  [[nodiscard]] Time next_time() const { return heap_[0].at; }

  [[nodiscard]] std::uint32_t domain() const { return domain_; }

  // Pops the earliest event, recycles its slot (invalidating refs to it),
  // and — for live events — invokes its closure IN PLACE in the slab after
  // calling `on_live(at, daemon)` (the caller's chance to advance its clock
  // first).
  // In-place dispatch skips the closure relocation a move-out would cost;
  // it is safe because chunked slab storage never moves a record, and the
  // slot is withheld from the free list until the closure returns, so
  // callbacks scheduling new events (even re-arming themselves) cannot
  // overwrite the running closure. Returns true iff a live event ran;
  // cancelled events and re-filed keys of re-armed timers are skipped
  // without invoking `on_live`.
  template <typename OnLive>
  bool pop_and_run(OnLive&& on_live) {
    const Key top = heap_[0];
    const auto slot = static_cast<std::uint32_t>(top.order & kSlotMask);
    Record& rec = record(slot);
    const bool live = rec.armed;
    const bool daemon = rec.daemon;
    if (live && top.order != rec.target.order) {
      rec.keyed_at = rec.target.at; // re-armed: move the one key to the target
      sift_down(0, rec.target);
      return false;
    }
    sift_pop();
    inert_ -= static_cast<std::uint64_t>(!live | rec.daemon);
    ++rec.gen; // the slot's one queued key is gone: refs die, slot recycles
    rec.armed = false;
    rec.daemon = false;
    if (heap_.empty()) next_seq_ = 0; // drained: reclaim the 40-bit seq budget
    if (!live) {
      free_.push_back(slot);
      return false;
    }
    on_live(top.at, daemon);
    // Release the slot even if the closure throws (matching the old
    // move-out-then-run behaviour, where the event was gone either way).
    const SlotRelease release{this, slot};
    rec.fn();
    return true;
  }

private:
  // 16-byte heap key. `order` packs (seq << 24) | slot: unique seqs make the
  // comparison equivalent to (at, seq), and the slot rides along for free.
  struct Key {
    Time at;
    std::uint64_t order;
  };
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = 1ull << (64 - kSlotBits);
  static constexpr std::size_t kArity = 4;
  // 1024 records per chunk: growth allocates one chunk, never relocates.
  static constexpr std::uint32_t kChunkShift = 10;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  // 96 bytes: the 64-byte closure, the target key, the queued key's time
  // (never later than the target) and the timer state.
  struct Record {
    EventFn fn;
    Key target{};
    Time keyed_at = 0;
    std::uint32_t gen = 0;
    bool armed = false;
    bool daemon = false;
  };

  [[nodiscard]] Record& record(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }
  [[nodiscard]] const Record& record(std::uint32_t slot) const {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  template <typename F>
  static void set_fn(Record& rec, F&& fn) {
    if constexpr (std::is_same_v<std::decay_t<F>, EventFn>) {
      rec.fn = std::forward<F>(fn);
    } else {
      rec.fn.emplace(std::forward<F>(fn)); // built in place: no relocation
    }
  }

  std::uint64_t draw_order(std::uint32_t slot) {
    if (next_seq_ >= kMaxSeq) throw_seq_overflow();
    return (next_seq_++ << kSlotBits) | slot;
  }

  template <typename F>
  std::uint32_t push_record(Time at, F&& fn, bool daemon) {
    const std::uint32_t slot = acquire_slot();
    Record& rec = record(slot);
    set_fn(rec, std::forward<F>(fn));
    rec.armed = true;
    rec.daemon = daemon;
    inert_ += static_cast<std::uint64_t>(daemon);
    rec.target = Key{at, draw_order(slot)};
    rec.keyed_at = at;
    sift_push(rec.target);
    return slot;
  }

  // Scope guard: returns a slot to the free list (destroying its closure)
  // when an in-place dispatch finishes, even by exception.
  struct SlotRelease {
    EventQueue* q;
    std::uint32_t slot;
    ~SlotRelease() {
      q->record(slot).fn.reset();
      q->free_.push_back(slot);
    }
  };

  std::uint32_t acquire_slot() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    return grow_slab();
  }

  static bool earlier(const Key& a, const Key& b) {
    return a.at != b.at ? a.at < b.at : a.order < b.order;
  }

  void sift_push(Key k) {
    std::size_t i = heap_.size();
    heap_.push_back(k);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!earlier(k, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = k;
  }

  void sift_pop() {
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
  }

  // Places `k` at position `i` (whose old key is discarded), moving it down
  // past any earlier children.
  void sift_down(std::size_t i, Key k) {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      const std::size_t end = first + kArity < n ? first + kArity : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c)
        if (earlier(heap_[c], heap_[best])) best = c;
      if (!earlier(heap_[best], k)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = k;
  }

  // Cold paths live in event_queue.cpp.
  std::uint32_t grow_slab();
  [[noreturn]] static void throw_seq_overflow();
  [[noreturn]] static void throw_slab_full();
  [[noreturn]] static void throw_inert_drift();

  std::vector<std::unique_ptr<Record[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::vector<Key> heap_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t inert_ = 0;
  std::uint32_t slot_count_ = 0;
  std::uint32_t domain_ = 0;
};

} // namespace switchml::sim
