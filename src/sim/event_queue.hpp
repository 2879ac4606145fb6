// Slab-backed event queue: the storage and ordering core of the simulator.
//
// Three structures, deliberately separated:
//
//   - a RECYCLING SLAB of event records (the 64-byte EventFn closure plus
//     timer state), allocated in fixed-size chunks so a record's address
//     never changes while it is queued and growth never moves a live
//     closure. Slots are recycled through a free list when their event pops,
//     and a per-slot generation counter invalidates stale cancellation refs.
//
//   - two intrusive 4-ARY MIN-HEAPS over 16-byte keys {time, seq|id}: the
//     EVENT heap (plain events and stream heads) and the TIMER heap
//     (cancellable and daemon timers). Sifts move only keys, never closures,
//     and a 64-byte cache line holds four of them, which is exactly one 4-ary
//     node's children. A pop takes the earlier of the two tops.
//
//   - ordered STREAMS: FIFO pipes (one link direction, one NIC lane) whose
//     events are pushed in non-decreasing time order. A stream's handler is
//     given once, when it is opened; each of its events is a 24-byte entry
//     {time, seq|stream, arg} in the stream's own power-of-two ring, and
//     popping one calls the handler with the arg. Only a stream's head holds
//     a key in the event heap; when it pops, its successor in the ring is
//     keyed in its place. A link direction with a thousand packets in flight
//     costs the heap one key and the slab no record.
//
// Ordering is (time, seq) with seq a per-queue monotonic counter, i.e. FIFO
// for same-time events. Seqs are drawn at push time whatever structure the
// event lands in, and every (time, seq) key is unique, so the pop sequence is
// exactly that of one priority queue over all events: a stream's successor is
// never earlier than its head, and it is keyed the moment the head pops,
// before anything later can be popped. A push earlier than its stream's tail
// would break that, so it becomes a plain keyed event (a closure calling the
// stream's handler with the arg) instead. The seq is packed into the key's
// upper 40 bits above a 24-bit id: a slab slot, or with bit 23 set a stream.
// Since seqs are unique, key comparison IS (time, seq) comparison; a key
// compares as one unsigned 128-bit number (the time, sign bit flipped, above
// the order), and a sift picks a node's earliest child with selects, not
// branches. The counter resets only when nothing at all is queued, so the
// 40-bit budget (~1.1e12 schedules between drains) is effectively unbounded;
// it, the 2^23 slab slots and the 2^23 streams all throw rather than wrap.
//
// Cancellation drops straight to the slab: the closure is destroyed
// immediately (releasing captured resources), the record is marked dead, and
// the timer key stays behind to pop as a no-op — O(1), no heap surgery. The
// `inert` count tracks queued timer keys that will never do observable work
// (cancelled timers plus daemon events) so live() can answer "would the
// simulation go quiet?" without scanning. size() counts every queued event,
// keyed or waiting in a stream.
//
// Re-arming moves an armed timer without a second key. Each record keeps its
// target (at, seq) next to the time of its one queued key; rearm() swaps the
// closure, draws the seq a cancel + push would have drawn, and moves only
// the target. When the stale key reaches the top it is re-filed at the
// target by replacing the timer heap's top (never popping, so the queue
// cannot drain and reset the seq counter); that pop runs nothing. Since the
// key never sits later than the target and seqs are unique, every live event
// still runs at exactly the (time, seq) a cancel + push would have given it.
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

  // Index of a stream in this queue. Streams live as long as the queue.
  using StreamId = std::uint32_t;

  // Cancellation handle contents: slab slot + generation. Refs outlive their
  // event harmlessly — the generation check makes stale refs inert.
  struct Ref {
    std::uint32_t slot = kNoSlot;
    std::uint32_t gen = 0;
  };

  // 16-byte heap key. `order` packs (seq << 24) | id, where the id is a slab
  // slot or, with kStreamBit set, a stream: unique seqs make the comparison
  // equivalent to (at, seq), and the id rides along for free.
  struct Key {
    Time at;
    std::uint64_t order;
  };

  // (at, order) order, as one unsigned 128-bit comparison: flipping the
  // time's sign bit maps signed order onto unsigned order.
  static bool earlier(const Key& a, const Key& b) { return rank(a) < rank(b); }

  // Index of the earliest of c[0..3] (the first of equals), chosen by
  // selects so that a sift does not mispredict on its children.
  static std::size_t earliest_of_four(const Key* c) {
    const Rank r0 = rank(c[0]);
    const Rank r1 = rank(c[1]);
    const Rank r2 = rank(c[2]);
    const Rank r3 = rank(c[3]);
    const bool b1 = r1 < r0;
    const bool b3 = r3 < r2;
    const Rank lo = b1 ? r1 : r0;
    const Rank hi = b3 ? r3 : r2;
    const std::size_t ilo = b1;
    const std::size_t ihi = 2 + static_cast<std::size_t>(b3);
    const std::size_t pick_hi = -static_cast<std::size_t>(hi < lo); // all ones or zero
    return ilo ^ ((ilo ^ ihi) & pick_hi);
  }

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules a plain (non-cancellable) event. The callable is constructed
  // directly in its slab record (no intermediate EventFn relocation);
  // passing an EventFn moves it in.
  template <typename F>
  void push(Time at, F&& fn) {
    const std::uint32_t slot = acquire_slot();
    set_fn(record(slot), std::forward<F>(fn));
    sift_push(heap_, Key{at, draw_order(slot)});
  }

  // Opens an empty stream whose entries each run `handler(arg)`. Its ring
  // is allocated by its first push.
  StreamId open_stream(StreamFn handler) {
    if (streams_.size() >= kStreamBit) throw_too_many_streams();
    streams_.emplace_back(handler);
    return static_cast<StreamId>(streams_.size() - 1);
  }

  // Schedules an entry on stream `s` that runs the stream's handler with
  // `arg`: the same (time, seq) order as push(), but the entry takes a heap
  // key only once it heads its stream. A push earlier than the stream's tail
  // is a plain push of a closure that calls the handler.
  void push_stream(StreamId s, Time at, std::uint64_t arg) {
    Stream& st = streams_[s];
    if (st.size != 0 && at < st.ring[(st.head + st.size - 1) & (st.capacity - 1)].at) {
      push(at, [handler = st.handler, arg] { handler(arg); });
      return;
    }
    if (st.size == st.capacity) grow_ring(st);
    const std::uint64_t order = draw_order(kStreamBit | s);
    st.ring[(st.head + st.size) & (st.capacity - 1)] = Entry{at, order, arg};
    if (st.size++ == 0) {
      sift_push(heap_, Key{at, order});
    } else {
      ++waiting_;
    }
  }

  // Schedules a cancellable event. `daemon` events are inert from birth:
  // they run, but never count as live work.
  template <typename F>
  Ref push_timer(Time at, F&& fn, bool daemon) {
    const std::uint32_t slot = acquire_slot();
    Record& rec = record(slot);
    set_fn(rec, std::forward<F>(fn));
    rec.armed = true;
    rec.daemon = daemon;
    inert_ += static_cast<std::uint64_t>(daemon);
    rec.target = Key{at, draw_order(slot)};
    rec.keyed_at = at;
    sift_push(timers_, rec.target);
    return Ref{slot, rec.gen};
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

  [[nodiscard]] bool empty() const { return heap_.empty() && timers_.empty(); }
  // Every queued event: keyed, waiting in a stream, or a timer key.
  [[nodiscard]] std::size_t size() const { return heap_.size() + waiting_ + timers_.size(); }
  // Keys in the event heap: plain events and stream heads.
  [[nodiscard]] std::size_t keyed() const { return heap_.size(); }
  [[nodiscard]] std::size_t streams() const { return streams_.size(); }

  // Queued events that will still do observable work (excludes cancelled
  // timers and daemons). Throws if the inert bookkeeping ever drifts past
  // the queue size — the alternative is a silent unsigned wrap that would
  // make "has the sim live work?" answer yes forever.
  [[nodiscard]] std::uint64_t live() const {
    if (inert_ > size()) throw_inert_drift();
    return size() - inert_;
  }

  // Earliest queued time; queue must be non-empty.
  [[nodiscard]] Time next_time() const {
    if (timers_.empty()) return heap_[0].at;
    if (heap_.empty()) return timers_[0].at;
    return heap_[0].at < timers_[0].at ? heap_[0].at : timers_[0].at;
  }

  // Pops the earliest event and — for live events — runs it after calling
  // `on_live(at, daemon)` (the caller's chance to advance its clock first).
  // A plain event or timer runs its closure IN PLACE in the slab: chunked
  // slab storage never moves a record, and the slot is withheld from the
  // free list until the closure returns, so callbacks scheduling new events
  // (even re-arming themselves) cannot overwrite the running closure. A
  // stream entry leaves its ring, and its successor is keyed, before the
  // handler (copied out of the stream table) runs, so a handler may push
  // onto its own stream or open another. Returns true iff a live event ran;
  // cancelled events and re-filed keys of re-armed timers are skipped
  // without invoking `on_live`.
  template <typename OnLive>
  bool pop_and_run(OnLive&& on_live) {
    if (!timers_.empty() && (heap_.empty() || earlier(timers_[0], heap_[0])))
      return pop_timer(on_live);
    const Key top = heap_[0];
    const auto id = static_cast<std::uint32_t>(top.order & kIdMask);
    if ((id & kStreamBit) != 0) return pop_stream(top.at, id ^ kStreamBit, on_live);
    sift_pop(heap_);
    if (empty()) next_seq_ = 0; // drained: reclaim the 40-bit seq budget
    on_live(top.at, false);
    // Release the slot even if the closure throws (matching the old
    // move-out-then-run behaviour, where the event was gone either way).
    const SlotRelease release{this, id};
    record(id).fn();
    return true;
  }

private:
  using Rank = unsigned __int128;
  static Rank rank(const Key& k) {
    const std::uint64_t at = static_cast<std::uint64_t>(k.at) ^ (1ull << 63);
    return (static_cast<Rank>(at) << 64) | k.order;
  }

  static constexpr std::uint32_t kIdBits = 24;
  static constexpr std::uint64_t kIdMask = (1ull << kIdBits) - 1;
  static constexpr std::uint32_t kStreamBit = 1u << (kIdBits - 1);
  static constexpr std::uint64_t kMaxSeq = 1ull << (64 - kIdBits);
  static constexpr std::size_t kArity = 4;
  // 1024 records per chunk: growth allocates one chunk, never relocates.
  static constexpr std::uint32_t kChunkShift = 10;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  // 96 bytes: the 64-byte closure, the target key, the queued key's time
  // (timers; never later than the target), and the timer state.
  struct Record {
    EventFn fn;
    Key target{};
    Time keyed_at = 0;
    std::uint32_t gen = 0;
    bool armed = false;
    bool daemon = false;
  };
  static_assert(sizeof(Record) == 96);

  // A queued stream event: its time, its key's order and the handler's arg.
  struct Entry {
    Time at;
    std::uint64_t order;
    std::uint64_t arg;
  };
  static_assert(sizeof(Entry) == 24);

  // Entries [head, head + size) of the ring, modulo its power-of-two
  // capacity (0 until the first push), in push order.
  struct Stream {
    explicit Stream(StreamFn h) : handler(h) {}
    StreamFn handler;
    std::unique_ptr<Entry[]> ring;
    std::uint32_t capacity = 0;
    std::uint32_t head = 0;
    std::uint32_t size = 0;
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

  std::uint64_t draw_order(std::uint32_t id) {
    if (next_seq_ >= kMaxSeq) throw_seq_overflow();
    return (next_seq_++ << kIdBits) | id;
  }

  template <typename OnLive>
  bool pop_stream(Time at, StreamId s, OnLive& on_live) {
    Stream& st = streams_[s];
    const std::uint64_t arg = st.ring[st.head].arg;
    st.head = (st.head + 1) & (st.capacity - 1);
    if (--st.size != 0) { // key the stream's successor in the head's place
      const Entry& next = st.ring[st.head];
      sift_down(heap_, 0, Key{next.at, next.order});
      --waiting_;
    } else {
      sift_pop(heap_);
      if (empty()) next_seq_ = 0;
    }
    const StreamFn handler = st.handler; // `st` may move while it runs
    on_live(at, false);
    handler(arg);
    return true;
  }

  template <typename OnLive>
  bool pop_timer(OnLive& on_live) {
    const Key top = timers_[0];
    const auto slot = static_cast<std::uint32_t>(top.order & kIdMask);
    Record& rec = record(slot);
    const bool live = rec.armed;
    const bool daemon = rec.daemon;
    if (live && top.order != rec.target.order) {
      rec.keyed_at = rec.target.at; // re-armed: move the one key to the target
      sift_down(timers_, 0, rec.target);
      return false;
    }
    sift_pop(timers_);
    inert_ -= static_cast<std::uint64_t>(!live | rec.daemon);
    ++rec.gen; // the slot's one queued key is gone: refs die, slot recycles
    rec.armed = false;
    rec.daemon = false;
    if (empty()) next_seq_ = 0;
    if (!live) {
      free_.push_back(slot);
      return false;
    }
    on_live(top.at, daemon);
    const SlotRelease release{this, slot};
    rec.fn();
    return true;
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

  static void sift_push(std::vector<Key>& heap, Key k) {
    std::size_t i = heap.size();
    heap.push_back(k);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!earlier(k, heap[parent])) break;
      heap[i] = heap[parent];
      i = parent;
    }
    heap[i] = k;
  }

  static void sift_pop(std::vector<Key>& heap) {
    const Key last = heap.back();
    heap.pop_back();
    if (!heap.empty()) sift_down(heap, 0, last);
  }

  // Places `k` at position `i` (whose old key is discarded), moving it down
  // past any earlier children.
  static void sift_down(std::vector<Key>& heap, std::size_t i, Key k) {
    Key* const h = heap.data();
    const std::size_t n = heap.size();
    for (;;) {
      const std::size_t first = i * kArity + 1;
      std::size_t best = first;
      if (first + kArity <= n) {
        best += earliest_of_four(h + first);
      } else {
        if (first >= n) break;
        for (std::size_t c = first + 1; c < n; ++c)
          if (earlier(h[c], h[best])) best = c;
      }
      if (!earlier(h[best], k)) break;
      h[i] = h[best];
      i = best;
    }
    h[i] = k;
  }

  // Cold paths live in event_queue.cpp.
  std::uint32_t grow_slab();
  static void grow_ring(Stream& st);
  [[noreturn]] static void throw_seq_overflow();
  [[noreturn]] static void throw_slab_full();
  [[noreturn]] static void throw_too_many_streams();
  [[noreturn]] static void throw_inert_drift();

  std::vector<std::unique_ptr<Record[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::vector<Key> heap_;   // plain events and stream heads
  std::vector<Key> timers_; // cancellable and daemon timers
  std::vector<Stream> streams_;
  std::uint64_t waiting_ = 0; // stream entries behind their stream's head
  std::uint64_t next_seq_ = 0;
  std::uint64_t inert_ = 0;
  std::uint32_t slot_count_ = 0;
};

} // namespace switchml::sim
