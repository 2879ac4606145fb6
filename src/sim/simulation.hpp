// Discrete-event simulation core.
//
// A Simulation owns a virtual clock (integer nanoseconds) and a time-ordered
// event queue. Events scheduled for the same instant run in scheduling order
// (FIFO tie-break), which keeps runs deterministic.
//
// The queue itself is an EventQueue (sim/event_queue.hpp): a recycling slab
// of allocation-free EventFn closures ordered by two intrusive 4-ary
// min-heaps over 16-byte keys (one for events, one for timers), with ordered
// streams that key only their head and keep their entries, each a time, a
// seq and one arg for the stream's handler, in their own ring. Scheduling an
// event therefore never heap-allocates (beyond amortized slab, heap and ring
// growth), and the Simulation is a thin facade — clock, run loop, and the
// daemon/live-work contract — over the queue seam that a future sharded
// (per-rack) engine will plug into.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "sim/event_fn.hpp"
#include "sim/event_queue.hpp"

namespace switchml::sim {

using switchml::Time;

class Simulation;

// Handle to a scheduled event that may be cancelled or re-armed (used for
// protocol retransmission timers). Cancellation is O(1): the closure is
// destroyed immediately in the slab and the queued heap key pops later as a
// no-op. Simulation::rearm_timer moves an armed timer without a second key.
//
// The handle is a (slot, generation) ref into the EventQueue's slab rather
// than a shared_ptr control block, so scheduling a timer does no heap
// allocation. A slot is recycled only when its event pops, and popping bumps
// the generation, so stale handles (cancel or armed() after the timer fired)
// are detected and inert.
class TimerHandle {
public:
  TimerHandle() = default;

  void cancel() {
    if (queue_ != nullptr) queue_->cancel(ref_);
  }
  [[nodiscard]] bool armed() const { return queue_ != nullptr && queue_->armed(ref_); }

private:
  friend class Simulation;
  TimerHandle(EventQueue* queue, EventQueue::Ref ref) : queue_(queue), ref_(ref) {}

  EventQueue* queue_ = nullptr;
  EventQueue::Ref ref_{};
};

// An ordered event stream: a FIFO pipe such as one link direction or one NIC
// lane, opened with Simulation::open_stream.
using StreamId = EventQueue::StreamId;

class Simulation {
public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] Time now() const { return now_; }

  // Time of the last non-daemon event run (0 before any). A daemon that
  // runs after the last live event, such as a sampler's closing tick,
  // advances now() but not this, so it is when the simulated work ended.
  [[nodiscard]] Time last_live_at() const { return last_live_at_; }

  // Schedules `fn` to run at absolute time `at` (>= now). The callable must
  // fit EventFn's inline buffer (48 bytes, compile-time checked): it is
  // constructed straight into the event slab, so scheduling never
  // heap-allocates.
  template <typename F>
  void schedule_at(Time at, F&& fn) {
    check_not_past(at);
    queue_.push(at, std::forward<F>(fn));
  }

  // Opens an ordered event stream for one FIFO pipe; each of its events
  // runs `handler(arg)` with the arg it was scheduled with. The handler is
  // stored once, here (see StreamFn for what it may capture). Streams live
  // as long as the Simulation.
  [[nodiscard]] StreamId open_stream(StreamFn handler) { return queue_.open_stream(handler); }

  // Equivalent to schedule_at(at, [=] { handler(arg); }) with the handler of
  // stream `s` — the same (time, seq) order and counts — but the event is a
  // 24-byte entry in the stream's ring. A stream holds one heap key however
  // many events it queues, so a pipe's events should be pushed in
  // non-decreasing time order; one earlier than the stream's last is queued
  // as a plain event.
  void schedule_on(StreamId s, Time at, std::uint64_t arg) {
    check_not_past(at);
    queue_.push_stream(s, at, arg);
  }

  // Schedules `fn` to run `delay` ns from now.
  template <typename F>
  void schedule_after(Time delay, F&& fn) {
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  // Schedules a cancellable event.
  template <typename F>
  TimerHandle schedule_timer(Time delay, F&& fn) {
    return TimerHandle(&queue_, queue_.push_timer(now_ + delay, std::forward<F>(fn), false));
  }

  // Equivalent to `h.cancel(); return schedule_timer(delay, fn);` — the
  // same (time, seq) order, live count and handle states (copies of `h` go
  // stale) — but a still-armed timer moves in place and keeps its one queued
  // key, so a timer re-armed on every packet does not leave a cancelled key
  // behind each time. The key is re-filed at the new target when it pops,
  // which runs nothing and does not count as an executed event. A fired,
  // cancelled, default or daemon handle, or a target earlier than the
  // queued key, takes the cancel + schedule path.
  template <typename F>
  TimerHandle rearm_timer(TimerHandle h, Time delay, F&& fn) {
    // rearm() consumes `fn` only when it returns true, so forwarding it
    // again on the fallback path is safe.
    if (h.queue_ == &queue_ && queue_.rearm(h.ref_, now_ + delay, std::forward<F>(fn))) return h;
    h.cancel();
    return schedule_timer(delay, std::forward<F>(fn));
  }

  // Schedules a cancellable *daemon* event: one that does not count as live
  // work (see live_pending_events). Periodic background activities (e.g. the
  // telemetry sampler in common/timeline.hpp) use daemon timers so they can
  // observe "has the simulation any real work left?" and stop re-arming,
  // letting run() drain naturally instead of ticking forever.
  template <typename F>
  TimerHandle schedule_daemon_timer(Time delay, F&& fn) {
    return TimerHandle(&queue_, queue_.push_timer(now_ + delay, std::forward<F>(fn), true));
  }

  // Runs until the queue is empty or stop() is called. Returns the number of
  // events executed.
  std::uint64_t run();

  // Runs until simulated time reaches `deadline` (events at exactly
  // `deadline` still run), the queue drains, or stop() is called.
  std::uint64_t run_until(Time deadline);

  void stop() { stopped_ = true; }
  [[nodiscard]] bool stopped() const { return stopped_; }

  // Live events run; cancelled and re-filed keys are not counted.
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }
  // Queued events, inert ones and those waiting in a stream included. A
  // timer holds one key however often it is re-armed.
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  // Keys in the event heap: plain events and stream heads, not timers and
  // not a stream's waiting entries.
  [[nodiscard]] std::size_t keyed_events() const { return queue_.keyed(); }
  [[nodiscard]] std::size_t stream_count() const { return queue_.streams(); }

  // Queued events that will still do observable work: excludes cancelled
  // timers (queued but inert) and daemon events. Zero means the simulation
  // would go quiet if nothing else is scheduled. Throws std::logic_error if
  // the inert bookkeeping ever drifts past the queue size (instead of the
  // silent unsigned wrap a subtraction would produce).
  [[nodiscard]] std::uint64_t live_pending_events() const { return queue_.live(); }

private:
  bool dispatch_one();
  void check_not_past(Time at) const;

  EventQueue queue_;
  Time now_ = 0;
  Time last_live_at_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
};

} // namespace switchml::sim
