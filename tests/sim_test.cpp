// Unit tests for the discrete-event engine: ordering, timers, cancellation,
// ordered event streams, EventFn closure semantics, determinism of named RNG
// streams, and a randomized fuzz that cross-checks the slab/4-ary-heap engine
// against a std::priority_queue reference implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <random>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"

namespace switchml::sim {
namespace {

TEST(Simulation, RunsEventsInTimeOrder) {
  Simulation s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(Simulation, SameTimeEventsRunFifo) {
  Simulation s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) s.schedule_at(5, [&order, i] { order.push_back(i); });
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, ScheduleAfterIsRelative) {
  Simulation s;
  Time seen = -1;
  s.schedule_at(100, [&] { s.schedule_after(50, [&] { seen = s.now(); }); });
  s.run();
  EXPECT_EQ(seen, 150);
}

TEST(Simulation, SchedulingInThePastThrows) {
  Simulation s;
  s.schedule_at(100, [&] {
    EXPECT_THROW(s.schedule_at(50, [] {}), std::invalid_argument);
  });
  s.run();
}

TEST(Simulation, NestedEventsFromHandlers) {
  Simulation s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) s.schedule_after(1, recurse);
  };
  s.schedule_at(0, recurse);
  s.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.now(), 99);
}

TEST(Simulation, TimerCancellationPreventsExecution) {
  Simulation s;
  bool fired = false;
  TimerHandle t = s.schedule_timer(100, [&] { fired = true; });
  s.schedule_at(50, [&] { t.cancel(); });
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(t.armed());
}

TEST(Simulation, TimerFiresWhenNotCancelled) {
  Simulation s;
  bool fired = false;
  TimerHandle t = s.schedule_timer(100, [&] { fired = true; });
  EXPECT_TRUE(t.armed());
  s.run();
  EXPECT_TRUE(fired);
}

TEST(Simulation, CancelAfterFireIsHarmless) {
  Simulation s;
  TimerHandle t = s.schedule_timer(10, [] {});
  s.run();
  t.cancel(); // no-op
  EXPECT_FALSE(t.armed());
}

TEST(Simulation, DefaultTimerHandleIsInert) {
  TimerHandle t;
  EXPECT_FALSE(t.armed());
  t.cancel(); // must not crash
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) s.schedule_at(i * 10, [&] { ++count; });
  s.run_until(50);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.now(), 50);
  s.run();
  EXPECT_EQ(count, 10);
}

TEST(Simulation, RunUntilAdvancesClockWhenIdle) {
  Simulation s;
  s.run_until(1234);
  EXPECT_EQ(s.now(), 1234);
}

TEST(Simulation, StopHaltsTheLoop) {
  Simulation s;
  int count = 0;
  for (int i = 1; i <= 10; ++i)
    s.schedule_at(i, [&] {
      if (++count == 3) s.stop();
    });
  s.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.pending_events(), 7u);
}

TEST(Simulation, CountsExecutedEvents) {
  Simulation s;
  for (int i = 0; i < 5; ++i) s.schedule_at(i, [] {});
  s.run();
  EXPECT_EQ(s.events_executed(), 5u);
}

TEST(Simulation, StaleHandleCannotCancelRecycledSlot) {
  // After a timer fires, its slab slot is recycled. A stale handle to the
  // fired timer must not be able to cancel whatever new timer now occupies
  // that slot (generation check).
  Simulation s;
  TimerHandle stale = s.schedule_timer(1, [] {});
  s.run();
  bool fired = false;
  TimerHandle fresh = s.schedule_timer(1, [&] { fired = true; });
  stale.cancel();
  EXPECT_FALSE(stale.armed());
  EXPECT_TRUE(fresh.armed());
  s.run();
  EXPECT_TRUE(fired);
}

TEST(Simulation, DaemonTimersAreNotLiveWork) {
  Simulation s;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    if (s.live_pending_events() > 0) s.schedule_daemon_timer(10, tick);
  };
  s.schedule_daemon_timer(10, tick);
  s.schedule_at(35, [] {});
  EXPECT_EQ(s.live_pending_events(), 1u);
  EXPECT_EQ(s.pending_events(), 2u);
  s.run();
  // Ticks at 10, 20, 30 see the live event pending; the tick at 40 sees no
  // live work and does not re-arm, so the run drains.
  EXPECT_EQ(ticks, 4);
}

TEST(Simulation, LastLiveAtSkipsADaemonAfterTheLastLiveEvent) {
  Simulation s;
  EXPECT_EQ(s.last_live_at(), 0);
  s.schedule_at(35, [] {});
  s.schedule_daemon_timer(40, [] {});
  s.schedule_timer(50, [] {}).cancel();
  s.run();
  EXPECT_EQ(s.now(), 40);
  EXPECT_EQ(s.last_live_at(), 35);
}

// ---- rearm_timer: one queued key per timer, cancel + schedule order --------

TEST(Simulation, ManyRearmsKeepOneKeyAndFireOnceAtTheLastTarget) {
  Simulation s;
  std::vector<Time> fired;
  TimerHandle t = s.schedule_timer(10, [&] { fired.push_back(-1); });
  for (Time i = 0; i < 1000; ++i) {
    // Moving the clock past the queued key re-files it without running it.
    s.run_until(i);
    const TimerHandle before = t;
    t = s.rearm_timer(t, 10, [&] { fired.push_back(s.now()); });
    ASSERT_EQ(s.pending_events(), 1u) << "re-arm " << i;
    ASSERT_EQ(s.live_pending_events(), 1u);
    ASSERT_TRUE(t.armed());
    ASSERT_FALSE(before.armed()) << "a copy of the old handle must go stale";
  }
  EXPECT_EQ(s.events_executed(), 0u);
  s.run();
  EXPECT_EQ(fired, std::vector<Time>{999 + 10});
  EXPECT_EQ(s.events_executed(), 1u);
  EXPECT_EQ(s.now(), 1009);
  EXPECT_FALSE(t.armed());
}

TEST(Simulation, RearmEarlierThanTheQueuedKeyFiresEarly) {
  Simulation s;
  std::vector<int> fired;
  TimerHandle t = s.schedule_timer(100, [&] { fired.push_back(0); });
  t = s.rearm_timer(t, 50, [&] { fired.push_back(1); });
  // Cancel + schedule: the old key stays queued, inert.
  EXPECT_EQ(s.pending_events(), 2u);
  EXPECT_EQ(s.live_pending_events(), 1u);
  s.run();
  EXPECT_EQ(fired, std::vector<int>{1});
  EXPECT_EQ(s.now(), 50); // the inert key at 100 does not move the clock
}

TEST(Simulation, RearmOfFiredCancelledOrDefaultHandleSchedulesAfresh) {
  Simulation s;
  std::vector<int> fired;
  TimerHandle fired_handle = s.schedule_timer(1, [] {});
  s.run();
  TimerHandle cancelled = s.schedule_timer(5, [&] { fired.push_back(-1); });
  cancelled.cancel();
  TimerHandle none;
  fired_handle = s.rearm_timer(fired_handle, 10, [&] { fired.push_back(0); });
  cancelled = s.rearm_timer(cancelled, 10, [&] { fired.push_back(1); });
  none = s.rearm_timer(none, 10, [&] { fired.push_back(2); });
  EXPECT_TRUE(fired_handle.armed());
  EXPECT_TRUE(cancelled.armed());
  EXPECT_TRUE(none.armed());
  EXPECT_EQ(s.live_pending_events(), 3u);
  s.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
}

TEST(Simulation, RearmFromInsideTheTimersOwnClosure) {
  Simulation s;
  std::vector<Time> fired;
  TimerHandle t;
  std::function<void()> tick = [&] {
    fired.push_back(s.now());
    // The running timer's handle is already stale: this schedules afresh.
    if (fired.size() < 4) t = s.rearm_timer(t, 7, tick);
  };
  t = s.schedule_timer(7, tick);
  s.run();
  EXPECT_EQ(fired, (std::vector<Time>{7, 14, 21, 28}));
  EXPECT_EQ(s.events_executed(), 4u);
  EXPECT_FALSE(t.armed());
}

TEST(Simulation, RearmTieWithAPlainEventKeepsScheduleOrder) {
  // A plain event pushed between two re-arms to the same time runs before
  // the timer (the second re-arm drew the later seq); pushed after the last
  // re-arm, it runs after.
  Simulation s;
  std::vector<char> order;
  TimerHandle t = s.schedule_timer(10, [&] { order.push_back('x'); });
  t = s.rearm_timer(t, 20, [&] { order.push_back('a'); });
  s.schedule_at(20, [&] { order.push_back('p'); });
  t = s.rearm_timer(t, 20, [&] { order.push_back('t'); });
  s.schedule_at(20, [&] { order.push_back('q'); });
  EXPECT_EQ(s.pending_events(), 3u);
  s.run();
  EXPECT_EQ(order, (std::vector<char>{'p', 't', 'q'}));
}

TEST(Simulation, StreamKeysOnlyItsHeadButCountsEveryEntry) {
  Simulation s;
  std::vector<int> order;
  const StreamId a =
      s.open_stream([&order](std::uint64_t arg) { order.push_back(static_cast<int>(arg)); });
  const StreamId b = s.open_stream([&order](std::uint64_t) { order.push_back(-1); });
  for (int i = 0; i < 100; ++i) s.schedule_on(a, 10 + i, static_cast<std::uint64_t>(i));
  s.schedule_on(b, 50, 0);
  s.schedule_at(20, [&order] { order.push_back(-2); });
  EXPECT_EQ(s.stream_count(), 2u);
  EXPECT_EQ(s.keyed_events(), 3u); // two heads and the plain event
  EXPECT_EQ(s.pending_events(), 102u);
  EXPECT_EQ(s.live_pending_events(), 102u);
  s.run_until(30);
  EXPECT_EQ(s.keyed_events(), 2u);
  EXPECT_EQ(s.pending_events(), 80u);
  s.run();
  ASSERT_EQ(order.size(), 102u);
  EXPECT_EQ(order[11], -2); // after the stream's entry at 20: it was pushed first
  EXPECT_EQ(order[42], -1); // after entry 40 (at 50), before entry 41
  EXPECT_EQ(s.keyed_events(), 0u);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulation, StreamPushEarlierThanItsTailIsAPlainEvent) {
  Simulation s;
  std::vector<int> order;
  const StreamId a =
      s.open_stream([&order](std::uint64_t arg) { order.push_back(static_cast<int>(arg)); });
  s.schedule_on(a, 30, 0);
  s.schedule_on(a, 40, 1);
  s.schedule_on(a, 10, 2); // earlier than the tail: a plain event calling the handler
  s.schedule_on(a, 40, 3); // a tie joins the stream
  EXPECT_EQ(s.keyed_events(), 2u);
  EXPECT_EQ(s.pending_events(), 4u);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{2, 0, 1, 3}));
  // Emptied, the stream takes any time again.
  s.schedule_on(a, s.now() + 5, 4);
  EXPECT_EQ(s.keyed_events(), 1u);
  s.run();
  EXPECT_EQ(order.back(), 4);
}

TEST(Simulation, TimersInterleaveWithStreamsInScheduleOrder) {
  // Timers sit in their own heap; ties with stream and plain events still
  // break by schedule order, and a re-filed key runs nothing.
  Simulation s;
  std::vector<char> order;
  const StreamId a =
      s.open_stream([&order](std::uint64_t arg) { order.push_back(static_cast<char>(arg)); });
  s.schedule_on(a, 10, 'a');
  TimerHandle t = s.schedule_timer(10, [&] { order.push_back('x'); });
  s.schedule_on(a, 10, 'b');
  t = s.rearm_timer(t, 20, [&] { order.push_back('t'); });
  s.schedule_on(a, 20, 'c');
  s.schedule_daemon_timer(20, [&] { order.push_back('d'); });
  EXPECT_EQ(s.pending_events(), 5u);
  EXPECT_EQ(s.live_pending_events(), 4u);
  EXPECT_EQ(s.keyed_events(), 1u);
  s.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 't', 'c', 'd'}));
  EXPECT_EQ(s.events_executed(), 5u);
}

// A handler runs after its entry has left the ring, so it may push onto its
// own stream (even at the same instant) and open new streams, which moves
// the stream table under it. (A handler captures at most 16 bytes, so the
// test's state sits in one struct.)
TEST(Simulation, StreamHandlerMayPushOntoItsOwnStreamAndOpenOthers) {
  struct State {
    Simulation s;
    std::vector<std::pair<Time, int>> order;
    StreamId a = 0;
  } st;
  st.a = st.s.open_stream([&st](std::uint64_t arg) {
    const auto i = static_cast<int>(arg);
    st.order.emplace_back(st.s.now(), i);
    if (i == 0) {
      StreamId last = 0;
      for (int k = 0; k < 64; ++k)
        last = st.s.open_stream(
            [&st, k](std::uint64_t) { st.order.emplace_back(st.s.now(), 100 + k); });
      st.s.schedule_on(last, st.s.now() + 1, 0);
    }
    if (i < 5) {
      st.s.schedule_on(st.a, st.s.now(), arg + 10); // same instant, behind nothing
      st.s.schedule_on(st.a, st.s.now() + 2, arg + 1);
    }
  });
  st.s.schedule_on(st.a, 10, 0);
  st.s.run();
  EXPECT_EQ(st.s.stream_count(), 65u);
  const std::vector<std::pair<Time, int>> expected = {
      {10, 0}, {10, 10}, {11, 163}, {12, 1}, {12, 11}, {14, 2},
      {14, 12}, {16, 3}, {16, 13}, {18, 4}, {18, 14}, {20, 5}};
  EXPECT_EQ(st.order, expected);
  EXPECT_EQ(st.s.pending_events(), 0u);
  EXPECT_EQ(st.s.events_executed(), expected.size());
}

// Pushes and pops interleave so the ring's head moves around it: it wraps,
// and it doubles while it holds entries on both sides of the wrap. Every
// entry still pops in push order with its own time and arg.
TEST(Simulation, StreamRingWrapsAndDoublesWhileNotEmpty) {
  Simulation s;
  std::vector<std::pair<Time, std::uint64_t>> popped;
  const StreamId a =
      s.open_stream([&](std::uint64_t arg) { popped.emplace_back(s.now(), arg); });
  std::vector<std::pair<Time, std::uint64_t>> pushed;
  Time tail = 0;
  std::uint64_t next_arg = 0;
  const auto push = [&](Time gap) {
    tail += gap;
    pushed.emplace_back(tail, next_arg);
    s.schedule_on(a, tail, next_arg++);
  };
  // The first ring holds 16: pop 8 of 12, then 20 more wrap it and fill it,
  // and the last 8 double it with its head mid-ring.
  for (int i = 0; i < 12; ++i) push(1);
  s.run_until(8);
  EXPECT_EQ(popped.size(), 8u);
  for (int i = 0; i < 20; ++i) push(1);
  EXPECT_EQ(s.pending_events(), 24u);
  EXPECT_EQ(s.keyed_events(), 1u);
  std::mt19937 rng(7);
  for (int round = 0; round < 200; ++round) {
    const int n = static_cast<int>(rng() % 40);
    for (int i = 0; i < n; ++i) push(static_cast<Time>(rng() % 3)); // ties included
    s.run_until(s.now() + static_cast<Time>(rng() % 30));
  }
  s.run();
  EXPECT_EQ(popped, pushed);
  EXPECT_GT(pushed.size(), 3000u);
  EXPECT_EQ(s.keyed_events(), 0u);
}

// A pipe may forget packets whose entries are still queued, as
// Link::set_down does: each entry names its packet by seq, and a stale seq
// finds nothing and does nothing, while entries pushed after it still run.
TEST(Simulation, StreamEntriesOutlivingTheirPipesPacketsDoNothing) {
  struct Pipe {
    std::deque<std::uint64_t> ledger; // seqs still to be delivered
    std::uint64_t next_seq = 0;
    std::vector<std::uint64_t> delivered;
    int stale = 0;
  } pipe;
  Simulation s;
  const StreamId a = s.open_stream([&pipe](std::uint64_t seq) {
    if (pipe.ledger.empty() || seq < pipe.ledger.front()) {
      ++pipe.stale;
      return;
    }
    pipe.delivered.push_back(seq);
    pipe.ledger.pop_front();
  });
  const auto send = [&](Time at) {
    pipe.ledger.push_back(pipe.next_seq);
    s.schedule_on(a, at, pipe.next_seq++);
  };
  for (int i = 0; i < 20; ++i) send(100 + 10 * i);
  s.schedule_at(125, [&] {
    pipe.ledger.clear(); // down: the entries of seqs 3..19 stay queued
    send(400);           // up again, behind them
    send(400);
  });
  s.run();
  EXPECT_EQ(pipe.delivered, (std::vector<std::uint64_t>{0, 1, 2, 20, 21}));
  EXPECT_EQ(pipe.stale, 17);
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_EQ(s.events_executed(), 23u); // 22 entries and the outage
}

// The heap keys order as one unsigned 128-bit number: it must agree with
// the (at, order) order on every Time, negative ones included, and on
// orders that differ only in their slot/stream bits. earliest_of_four picks
// the first of equal children, as the scalar scan did.
TEST(EventQueue, KeyOrderIsTimeThenOrder) {
  using Key = EventQueue::Key;
  constexpr Time kMax = std::numeric_limits<Time>::max();
  constexpr Time kMin = std::numeric_limits<Time>::min();
  constexpr std::uint64_t kStream = 1u << 23;
  const std::vector<Time> times = {kMin, kMin + 1, -5, -1, 0, 1, 2, kMax - 1, kMax};
  const std::vector<std::uint64_t> orders = {
      0, 1, kStream, kStream | 1, (7ull << 24) | 3, (7ull << 24) | kStream | 3,
      (7ull << 24) | 4, (8ull << 24), ~0ull};
  std::vector<Key> keys;
  for (Time t : times)
    for (std::uint64_t o : orders) keys.push_back(Key{t, o});
  const auto scalar = [](const Key& a, const Key& b) {
    return a.at != b.at ? a.at < b.at : a.order < b.order;
  };
  for (const Key& a : keys)
    for (const Key& b : keys)
      ASSERT_EQ(EventQueue::earlier(a, b), scalar(a, b))
          << a.at << "/" << a.order << " vs " << b.at << "/" << b.order;
  const std::vector<Key> few = {Key{kMin, 0}, Key{-1, 5},       Key{0, 0},
                                Key{0, 1},    Key{0, kStream}, Key{1, 0},
                                Key{kMax, 0}, Key{kMax, ~0ull}};
  const std::size_t m = few.size();
  for (std::size_t i = 0; i < m * m * m * m; ++i) {
    const Key c[4] = {few[i % m], few[i / m % m], few[i / m / m % m], few[i / m / m / m]};
    std::size_t best = 0;
    for (std::size_t k = 1; k < 4; ++k)
      if (scalar(c[k], c[best])) best = k;
    ASSERT_EQ(EventQueue::earliest_of_four(c), best) << "tuple " << i;
  }
}

// The same through a queue: negative times (which a Simulation's clock never
// schedules) pop before zero, and ties pop in push order, on the event heap
// and through a stream alike.
TEST(EventQueue, PopsNegativeAndExtremeTimesInOrder) {
  EventQueue q;
  std::vector<int> order;
  const std::vector<Time> times = {std::numeric_limits<Time>::max(), 1, 0, -1, -7,
                                   std::numeric_limits<Time>::min(), 0, -7,
                                   std::numeric_limits<Time>::max()};
  for (std::size_t i = 0; i < times.size(); ++i)
    q.push(times[i], [&order, i] { order.push_back(static_cast<int>(i)); });
  const EventQueue::StreamId st =
      q.open_stream([&order](std::uint64_t arg) { order.push_back(static_cast<int>(arg)); });
  for (int i = 0; i < 3; ++i) q.push_stream(st, -3 + i, static_cast<std::uint64_t>(100 + i));
  std::vector<Time> at;
  while (!q.empty()) q.pop_and_run([&at](Time t, bool) { at.push_back(t); });
  EXPECT_EQ(order, (std::vector<int>{5, 4, 7, 100, 101, 3, 102, 2, 6, 1, 0, 8}));
  EXPECT_TRUE(std::is_sorted(at.begin(), at.end()));
}

TEST(EventFn, InvokesAndClearsOnReset) {
  int calls = 0;
  EventFn fn([&] { ++calls; });
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(calls, 2);
  fn.reset();
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(EventFn, MoveOnlyCaptureWorks) {
  auto p = std::make_unique<int>(42);
  int seen = 0;
  EventFn fn([&seen, p = std::move(p)] { seen = *p; });
  EventFn moved = std::move(fn);
  EXPECT_FALSE(static_cast<bool>(fn)); // NOLINT(bugprone-use-after-move): empty-after-move is the contract
  ASSERT_TRUE(static_cast<bool>(moved));
  moved();
  EXPECT_EQ(seen, 42);
}

TEST(EventFn, CaptureDestructorRunsExactlyOnce) {
  // `live` counts constructions minus destructions of the capture. Relocation
  // on move plus destruction of the EventFn must balance out to zero — a
  // double-destroy would drive it negative, a leak would leave it positive.
  static int live;
  live = 0;
  struct Probe {
    Probe() { ++live; }
    Probe(Probe&&) noexcept { ++live; }
    Probe(const Probe&) { ++live; }
    ~Probe() { --live; }
  };
  {
    EventFn fn([p = Probe{}] { (void)p; });
    EXPECT_GT(live, 0);
    EventFn moved = std::move(fn);
    EventFn target;
    target = std::move(moved);
    target(); // invoking does not destroy the capture
    EXPECT_GT(live, 0);
  }
  EXPECT_EQ(live, 0);
}

TEST(EventFn, EmplaceDestroysPreviousCapture) {
  auto first = std::make_shared<int>(1);
  std::weak_ptr<int> watch = first;
  EventFn fn([keep = std::move(first)] { (void)keep; });
  EXPECT_FALSE(watch.expired());
  fn.emplace([] {});
  EXPECT_TRUE(watch.expired());
}

TEST(EventFn, CompileTimeCapacityGate) {
  const auto small = [] {};
  static_assert(EventFn::fits<decltype(small)>());
  static_assert(std::is_constructible_v<EventFn, decltype(small)>);

  // Exactly at the inline capacity: still fits.
  struct AtCapacity {
    char data[EventFn::kInlineBytes];
    void operator()() {}
  };
  static_assert(EventFn::fits<AtCapacity>());

  // One byte over: rejected at compile time, not silently heap-allocated.
  struct Oversized {
    char data[EventFn::kInlineBytes + 1];
    void operator()() {}
  };
  static_assert(!EventFn::fits<Oversized>());
  static_assert(!std::is_constructible_v<EventFn, Oversized>);

  // Over-aligned or potentially-throwing-move callables are rejected too.
  struct Overaligned {
    alignas(2 * EventFn::kInlineAlign) char c;
    void operator()() {}
  };
  static_assert(!std::is_constructible_v<EventFn, Overaligned>);
  struct ThrowingMove {
    ThrowingMove() = default;
    ThrowingMove(ThrowingMove&&) {}
    void operator()() {}
  };
  static_assert(!std::is_constructible_v<EventFn, ThrowingMove>);

  // EventFn itself is move-only.
  static_assert(!std::is_copy_constructible_v<EventFn>);
  static_assert(std::is_move_constructible_v<EventFn>);
  SUCCEED();
}

// --------------------------------------------------------------------------
// Randomized fuzz: cross-check the slab engine against a reference engine
// built the way the simulator used to be built — a std::priority_queue of
// whole events with std::function closures and shared_ptr cancellation
// flags, where a re-arm is a cancel plus a new timer. Both engines execute
// the same generated script; execution order, live_pending_events at every
// step, and the final clock must match.
// --------------------------------------------------------------------------

// Reference engine (behavioural oracle). Deliberately simple and obviously
// correct; mirrors the pre-slab Simulation semantics exactly.
class RefSim {
public:
  struct Handle {
    std::shared_ptr<bool> armed;
    bool daemon = false;
    RefSim* sim = nullptr;
  };

  [[nodiscard]] Time now() const { return now_; }

  void schedule_at(Time at, std::function<void()> fn) {
    queue_.push(Ev{at, next_seq_++, std::move(fn), nullptr, false});
  }

  Handle schedule_timer(Time delay, std::function<void()> fn, bool daemon = false) {
    auto armed = std::make_shared<bool>(true);
    queue_.push(Ev{now_ + delay, next_seq_++, std::move(fn), armed, daemon});
    if (daemon) ++inert_;
    return Handle{std::move(armed), daemon, this};
  }

  static void cancel(Handle& h) {
    if (h.armed == nullptr || !*h.armed) return;
    *h.armed = false;
    if (!h.daemon) ++h.sim->inert_;
  }

  [[nodiscard]] std::uint64_t live_pending_events() const {
    return queue_.size() - inert_;
  }

  void run() {
    while (!queue_.empty()) {
      Ev ev = std::move(const_cast<Ev&>(queue_.top()));
      queue_.pop();
      const bool cancelled = ev.armed != nullptr && !*ev.armed;
      inert_ -= static_cast<std::uint64_t>(cancelled || ev.daemon);
      if (ev.armed != nullptr) *ev.armed = false;
      if (cancelled) continue;
      now_ = ev.at;
      ev.fn();
    }
  }

private:
  struct Ev {
    Time at;
    std::uint64_t seq;
    std::function<void()> fn;
    std::shared_ptr<bool> armed;
    bool daemon;
    bool operator<(const Ev& o) const { // inverted: priority_queue is a max-heap
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };

  std::priority_queue<Ev> queue_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t inert_ = 0;
  Time now_ = 0;
};

// A generated script: event `id` (in creation order), when it fires, first
// tries to cancel `cancel_target[id]` (if >= 0), then re-arms the timer of
// `rearm_target[id]` (if >= 0) to fire `rearm_delay[id]` later as a new id,
// then spawns `children[id]` new events. Ids beyond the table spawn nothing,
// bounding the run.
struct FuzzScript {
  static constexpr int kStreams = 3;
  struct Child {
    int kind; // 0 = plain, 1 = timer, 2 = daemon timer, 3 = stream push
    Time delay;
    int stream; // kind 3: which stream
  };
  std::vector<Time> root_times;
  std::vector<std::vector<Child>> children;
  std::vector<int> cancel_target;
  std::vector<int> rearm_target;
  std::vector<Time> rearm_delay;
};

FuzzScript make_script(std::uint32_t seed, int n_ids) {
  std::mt19937 rng(seed);
  // Narrow time range on purpose: forces same-time collisions so FIFO
  // tie-breaking is exercised, not just time ordering.
  std::uniform_int_distribution<Time> time_dist(0, 40);
  std::uniform_int_distribution<int> kind_dist(0, 3);
  std::uniform_int_distribution<int> stream_dist(0, FuzzScript::kStreams - 1);
  std::uniform_int_distribution<int> fanout_dist(0, 3);

  FuzzScript sc;
  const int n_roots = 8;
  for (int i = 0; i < n_roots; ++i) sc.root_times.push_back(time_dist(rng));
  sc.children.resize(static_cast<std::size_t>(n_ids));
  sc.cancel_target.resize(static_cast<std::size_t>(n_ids), -1);
  std::uniform_int_distribution<int> target_dist(-3 * n_ids, n_ids - 1);
  for (int id = 0; id < n_ids; ++id) {
    // Mostly no cancel; when there is one, any id is fair game — plain
    // events (no handle), not-yet-created timers, already-fired timers, even
    // the running event itself. All must be no-ops or act identically.
    const int t = target_dist(rng);
    sc.cancel_target[static_cast<std::size_t>(id)] = t >= 0 ? t : -1;
    const int fanout = fanout_dist(rng);
    for (int c = 0; c < fanout; ++c)
      sc.children[static_cast<std::size_t>(id)].push_back(
          FuzzScript::Child{kind_dist(rng), time_dist(rng), stream_dist(rng)});
  }
  // Re-arms draw from their own stream, leaving the rest of the script as it
  // was. Any target is fair game, as for cancels; the narrow delay range
  // makes some re-arms land earlier than the timer's queued key.
  std::mt19937 rearm_rng(seed ^ 0x5eedu);
  std::uniform_int_distribution<int> rearm_dist(-n_ids, n_ids - 1);
  for (int id = 0; id < n_ids; ++id) {
    const int t = rearm_dist(rearm_rng);
    sc.rearm_target.push_back(t >= 0 ? t : -1);
    sc.rearm_delay.push_back(time_dist(rearm_rng));
  }
  return sc;
}

struct FuzzTrace {
  std::vector<int> order;          // event ids in execution order
  std::vector<std::uint64_t> live; // live_pending_events at each execution
  Time final_now = 0;
  int earlier_than_tail = 0; // stream pushes earlier than a queued push of their stream
};

// Runs the script on either engine. `SimT` needs schedule_at /
// schedule_timer / schedule_daemon-style entry points, which differ slightly
// between the two — adapted via if constexpr on the handle type. The oracle
// schedules a stream push as a plain schedule_at.
template <typename SimT, typename HandleT>
FuzzTrace run_script(const FuzzScript& sc) {
  SimT s;
  const auto n_ids = static_cast<int>(sc.children.size());
  std::vector<HandleT> handles(sc.children.size());
  FuzzTrace trace;
  int next_id = static_cast<int>(sc.root_times.size());
  std::vector<StreamId> streams;
  // Times of each stream's queued pushes, to count the pushes that land
  // earlier than one of them (the plain-event path).
  std::vector<std::multiset<Time>> queued(FuzzScript::kStreams);
  std::vector<int> stream_of(sc.children.size(), -1);

  std::function<void(int)> fire = [&](int id) {
    trace.order.push_back(id);
    trace.live.push_back(s.live_pending_events());
    if (id >= n_ids) return;
    if (const int k = stream_of[static_cast<std::size_t>(id)]; k >= 0)
      queued[static_cast<std::size_t>(k)].erase(
          queued[static_cast<std::size_t>(k)].find(s.now()));
    const int target = sc.cancel_target[static_cast<std::size_t>(id)];
    if (target >= 0) {
      if constexpr (std::is_same_v<HandleT, TimerHandle>) {
        handles[static_cast<std::size_t>(target)].cancel();
      } else {
        RefSim::cancel(handles[static_cast<std::size_t>(target)]);
      }
    }
    const int rearm = sc.rearm_target[static_cast<std::size_t>(id)];
    if (rearm >= 0 && next_id < n_ids) {
      const int cid = next_id++;
      HandleT& h = handles[static_cast<std::size_t>(rearm)];
      const Time delay = sc.rearm_delay[static_cast<std::size_t>(id)];
      if constexpr (std::is_same_v<HandleT, TimerHandle>) {
        h = s.rearm_timer(h, delay, [&fire, cid] { fire(cid); });
      } else { // the oracle's definition of a re-arm
        RefSim::cancel(h);
        h = s.schedule_timer(delay, [&fire, cid] { fire(cid); });
      }
    }
    for (const FuzzScript::Child& c : sc.children[static_cast<std::size_t>(id)]) {
      if (next_id >= n_ids) break;
      const int cid = next_id++;
      const auto slot = static_cast<std::size_t>(cid);
      switch (c.kind) {
        case 0: s.schedule_at(s.now() + c.delay, [&fire, cid] { fire(cid); }); break;
        case 1: handles[slot] = s.schedule_timer(c.delay, [&fire, cid] { fire(cid); }); break;
        case 3: {
          const Time at = s.now() + c.delay;
          auto& q = queued[static_cast<std::size_t>(c.stream)];
          trace.earlier_than_tail += static_cast<int>(!q.empty() && at < *q.rbegin());
          q.insert(at);
          stream_of[slot] = c.stream;
          if constexpr (std::is_same_v<HandleT, TimerHandle>) {
            s.schedule_on(streams[static_cast<std::size_t>(c.stream)], at,
                          static_cast<std::uint64_t>(cid));
          } else {
            s.schedule_at(at, [&fire, cid] { fire(cid); });
          }
          break;
        }
        default:
          if constexpr (std::is_same_v<HandleT, TimerHandle>) {
            handles[slot] = s.schedule_daemon_timer(c.delay, [&fire, cid] { fire(cid); });
          } else {
            handles[slot] = s.schedule_timer(c.delay, [&fire, cid] { fire(cid); }, true);
          }
      }
    }
  };

  if constexpr (std::is_same_v<HandleT, TimerHandle>)
    for (int k = 0; k < FuzzScript::kStreams; ++k)
      streams.push_back(
          s.open_stream([&fire](std::uint64_t id) { fire(static_cast<int>(id)); }));
  for (int i = 0; i < static_cast<int>(sc.root_times.size()); ++i)
    s.schedule_at(sc.root_times[static_cast<std::size_t>(i)], [&fire, i] { fire(i); });
  s.run();
  trace.final_now = s.now();
  return trace;
}

TEST(SimulationFuzz, MatchesPriorityQueueOracle) {
  int earlier_than_tail = 0;
  for (std::uint32_t seed = 0; seed < 25; ++seed) {
    const FuzzScript sc = make_script(seed, 400);
    const FuzzTrace real = run_script<Simulation, TimerHandle>(sc);
    const FuzzTrace ref = run_script<RefSim, RefSim::Handle>(sc);
    ASSERT_EQ(real.order, ref.order) << "execution order diverged, seed " << seed;
    ASSERT_EQ(real.live, ref.live) << "live accounting diverged, seed " << seed;
    ASSERT_EQ(real.final_now, ref.final_now) << "final clock diverged, seed " << seed;
    ASSERT_GT(real.order.size(), 8u) << "degenerate script, seed " << seed;
    earlier_than_tail += real.earlier_than_tail;
  }
  EXPECT_GT(earlier_than_tail, 0) << "no stream push took the plain-event path";
}

TEST(SimulationFuzz, SlotRecyclingKeepsHandlesIndependent) {
  // Heavy schedule/cancel/re-arm churn through a deliberately tiny id space
  // so slab slots are recycled many times over; every armed() answer must
  // match what an independent shadow of "which timers actually ran / were
  // cancelled" predicts (generation reuse must not resurrect or kill the
  // wrong timer).
  std::mt19937 rng(1234);
  Simulation s;
  constexpr int kTimers = 64;
  constexpr Time kNever = -1;
  std::vector<TimerHandle> handles(kTimers);
  // Independent shadow: a handle is armed iff its timer was scheduled, not
  // cancelled, and its deadline has not been reached yet.
  std::vector<Time> deadline(kTimers, kNever);
  std::uniform_int_distribution<int> idx_dist(0, kTimers - 1);
  std::uniform_int_distribution<Time> delay_dist(1, 20);
  for (int round = 0; round < 2000; ++round) {
    const int i = idx_dist(rng);
    const auto ui = static_cast<std::size_t>(i);
    switch (rng() % 4) {
      case 0: { // (re)arm: old handle goes stale, slot may be recycled
        const Time d = delay_dist(rng);
        handles[ui] = s.schedule_timer(d, [] {});
        deadline[ui] = s.now() + d;
        break;
      }
      case 1:
        handles[ui].cancel();
        deadline[ui] = kNever;
        break;
      case 2: { // re-arm: moves the timer in place when it can
        const Time d = delay_dist(rng);
        handles[ui] = s.rearm_timer(handles[ui], d, [] {});
        deadline[ui] = s.now() + d;
        break;
      }
      default: // advance time; every timer due by then fires and goes stale
        s.run_until(s.now() + delay_dist(rng));
        break;
    }
    for (int j = 0; j < kTimers; ++j) {
      const auto uj = static_cast<std::size_t>(j);
      const bool expect = deadline[uj] != kNever && deadline[uj] > s.now();
      ASSERT_EQ(handles[uj].armed(), expect) << "handle " << j << " round " << round;
    }
  }
  s.run();
  for (int j = 0; j < kTimers; ++j)
    EXPECT_FALSE(handles[static_cast<std::size_t>(j)].armed());
}

TEST(Rng, NamedStreamsAreDeterministic) {
  Rng a = Rng::stream(1, "loss");
  Rng b = Rng::stream(1, "loss");
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentLabelsGiveDifferentStreams) {
  Rng a = Rng::stream(1, "loss-a");
  Rng b = Rng::stream(1, "loss-b");
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, DifferentSeedsGiveDifferentStreams) {
  Rng a = Rng::stream(1, "x");
  Rng b = Rng::stream(2, "x");
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform() == b.uniform()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, ChanceEdgeCases) {
  Rng r(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng r(11);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i)
    if (r.chance(0.01)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.01, 0.003);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(3);
  bool lo = false, hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(0, 3);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 3);
    lo |= v == 0;
    hi |= v == 3;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

} // namespace
} // namespace switchml::sim
