// Microbenchmark (google-benchmark): cost of sim::Simulation timer
// scheduling. Every SwitchML update re-arms its slot's retransmission timer
// (and every reliable-transport ACK re-arms the sender's), so rearm_timer
// sits on the simulator's hottest loop; a slot's timer is cancelled only
// when the slot retires. The slot-pool TimerHandle (a (slot, generation)
// index into the Simulation) replaced a per-timer shared_ptr<bool> control
// block, removing one heap allocation + atomic refcount per scheduled timer.
//
// The representative pattern is BM_TimerRearm: one timer moved N times
// before it fires, which keeps one queued key throughout. BM_ScheduleCancelFire
// is the cancel + schedule equivalent, which leaves one cancelled key per
// schedule behind in the queue. BM_StreamDeliveries is the whole packet path
// of a 100 Gbps rack: FIFO streams of queued deliveries beside armed RTO
// timers.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulation.hpp"

namespace {

using namespace switchml;

// Arm a batch of timers, then drain the queue letting all of them fire.
void BM_ScheduleFire(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t fired = 0;
  for (auto _ : state) {
    sim::Simulation s;
    for (std::size_t i = 0; i < n; ++i) {
      s.schedule_timer(static_cast<Time>(i + 1), [&fired] { ++fired; });
    }
    s.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ScheduleFire)->Arg(1 << 10)->Arg(1 << 16);

// Arm, cancel, drain: the retransmission-timer fast path (the ACK wins the
// race, so the queued event pops as a no-op and the slot recycles).
void BM_ScheduleCancelFire(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<sim::TimerHandle> handles(n);
  std::uint64_t fired = 0;
  for (auto _ : state) {
    sim::Simulation s;
    for (std::size_t i = 0; i < n; ++i) {
      handles[i] = s.schedule_timer(static_cast<Time>(i + 1), [&fired] { ++fired; });
    }
    for (auto& h : handles) h.cancel();
    s.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ScheduleCancelFire)->Arg(1 << 10)->Arg(1 << 16);

// One timer re-armed N times, each to a later deadline, then drained: the
// per-update RTO pattern. Every re-arm moves the armed timer in place, so
// the queue holds one key and the drain fires the timer once.
void BM_TimerRearm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t fired = 0;
  for (auto _ : state) {
    sim::Simulation s;
    sim::TimerHandle h;
    for (std::size_t i = 0; i < n; ++i) {
      h = s.rearm_timer(h, static_cast<Time>(i + 1), [&fired] { ++fired; });
    }
    s.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TimerRearm)->Arg(1 << 10)->Arg(1 << 16);

// Steady-state churn: one live timer re-armed from its own callback, so the
// slot pool stays at size 1 and every iteration recycles the same slot.
void BM_TimerChurn(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulation s;
    std::uint64_t remaining = n;
    std::function<void()> rearm = [&] {
      if (--remaining > 0) s.schedule_timer(1, rearm);
    };
    s.schedule_timer(1, rearm);
    s.run();
    benchmark::DoNotOptimize(remaining);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TimerChurn)->Arg(1 << 16);

// The shape of a 100 Gbps rack reduction: 16 FIFO streams (link directions)
// of queued deliveries, 4,096 in all, beside 4,096 armed RTO timers about
// 1 ms out. Each delivery re-arms one timer, as a worker's send does, and
// queues its stream's next delivery behind the stream's tail. The event heap
// holds one key per stream; the timer heap holds the 4,096 timer keys.
void BM_StreamDeliveries(benchmark::State& state) {
  constexpr int kStreams = 16;
  constexpr int kDepth = 256;  // deliveries queued per stream
  constexpr int kTimers = 4096;
  constexpr Time kGap = 100;   // ns between a stream's deliveries
  constexpr Time kRto = 1'000'000;
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulation s;
    std::vector<Time> tail(kStreams);
    std::vector<sim::TimerHandle> timers(kTimers);
    std::uint64_t queued = 0;
    std::uint64_t delivered = 0;
    std::function<void(int)> deliver;
    std::vector<sim::StreamId> streams;
    for (int k = 0; k < kStreams; ++k)
      streams.push_back(s.open_stream([&deliver](std::uint64_t arg) {
        deliver(static_cast<int>(arg));
      }));
    const auto push = [&](int k) {
      const auto uk = static_cast<std::size_t>(k);
      tail[uk] += kGap;
      s.schedule_on(streams[uk], tail[uk], static_cast<std::uint64_t>(k));
      ++queued;
    };
    deliver = [&](int k) {
      sim::TimerHandle& t = timers[delivered++ % kTimers];
      t = s.rearm_timer(t, kRto, [] {});
      if (queued < n) push(k);
      if (delivered == n)
        for (sim::TimerHandle& h : timers) h.cancel();
    };
    for (int k = 0; k < kStreams; ++k)
      tail[static_cast<std::size_t>(k)] = k; // staggered: few same-time ties
    for (int d = 0; d < kDepth; ++d)
      for (int k = 0; k < kStreams; ++k) push(k);
    for (sim::TimerHandle& t : timers) t = s.schedule_timer(kRto, [] {});
    s.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_StreamDeliveries)->Arg(1 << 18);

} // namespace

BENCHMARK_MAIN();
