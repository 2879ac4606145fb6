// Switch-restart recovery protocol tests: epoch stamping and resync, the
// sync-query/rescue path that untangles a restart racing a lost result
// packet, the capped backoff in fixed-RTO mode, dead-switch declaration and
// the graceful degradation to the streaming-PS fallback collective, plus the
// named FaultPlan validation messages and a seeded randomized fault-schedule
// property test (restart x burst x flap x kill).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/timeline.hpp"
#include "common/tracing.hpp"
#include "core/cluster.hpp"
#include "core/fault.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"

namespace switchml {
namespace {

using core::ClusterConfig;
using core::Fabric;
using core::FabricConfig;
using core::HierarchySpec;

std::vector<std::vector<std::int32_t>> make_updates(int n, std::size_t d) {
  std::vector<std::vector<std::int32_t>> updates(static_cast<std::size_t>(n),
                                                 std::vector<std::int32_t>(d));
  for (int w = 0; w < n; ++w)
    for (std::size_t i = 0; i < d; ++i)
      updates[static_cast<std::size_t>(w)][i] = static_cast<std::int32_t>(i % 97) + w;
  return updates;
}

std::vector<std::int32_t> expected_sum(int n, std::size_t d) {
  std::vector<std::int32_t> expect(d);
  for (std::size_t i = 0; i < d; ++i)
    expect[i] =
        static_cast<std::int32_t>(n) * static_cast<std::int32_t>(i % 97) + n * (n - 1) / 2;
  return expect;
}

Time clean_data_tat(ClusterConfig cfg, const std::vector<std::vector<std::int32_t>>& updates) {
  Fabric clean(cfg.fabric());
  const auto r = clean.reduce_i32(updates);
  return *std::max_element(r.tat.begin(), r.tat.end());
}

// ---- epoch stamping ---------------------------------------------------------

TEST(Recovery, EpochAdvancesOnRestartAndWorkersResync) {
  ClusterConfig cfg = ClusterConfig::for_rate(gbps(10), 4);
  cfg.pool_size = 8;
  const std::size_t d = 4096;
  const auto updates = make_updates(4, d);
  const Time clean_max = clean_data_tat(cfg, updates);

  // Two restarts: the epoch is a monotonic incarnation, not a flag.
  cfg.faults.switch_restarts.push_back({0, clean_max / 3});
  cfg.faults.switch_restarts.push_back({0, 2 * clean_max / 3});
  Fabric cluster(cfg.fabric());
  const auto result = cluster.reduce_i32(updates);

  EXPECT_EQ(cluster.root().epoch(), 2u);
  const auto expect = expected_sum(4, d);
  std::uint64_t resyncs = 0;
  for (int w = 0; w < 4; ++w) {
    ASSERT_EQ(result.outputs[static_cast<std::size_t>(w)], expect) << w;
    // Every worker ends the run on the switch's final incarnation.
    EXPECT_EQ(cluster.worker(w).switch_epoch(), 2u) << w;
    resyncs += cluster.worker(w).recovery().epoch_resyncs;
  }
  EXPECT_GE(resyncs, 1u);
}

// ---- the stranding race: restart vs. a concurrently lost result ------------

// The race the old ordering rule ("restarts must precede loss windows")
// existed to dodge: worker 0 loses a result multicast, the switch restarts
// before worker 0's RTO fires, and the wiped shadow copy can no longer
// answer the retransmission. Worker 0 re-claims the slot at the OLD version
// while the ahead worker re-claims the NEXT phase at the alternate version —
// neither alone can complete either slot. The sync-query/rescue escalation
// must converge this bit-exactly.
TEST(Recovery, RestartRacingLostResultConvergesBitExact) {
  ClusterConfig cfg = ClusterConfig::for_rate(gbps(10), 2);
  cfg.pool_size = 1; // serialize phases so the stranded pattern is deterministic
  cfg.sync_after = 3;
  cfg.dead_after = 0; // the race MUST be recoverable without the fallback
  const std::size_t d = 1024;
  const auto updates = make_updates(2, d);
  const Time clean_max = clean_data_tat(cfg, updates);
  ASSERT_GT(clean_max, usec(10));

  const Time window_start = clean_max / 2;
  const Time window_end = window_start + usec(500);
  // The restart lands after the first in-window result loss (phase cadence
  // is microseconds) but well before worker 0's 1 ms RTO would have been
  // answered from the shadow copy.
  cfg.faults.switch_restarts.push_back({0, window_start + usec(100)});

  trace::TraceSink sink(1u << 18, trace::kCatFault);
  trace::TraceSink::Scope scope(&sink);
  Fabric cluster(cfg.fabric());
  const net::Node* sw = &cluster.root();
  sim::Simulation& sim = cluster.simulation();
  // Drop every result the switch sends to worker 0 inside the window.
  cluster.link(0).set_drop_filter(
      [sw, &sim, window_start, window_end](const net::Node& sender, const net::Packet& p) {
        return &sender == sw && p.kind == net::PacketKind::SmlResult &&
               sim.now() >= window_start && sim.now() < window_end;
      });

  const auto result = cluster.reduce_i32(updates);
  const auto expect = expected_sum(2, d);
  for (int w = 0; w < 2; ++w)
    ASSERT_EQ(result.outputs[static_cast<std::size_t>(w)], expect) << w;

  // The run must have gone through the escalation, not around it: the ahead
  // worker re-contributed the completed phase via a rescue.
  EXPECT_GE(cluster.root().counters().rescues_applied, 1u);
  EXPECT_GE(cluster.worker(1).recovery().rescues_sent, 1u);
  EXPECT_GE(cluster.worker(1).recovery().sync_responses, 1u);
  EXPECT_EQ(cluster.worker(0).switch_epoch(), 1u);
  EXPECT_EQ(cluster.worker(1).switch_epoch(), 1u);
  EXPECT_FALSE(cluster.fallback_engaged());

  int rescue_applies = 0;
  for (const trace::Event& e : sink.events())
    rescue_applies += std::string(e.name) == "rescue_apply";
  EXPECT_GE(rescue_applies, 1);
}

// ---- fixed-RTO backoff (regression for the uncapped-retry bug) -------------

// Before the fix, per-slot exponential backoff only engaged in adaptive-RTO
// mode: a fixed-RTO worker facing a dead switch retransmitted every rto
// forever. With the backoff applied in both modes, the dead_after budget is
// spent over a geometrically growing schedule — the switch_dead declaration
// lands near sum(min(rto << i, rto_max)) rather than dead_after * rto.
TEST(Recovery, FixedRtoBacksOffExponentiallyBeforeDeadDeclaration) {
  trace::TraceSink sink(1u << 18, trace::kCatFault);
  trace::TraceSink::Scope scope(&sink);

  ClusterConfig cfg = ClusterConfig::for_rate(gbps(10), 2);
  cfg.timing_only = true;
  cfg.pool_size = 4;
  cfg.adaptive_rto = false;
  cfg.retransmit_timeout = msec(1);
  cfg.sync_after = 0;
  cfg.dead_after = 8;
  cfg.faults.switch_kills.push_back({0, 0});
  Fabric cluster(cfg.fabric());
  const auto tat = cluster.reduce_timing(16 * 1024);

  // 8 consecutive timeouts with doubling: 1+2+4+...+128 = 255 ms, versus
  // 8 ms if the backoff were (still) skipped in fixed-RTO mode.
  Time dead_ts = -1;
  for (const trace::Event& e : sink.events())
    if (std::string(e.name) == "switch_dead" && dead_ts < 0) dead_ts = e.ts;
  ASSERT_GE(dead_ts, 0);
  EXPECT_GT(dead_ts, msec(100));
  EXPECT_LT(dead_ts, msec(400));

  // The job still terminates — through the fallback, with honest inflation.
  EXPECT_TRUE(cluster.fallback_engaged());
  for (const Time t : tat) EXPECT_GT(t, dead_ts);
}

// ---- graceful degradation to the streaming-PS fallback ---------------------

TEST(Recovery, SwitchKillDegradesToFallbackBitExact) {
  ClusterConfig cfg = ClusterConfig::for_rate(gbps(10), 4);
  cfg.pool_size = 8;
  cfg.sync_after = 2;
  cfg.dead_after = 6;
  const std::size_t d = 4096;
  const auto updates = make_updates(4, d);
  const Time clean_max = clean_data_tat(cfg, updates);

  cfg.faults.switch_kills.push_back({0, clean_max / 2});
  trace::TraceSink sink(1u << 18, trace::kCatFault);
  trace::TraceSink::Scope scope(&sink);
  Fabric cluster(cfg.fabric());
  const auto result = cluster.reduce_i32(updates);

  // The fallback replays the unconsumed chunks over int32 sums, so the
  // degraded run is still bit-exact — it just takes honestly longer.
  const auto expect = expected_sum(4, d);
  for (int w = 0; w < 4; ++w)
    ASSERT_EQ(result.outputs[static_cast<std::size_t>(w)], expect) << w;
  EXPECT_TRUE(cluster.fallback_engaged());
  EXPECT_GT(cluster.root().counters().dead_drops, 0u);
  const Time faulty_max = *std::max_element(result.tat.begin(), result.tat.end());
  EXPECT_GT(faulty_max, clean_max + cfg.fallback_reprovision);

  std::uint64_t dead = 0;
  for (int w = 0; w < 4; ++w) dead += cluster.worker(w).recovery().dead_declared;
  EXPECT_GE(dead, 1u);
  int dead_events = 0, fallback_begins = 0, kills = 0;
  for (const trace::Event& e : sink.events()) {
    const std::string name = e.name;
    dead_events += name == "switch_dead";
    fallback_begins += name == "fallback_begin";
    kills += name == "switch_kill";
  }
  EXPECT_EQ(kills, 1);
  EXPECT_GE(dead_events, 1);
  EXPECT_EQ(fallback_begins, 1);
}

// The replay draws its loss from RNG streams of its own (the job's seed plus
// a fixed offset), not a copy of the job's: reusing the job's seed would
// replay the loss pattern the job's first packets saw. Under loss, the
// replay's TAT and retransmission count depend on those streams; both are
// pinned.
TEST(Recovery, LossyFallbackReplayDrawsItsOwnLoss) {
  ClusterConfig cfg = ClusterConfig::for_rate(gbps(10), 4);
  cfg.transport = net::TransportKind::kUdp; // the pinned TATs are the UDP channel's
  cfg.pool_size = 8;
  cfg.sync_after = 2;
  cfg.dead_after = 6;
  cfg.loss_prob = 0.02;
  const std::size_t d = 8192;
  const auto updates = make_updates(4, d);
  cfg.faults.switch_kills.push_back({0, clean_data_tat(cfg, updates) / 2});

  trace::TraceSink sink(1u << 18, trace::kCatFault | trace::kCatWorker);
  trace::TraceSink::Scope scope(&sink);
  Fabric cluster(cfg.fabric());
  const auto result = cluster.reduce_i32(updates);
  const auto expect = expected_sum(4, d);
  for (int w = 0; w < 4; ++w)
    ASSERT_EQ(result.outputs[static_cast<std::size_t>(w)], expect) << w;
  ASSERT_TRUE(cluster.fallback_engaged());
  ASSERT_EQ(sink.total_drops(), 0u);
  EXPECT_EQ(result.tat, (std::vector<Time>{124395008, 124395152, 124395296, 124395440}));

  // Every retransmission after fallback_begin is the replay's.
  bool replaying = false;
  int replay_retx = 0;
  for (const trace::Event& e : sink.events()) {
    const std::string name = e.name;
    if (name == "fallback_begin") replaying = true;
    replay_retx += static_cast<int>(replaying && name == "retransmit");
  }
  EXPECT_EQ(replay_retx, 94);
}

// A timeline's closing daemon tick runs after the drain. The fallback starts
// from the last live event, so arming a recorder must move neither the TAT
// nor the fallback_begin event.
TEST(Recovery, TimelineDoesNotMoveFallbackTat) {
  ClusterConfig cfg = ClusterConfig::for_rate(gbps(10), 4);
  cfg.pool_size = 8;
  cfg.sync_after = 2;
  cfg.dead_after = 6;
  cfg.timing_only = true;
  const std::uint64_t elems = 4096;
  Time clean_max = 0;
  {
    Fabric clean(cfg.fabric());
    const auto tats = clean.reduce_timing(elems);
    clean_max = *std::max_element(tats.begin(), tats.end());
  }
  cfg.faults.switch_kills.push_back({0, clean_max / 2});

  // Worker 0's TAT and the fallback_begin time of one run.
  const auto run = [&cfg, elems](bool timed) {
    trace::TraceSink sink(1u << 12, trace::kCatFault);
    trace::TraceSink::Scope scope(&sink);
    Fabric cluster(cfg.fabric());
    std::unique_ptr<TimelineRecorder> timeline;
    if (timed) {
      TimelineRecorder::Config tc;
      tc.period = usec(100);
      timeline = std::make_unique<TimelineRecorder>(cluster.simulation(), cluster.metrics(), tc);
      timeline->start();
    }
    const auto tats = cluster.reduce_timing(elems);
    EXPECT_TRUE(cluster.fallback_engaged());
    if (timed) {
      // The recorder's last tick ran after the drain (the case under test).
      EXPECT_GT(cluster.simulation().now(), cluster.simulation().last_live_at());
    }
    Time fallback_at = -1;
    for (const trace::Event& e : sink.events())
      if (std::string(e.name) == "fallback_begin") fallback_at = e.ts;
    return std::pair{tats[0], fallback_at};
  };
  const auto untimed = run(false);
  EXPECT_EQ(run(true), untimed);
  EXPECT_GE(untimed.second, 0);
}

// A root kill strands every rack: leaves stay healthy (they even answer
// sync queries), but no slot can ever complete, so the dead_after budget is
// the only way out. The hierarchy degrades to the fallback like the rack.
TEST(Recovery, HierarchyRootKillDegradesToFallbackBitExact) {
  FabricConfig cfg;
  cfg.topology = HierarchySpec{.racks = 2, .workers_per_rack = 2};
  cfg.pool_size = 16;
  cfg.sync_after = 2;
  cfg.dead_after = 6;
  const std::size_t d = 4096;
  const auto updates = make_updates(4, d);

  Fabric clean(cfg);
  const auto clean_result = clean.reduce_i32(updates);
  const Time clean_max = *std::max_element(clean_result.tat.begin(), clean_result.tat.end());

  cfg.faults.switch_kills.push_back({0, clean_max / 2});
  Fabric cluster(cfg);
  const auto result = cluster.reduce_i32(updates);

  const auto expect = expected_sum(4, d);
  for (int w = 0; w < 4; ++w)
    ASSERT_EQ(result.outputs[static_cast<std::size_t>(w)], expect) << w;
  EXPECT_TRUE(cluster.fallback_engaged());
  EXPECT_GT(cluster.root().counters().dead_drops, 0u);
}

// ---- FaultPlan validation names the offending spec -------------------------

TEST(Recovery, ValidationNamesOffendingSpecKindIndexAndTime) {
  ClusterConfig cfg = ClusterConfig::for_rate(gbps(10), 2);
  cfg.faults.switch_kills.push_back({0, usec(10)});
  cfg.faults.switch_kills.push_back({7, usec(20)}); // no switch 7 on a rack
  try {
    Fabric cluster(cfg.fabric());
    FAIL() << "out-of-range switch_kills spec must be rejected";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("switch_kills[1]"), std::string::npos) << what;
    EXPECT_NE(what.find("t=20000"), std::string::npos) << what;
  }

  ClusterConfig cfg2 = ClusterConfig::for_rate(gbps(10), 2);
  cfg2.faults.switch_restarts.push_back({3, usec(5)});
  try {
    Fabric cluster(cfg2.fabric());
    FAIL() << "out-of-range switch_restarts spec must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("switch_restarts[0]"), std::string::npos) << e.what();
  }
}

TEST(Recovery, LosslessRejectionExplainsWhyPerFaultClass) {
  ClusterConfig cfg = ClusterConfig::for_rate(gbps(10), 2);
  cfg.lossless = true;
  cfg.faults.switch_kills.push_back({0, usec(10)});
  try {
    Fabric cluster(cfg.fabric());
    FAIL() << "kills must be rejected in lossless mode";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lossless"), std::string::npos) << what;
    EXPECT_NE(what.find("kill"), std::string::npos) << what;
  }

  ClusterConfig cfg2 = ClusterConfig::for_rate(gbps(10), 2);
  cfg2.lossless = true;
  cfg2.faults.switch_restarts.push_back({0, usec(10)});
  try {
    Fabric cluster(cfg2.fabric());
    FAIL() << "restarts must be rejected in lossless mode";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lossless"), std::string::npos) << what;
    EXPECT_NE(what.find("restart"), std::string::npos) << what;
  }
}

// ---- randomized fault-schedule property test -------------------------------

// Seeded sweep over random (restart x Gilbert-Elliott burst x flap x kill)
// schedules: every run must terminate, and must either converge bit-exactly
// on the switch path or degrade EXPLICITLY to the fallback (which is itself
// bit-exact over int32 sums). SWITCHML_SOAK_ITERS scales the iteration count
// for the CI soak job.
TEST(Recovery, RandomizedFaultSchedulesTerminateBitExactOrFallback) {
  const char* env = std::getenv("SWITCHML_SOAK_ITERS");
  const int iters = env ? std::max(1, std::atoi(env)) : 6;
  int fallbacks_seen = 0;

  for (int iter = 0; iter < iters; ++iter) {
    std::mt19937_64 rng(0xC0FFEEull + static_cast<std::uint64_t>(iter));
    const int n = 2 + static_cast<int>(rng() % 3);
    ClusterConfig cfg = ClusterConfig::for_rate(gbps(10), n);
    const std::uint32_t pools[] = {1, 2, 8};
    cfg.pool_size = pools[rng() % 3];
    cfg.seed = rng();
    cfg.sync_after = 2;
    cfg.dead_after = 12;
    const std::size_t d = 2048;
    const auto updates = make_updates(n, d);
    const Time clean_max = clean_data_tat(cfg, updates);

    auto uniform_time = [&](Time lo, Time hi) {
      return lo + static_cast<Time>(rng() % static_cast<std::uint64_t>(hi - lo));
    };
    cfg.faults.switch_restarts.push_back({0, uniform_time(0, clean_max)});
    if (rng() % 2) {
      net::BurstLossConfig ge;
      ge.p_enter = 0.05;
      ge.p_exit = 0.2;
      ge.loss_bad = 0.8;
      cfg.faults.bursts.push_back({static_cast<int>(rng() % static_cast<std::uint64_t>(n)), ge});
    }
    if (rng() % 2) {
      const Time down = uniform_time(0, clean_max / 2);
      cfg.faults.flaps.push_back(
          {static_cast<std::size_t>(rng() % static_cast<std::uint64_t>(n)), down,
           down + clean_max / 4 + 1});
    }
    // A kill before 0.6 * clean_max always precedes completion (faults only
    // slow the run down), so the fallback MUST engage on these schedules.
    const bool killed = rng() % 3 == 0;
    if (killed) cfg.faults.switch_kills.push_back({0, uniform_time(clean_max / 5, clean_max / 2)});

    Fabric cluster(cfg.fabric());
    const auto result = cluster.reduce_i32(updates);
    const auto expect = expected_sum(n, d);
    for (int w = 0; w < n; ++w)
      ASSERT_EQ(result.outputs[static_cast<std::size_t>(w)], expect)
          << "iter=" << iter << " worker=" << w << " killed=" << killed;
    // A killed switch MUST degrade to the fallback. The converse is not
    // required: an extreme burst schedule can keep one worker's link in the
    // bad state across the whole dead_after budget, and a worker that
    // cannot reach the switch for that long is ALLOWED to declare it dead —
    // the explicit fallback is the honest (and still bit-exact) outcome.
    if (killed) {
      EXPECT_TRUE(cluster.fallback_engaged()) << "iter=" << iter;
    }
    fallbacks_seen += cluster.fallback_engaged();
  }
  if (iters >= 6) {
    EXPECT_GE(fallbacks_seen, 1);
  }
}

} // namespace
} // namespace switchml
