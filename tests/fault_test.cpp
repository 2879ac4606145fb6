// Fault-injection tests: the link down/up and rate-change semantics, the
// Gilbert-Elliott burst process, NIC straggler slowdowns, switch restarts,
// and the FaultPlan/FaultInjector path through the unified fabric — plus the
// determinism contracts (same seed + same plan => bit-identical runs; unused
// fault hooks never perturb the RNG streams).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "common/tracing.hpp"
#include "core/cluster.hpp"
#include "core/fault.hpp"
#include "net/link.hpp"
#include "net/nic.hpp"

namespace switchml {
namespace {

using core::ClusterConfig;
using core::Fabric;
using core::FabricConfig;
using core::FaultPlan;
using core::HierarchySpec;

// ---- serialization_time guard (the rate-0 "infinitely fast link" bug) ------

TEST(Units, SerializationTimeRejectsNonPositiveRate) {
  EXPECT_THROW(serialization_time(100, 0), std::invalid_argument);
  EXPECT_THROW(serialization_time(100, -gbps(10)), std::invalid_argument);
  EXPECT_THROW(wire_time_bits(8, 0), std::invalid_argument);
  // Zero bytes still serialize in zero time regardless of rate.
  EXPECT_EQ(serialization_time(0, gbps(10)), 0);
  EXPECT_EQ(serialization_time(1, gbps(10)), 1); // round-up survives
}

// ---- link-level fixtures ----------------------------------------------------

class SinkNode : public net::Node {
public:
  using Node::Node;
  void receive(net::Packet&& p, int port) override {
    arrivals.emplace_back(sim_.now(), port, std::move(p));
  }
  std::vector<std::tuple<Time, int, net::Packet>> arrivals;
};

net::Packet raw_packet(std::uint32_t len) {
  net::Packet p;
  p.kind = net::PacketKind::Segment;
  p.seg_len = len;
  return p;
}

class FaultLinkFixture : public ::testing::Test {
protected:
  sim::Simulation sim;
  SinkNode a{sim, 0, "a"};
  SinkNode b{sim, 1, "b"};
  net::LinkConfig cfg;
};

TEST_F(FaultLinkFixture, SetRateRejectsNonPositiveRate) {
  net::Link link(sim, cfg, a, 0, b, 0, 1);
  EXPECT_THROW(link.set_rate(0), std::invalid_argument);
  EXPECT_THROW(link.set_rate(-1), std::invalid_argument);
}

TEST_F(FaultLinkFixture, DownedLinkDeliversNothing) {
  cfg.rate = gbps(1);
  cfg.propagation = usec(1);
  net::Link link(sim, cfg, a, 0, b, 0, 1);
  const std::int64_t wire = raw_packet(946).wire_bytes(); // 1000 B => 8 us at 1 Gbps

  // One packet in flight when the link goes down, one sent while down, one
  // after it comes back: only the last may arrive.
  link.send_from(a, raw_packet(946));
  sim.schedule_at(usec(2), [&] { link.set_down(); }); // mid-serialization
  sim.schedule_at(usec(4), [&] { link.send_from(a, raw_packet(946)); });
  sim.schedule_at(usec(20), [&] { link.set_up(); });
  sim.schedule_at(usec(21), [&] { link.send_from(a, raw_packet(946)); });
  sim.run();

  ASSERT_EQ(b.arrivals.size(), 1u);
  const Time ser = serialization_time(wire, cfg.rate);
  EXPECT_EQ(std::get<0>(b.arrivals[0]), usec(21) + ser + cfg.propagation);
  const net::Link::Counters& c = link.counters_from(a);
  EXPECT_EQ(c.dropped_down, 2u); // the in-flight kill + the while-down send
  EXPECT_EQ(c.delivered_packets, 1u);
  EXPECT_EQ(c.tx_packets, 2u); // the while-down send never reached the port
}

TEST_F(FaultLinkFixture, DownKillsPacketsInBothDirections) {
  cfg.propagation = usec(5);
  net::Link link(sim, cfg, a, 0, b, 0, 1);
  link.send_from(a, raw_packet(100));
  link.send_from(b, raw_packet(100));
  sim.schedule_at(usec(1), [&] { link.set_down(); });
  sim.run();
  EXPECT_TRUE(b.arrivals.empty());
  EXPECT_TRUE(a.arrivals.empty());
  EXPECT_EQ(link.counters_from(a).dropped_down, 1u);
  EXPECT_EQ(link.counters_from(b).dropped_down, 1u);
  EXPECT_TRUE(link.is_down());
}

TEST_F(FaultLinkFixture, MidRunSlowdownReplansLedger) {
  cfg.rate = gbps(8); // 1 ns per byte
  cfg.propagation = 0;
  net::Link link(sim, cfg, a, 0, b, 0, 1); // raw_packet(946) = 1000 B => 1000 ns

  // A starts at t=0, B queues behind it. Halve the rate at t=500: A has 500 B
  // left (=> finishes at 500 + 1000), B's 1000 B take 2000 ns after that.
  link.send_from(a, raw_packet(946));
  link.send_from(a, raw_packet(946));
  sim.schedule_at(500, [&] { link.set_rate(gbps(4)); });
  sim.run();

  ASSERT_EQ(b.arrivals.size(), 2u);
  EXPECT_EQ(std::get<0>(b.arrivals[0]), 1500);
  EXPECT_EQ(std::get<0>(b.arrivals[1]), 3500);
  EXPECT_EQ(link.counters_from(a).delivered_packets, 2u);
  // Post-change sends start from the re-planned busy_until, not a stale one.
  link.send_from(a, raw_packet(946));
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 3u);
  EXPECT_EQ(std::get<0>(b.arrivals[2]), 3500 + 2000);
}

TEST_F(FaultLinkFixture, MidRunSpeedupDeliversEarlierExactlyOnce) {
  cfg.rate = gbps(4); // 2 ns per byte
  cfg.propagation = nsec(100);
  net::Link link(sim, cfg, a, 0, b, 0, 1);

  // 1000 B => 2000 ns at 4 Gbps. Double the rate at t=1000: 500 B remain,
  // now taking 500 ns => finish 1500, delivery 1600 (vs the original 2100).
  link.send_from(a, raw_packet(946));
  sim.schedule_at(1000, [&] { link.set_rate(gbps(8)); });
  sim.run();

  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(std::get<0>(b.arrivals[0]), 1600);
  // The originally-scheduled (now stale) delivery event must not double-fire.
  EXPECT_EQ(link.counters_from(a).delivered_packets, 1u);
}

TEST_F(FaultLinkFixture, SecondReplanKeepsBitsSentBeforeTheFirst) {
  cfg.rate = gbps(8); // 1 ns per byte
  cfg.propagation = 0;
  net::Link link(sim, cfg, a, 0, b, 0, 1);

  // 8000 bits: 4000 go out by t=500 at 8 Gbps, 2000 more by t=1000 at
  // 4 Gbps, and the last 2000 take 250 ns at 8 Gbps again => 1250. Counting
  // from the whole packet at the second re-plan would send the first 4000
  // twice and deliver at 1750.
  link.send_from(a, raw_packet(946));
  sim.schedule_at(500, [&] { link.set_rate(gbps(4)); });
  sim.schedule_at(1000, [&] { link.set_rate(gbps(8)); });
  sim.run();

  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(std::get<0>(b.arrivals[0]), 1250);
  EXPECT_EQ(link.counters_from(a).delivered_packets, 1u);
}

TEST_F(FaultLinkFixture, RateChangeBeforeTrafficIsPlainConfigChange) {
  net::Link link(sim, cfg, a, 0, b, 0, 1);
  link.set_rate(gbps(1));
  const std::int64_t wire = raw_packet(946).wire_bytes();
  link.send_from(a, raw_packet(946));
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(std::get<0>(b.arrivals[0]),
            serialization_time(wire, gbps(1)) + cfg.propagation);
}

TEST_F(FaultLinkFixture, BurstLossDropsAndCountsDeterministically) {
  net::Link link(sim, cfg, a, 0, b, 0, 1);
  net::BurstLossConfig ge;
  ge.p_enter = 1.0; // bad from the first packet on
  ge.p_exit = 0.0;
  ge.loss_bad = 1.0;
  link.set_burst_loss(ge);
  for (int i = 0; i < 5; ++i) link.send_from(a, raw_packet(100));
  sim.run();
  EXPECT_TRUE(b.arrivals.empty());
  EXPECT_EQ(link.counters_from(a).dropped_burst, 5u);
  EXPECT_EQ(link.counters_from(a).burst_entries, 1u);
  EXPECT_THROW(link.set_burst_loss(net::BurstLossConfig{1.5, 0, 0, 0}), std::invalid_argument);
}

TEST_F(FaultLinkFixture, IdleBurstProcessDoesNotPerturbBernoulliStream) {
  cfg.loss_prob = 0.3;
  // Two identical links, one with a never-entering burst chain: the Bernoulli
  // draws must be unaffected (separate RNG streams), so the same packets drop.
  net::Link plain(sim, cfg, a, 0, b, 0, 7);
  SinkNode c{sim, 2, "a"}, d{sim, 3, "b"}; // same names => same RNG stream labels
  net::Link bursty(sim, cfg, c, 0, d, 0, 7);
  bursty.set_burst_loss(net::BurstLossConfig{0.0, 0.1, 0.0, 1.0});
  for (int i = 0; i < 200; ++i) {
    plain.send_from(a, raw_packet(100));
    bursty.send_from(c, raw_packet(100));
  }
  sim.run();
  EXPECT_EQ(plain.counters_from(a).dropped_loss, bursty.counters_from(c).dropped_loss);
  EXPECT_EQ(b.arrivals.size(), d.arrivals.size());
  EXPECT_EQ(bursty.counters_from(c).dropped_burst, 0u);
}

TEST(HostNic, SlowdownStretchesCostsAndUnitFactorIsNeutral) {
  sim::Simulation sim;
  net::NicConfig nc;
  net::HostNic fast(sim, nc), stretched(sim, nc), neutral(sim, nc);
  stretched.set_slowdown(4.0);
  neutral.set_slowdown(1.0);
  const Time t_fast = fast.tx_ready(0, 180);
  const Time t_slow = stretched.tx_ready(0, 180);
  const Time t_neutral = neutral.tx_ready(0, 180);
  EXPECT_EQ(t_neutral, t_fast);
  EXPECT_EQ(t_slow - nc.tx_latency, (t_fast - nc.tx_latency) * 4);
  EXPECT_THROW(fast.set_slowdown(0.0), std::invalid_argument);
}

// ---- mid-run mutation hooks vs determinism ---------------------------------

std::vector<Time> run_with_midrun_loss_change(std::uint64_t elems) {
  ClusterConfig cfg = ClusterConfig::for_rate(gbps(10), 4);
  cfg.timing_only = true;
  Fabric cluster(cfg.fabric());
  cluster.simulation().schedule_at(usec(50), [&cluster] {
    cluster.link(0).set_loss_prob(0.01);
    cluster.link(1).set_rate(gbps(10) / 2);
  });
  return cluster.reduce_timing(elems);
}

TEST(MutationHooks, MidRunMutationsAreDeterministic) {
  const auto first = run_with_midrun_loss_change(64 * 1024);
  const auto second = run_with_midrun_loss_change(64 * 1024);
  EXPECT_EQ(first, second);
}

TEST(MutationHooks, NeverMatchingDropFilterDoesNotPerturbLossDraws) {
  auto run = [](bool with_filter) {
    ClusterConfig cfg = ClusterConfig::for_rate(gbps(10), 4);
    cfg.timing_only = true;
    cfg.loss_prob = 0.001;
    Fabric cluster(cfg.fabric());
    if (with_filter)
      for (int i = 0; i < 4; ++i)
        cluster.link(i).set_drop_filter(
            [](const net::Node&, const net::Packet&) { return false; });
    return cluster.reduce_timing(64 * 1024);
  };
  // The Bernoulli draw happens before (and short-circuits) the filter, so a
  // pass-through filter must leave the loss pattern bit-identical.
  EXPECT_EQ(run(false), run(true));
}

// ---- FaultPlan through the fabric ------------------------------------------

TEST(FaultPlanTest, ValidationRejectsBadSpecs) {
  ClusterConfig cfg = ClusterConfig::for_rate(gbps(10), 4);
  cfg.timing_only = true;
  {
    ClusterConfig bad = cfg;
    bad.faults.stragglers.push_back({9, 2.0, 0, -1});
    EXPECT_THROW(Fabric{bad.fabric()}, std::invalid_argument);
  }
  {
    ClusterConfig bad = cfg;
    bad.faults.flaps.push_back({99, usec(1), usec(2)});
    EXPECT_THROW(Fabric{bad.fabric()}, std::invalid_argument);
  }
  {
    ClusterConfig bad = cfg;
    bad.faults.flap_cycles.push_back({0, msec(1), 1.5, 0, 0});
    EXPECT_THROW(Fabric{bad.fabric()}, std::invalid_argument);
  }
  {
    ClusterConfig bad = cfg;
    bad.faults.switch_restarts.push_back({5, usec(1)});
    EXPECT_THROW(Fabric{bad.fabric()}, std::invalid_argument);
  }
}

TEST(FaultPlanTest, UnitFactorStragglerIsBitIdenticalToClean) {
  ClusterConfig cfg = ClusterConfig::for_rate(gbps(10), 4);
  cfg.timing_only = true;
  Fabric clean(cfg.fabric());
  cfg.faults.stragglers.push_back({0, 1.0, 0, -1});
  Fabric faulted(cfg.fabric());
  EXPECT_EQ(clean.reduce_timing(64 * 1024), faulted.reduce_timing(64 * 1024));
}

TEST(FaultPlanTest, SameSeedSamePlanIsBitIdentical) {
  auto run = [] {
    ClusterConfig cfg = ClusterConfig::for_rate(gbps(10), 4);
    cfg.timing_only = true;
    cfg.faults.stragglers.push_back({1, 3.0, usec(20), usec(400)});
    cfg.faults.flap_cycles.push_back({0, usec(700), 0.1, usec(50), 0});
    cfg.faults.bursts.push_back({-1, net::BurstLossConfig{0.002, 0.1, 0.0, 0.25}});
    Fabric cluster(cfg.fabric());
    auto tats = cluster.reduce_timing(64 * 1024);
    auto* inj = cluster.fault_injector();
    return std::make_tuple(tats, inj->counters().flaps_applied,
                           inj->counters().straggler_windows);
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultPlanTest, StragglerInflatesBoundedAndRestores) {
  ClusterConfig cfg = ClusterConfig::for_rate(gbps(10), 4);
  cfg.timing_only = true;
  Fabric clean(cfg.fabric());
  const auto clean_tats = clean.reduce_timing(64 * 1024);
  const Time clean_max = *std::max_element(clean_tats.begin(), clean_tats.end());

  cfg.faults.stragglers.push_back({0, 8.0, 0, -1});
  Fabric slow(cfg.fabric());
  const auto slow_tats = slow.reduce_timing(64 * 1024);
  const Time slow_max = *std::max_element(slow_tats.begin(), slow_tats.end());
  EXPECT_GT(slow_max, clean_max);        // a straggler hurts...
  EXPECT_LT(slow_max, clean_max * 16);   // ...but inflation stays bounded
  EXPECT_EQ(slow.fault_injector()->active_stragglers(), 1);
  // Self-clocking drags everyone to the straggler's pace (§6).
  const Time slow_min = *std::min_element(slow_tats.begin(), slow_tats.end());
  EXPECT_GT(slow_min * 10, slow_max * 9);
}

TEST(FaultPlanTest, FlapCycleCompletesWithBoundedInflation) {
  ClusterConfig cfg = ClusterConfig::for_rate(gbps(10), 4);
  cfg.timing_only = true;
  Fabric clean(cfg.fabric());
  const auto clean_tats = clean.reduce_timing(64 * 1024);
  const Time clean_max = *std::max_element(clean_tats.begin(), clean_tats.end());

  // Period 700 us does not divide the 1 ms RTO, so retransmissions cannot
  // resonate with the down windows.
  cfg.faults.flap_cycles.push_back({0, usec(700), 0.1, usec(50), 0});
  Fabric flapped(cfg.fabric());
  const auto tats = flapped.reduce_timing(64 * 1024); // must terminate
  const Time max_tat = *std::max_element(tats.begin(), tats.end());
  EXPECT_LT(max_tat, clean_max * 100); // no livelock / unbounded stall
  EXPECT_GE(flapped.fault_injector()->counters().flaps_applied, 1u);
  EXPECT_FALSE(flapped.link(0).is_down()); // the run always quiesces link-up
  const auto& c = flapped.link(0).counters_from(flapped.worker(0));
  EXPECT_GT(c.dropped_down, 0u); // the flap really dropped traffic
}

TEST(FaultPlanTest, OneShotFlapAfterWorkloadStillRestoresLink) {
  ClusterConfig cfg = ClusterConfig::for_rate(gbps(10), 4);
  cfg.timing_only = true;
  cfg.faults.flaps.push_back({0, msec(50), msec(51)}); // long after the reduction
  Fabric cluster(cfg.fabric());
  cluster.reduce_timing(16 * 1024);
  EXPECT_FALSE(cluster.link(0).is_down());
}

TEST(FaultPlanTest, SwitchRestartMidReductionRecoversTiming) {
  ClusterConfig cfg = ClusterConfig::for_rate(gbps(10), 4);
  cfg.timing_only = true;
  Fabric clean(cfg.fabric());
  const auto clean_tats = clean.reduce_timing(64 * 1024);
  const Time clean_max = *std::max_element(clean_tats.begin(), clean_tats.end());

  cfg.faults.switch_restarts.push_back({0, clean_max / 2});
  Fabric faulted(cfg.fabric());
  const auto tats = faulted.reduce_timing(64 * 1024); // must terminate
  EXPECT_EQ(faulted.root().counters().restarts, 1u);
  const Time max_tat = *std::max_element(tats.begin(), tats.end());
  EXPECT_GE(max_tat, clean_max);      // a wipe can only cost time
  EXPECT_LT(max_tat, clean_max * 50); // recovery via RTO, not livelock
}

TEST(FaultPlanTest, HierarchyLeafRestartKeepsDataModeExact) {
  FabricConfig cfg;
  cfg.topology = HierarchySpec{.racks = 2, .workers_per_rack = 2};
  cfg.pool_size = 16;

  const std::size_t d = 4096;
  std::vector<std::vector<std::int32_t>> updates(4, std::vector<std::int32_t>(d));
  for (int w = 0; w < 4; ++w)
    for (std::size_t i = 0; i < d; ++i)
      updates[static_cast<std::size_t>(w)][i] = static_cast<std::int32_t>(i % 97) + w;
  std::vector<std::int32_t> expect(d);
  for (std::size_t i = 0; i < d; ++i)
    expect[i] = static_cast<std::int32_t>(4 * (i % 97) + 0 + 1 + 2 + 3);

  // Clean run pins down the reduction's duration so the restart provably
  // lands mid-flight.
  Fabric clean(cfg);
  const auto clean_result = clean.reduce_i32(updates);
  const Time clean_max =
      *std::max_element(clean_result.tat.begin(), clean_result.tat.end());

  // Restart leaf 0 (switch_at(1)) mid-reduction: shadow copies + version
  // bits + worker RTOs must re-drive the wiped slots without double-counting.
  cfg.faults.switch_restarts.push_back({1, clean_max / 2});
  Fabric cluster(cfg);
  const auto result = cluster.reduce_i32(updates);
  EXPECT_EQ(cluster.switch_at(1).counters().restarts, 1u);
  for (int w = 0; w < 4; ++w) ASSERT_EQ(result.outputs[static_cast<std::size_t>(w)], expect) << w;
}

TEST(FaultPlanTest, FaultEventsAppearInTraceSink) {
  trace::TraceSink sink(1u << 16, trace::kCatAll);
  trace::TraceSink::Scope scope(&sink);
  ClusterConfig cfg = ClusterConfig::for_rate(gbps(10), 4);
  cfg.timing_only = true;
  cfg.faults.stragglers.push_back({0, 2.0, usec(10), usec(200)});
  // Restarts may land anywhere relative to loss windows: the epoch/resync
  // protocol recovers even a restart that races a lost result packet (see
  // DESIGN.md "Switch restarts" and recovery_test.cpp).
  cfg.faults.switch_restarts.push_back({0, usec(15)});
  cfg.faults.flaps.push_back({1, usec(20), usec(120)});
  Fabric cluster(cfg.fabric());
  cluster.reduce_timing(16 * 1024);

  int down = 0, up = 0, s_on = 0, s_off = 0, restart = 0;
  for (const trace::Event& e : sink.events()) {
    if (e.cat != trace::kCatFault) continue;
    const std::string name = e.name;
    down += name == "link_down";
    up += name == "link_up";
    s_on += name == "straggler_on";
    s_off += name == "straggler_off";
    restart += name == "switch_restart";
  }
  EXPECT_EQ(down, 1);
  EXPECT_EQ(up, 1);
  EXPECT_EQ(s_on, 1);
  EXPECT_EQ(s_off, 1);
  EXPECT_EQ(restart, 1);
}

} // namespace
} // namespace switchml
