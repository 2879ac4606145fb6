// Baseline-collective tests: data correctness of ring, halving-doubling and
// the streaming parameter server (a core::Fabric shape), loss recovery, the
// PS shape's attribution and fault plans, and the timing relationships Fig 4
// is built on.
#include <gtest/gtest.h>

#include <cmath>

#include "collectives/baseline_cluster.hpp"
#include "collectives/bounds.hpp"
#include "collectives/halving_doubling.hpp"
#include "collectives/ring.hpp"
#include "collectives/streaming_ps.hpp"
#include "common/attribution.hpp"
#include "common/timeline.hpp"
#include "core/fabric.hpp"
#include "core/fault.hpp"
#include "core/profiles.hpp"
#include "sim/rng.hpp"

namespace switchml::collectives {
namespace {

std::vector<std::vector<float>> random_buffers(int n, std::size_t d, std::uint64_t seed) {
  sim::Rng rng = sim::Rng::stream(seed, "collective");
  std::vector<std::vector<float>> b(static_cast<std::size_t>(n), std::vector<float>(d));
  for (auto& v : b)
    for (auto& e : v) e = static_cast<float>(rng.uniform_int(-1000, 1000));
  return b;
}

std::vector<float> float_sum(const std::vector<std::vector<float>>& b) {
  std::vector<float> s(b.front().size(), 0.0f);
  for (const auto& v : b)
    for (std::size_t i = 0; i < v.size(); ++i) s[i] += v[i];
  return s;
}

BaselineClusterConfig small_cfg(int hosts) {
  BaselineClusterConfig cfg;
  cfg.n_hosts = hosts;
  cfg.nic = core::gloo_tcp(gbps(10)).nic;
  return cfg;
}

// Transport events summed over the hosts; each host counts its senders'.
net::TransportCounters host_totals(BaselineCluster& cluster) {
  net::TransportCounters sum;
  for (int h = 0; h < cluster.n_hosts(); ++h) {
    const net::TransportCounters& c = cluster.host(h).transport_counters();
    sum.segments_sent += c.segments_sent;
    sum.retransmissions += c.retransmissions;
    sum.timeouts += c.timeouts;
    sum.fast_retransmits += c.fast_retransmits;
  }
  return sum;
}

// Buffers of unequal length are rejected before anything is sent, whether
// the odd one is shorter (it would be read and written past its end) or
// longer (its tail would never be reduced); the collective stays usable.
template <typename Collective>
void expect_unequal_lengths_rejected(int hosts) {
  for (const std::size_t odd_len : {std::size_t{4095}, std::size_t{4097}}) {
    BaselineCluster cluster(small_cfg(hosts));
    Collective collective(cluster, core::gloo_tcp(gbps(10)).transport);
    auto buffers = random_buffers(hosts, 4096, 7);
    buffers[1].resize(odd_len, 1.0f);
    const auto before = buffers;
    EXPECT_THROW(collective.run(buffers), std::invalid_argument) << odd_len;
    EXPECT_EQ(buffers, before) << odd_len;
    EXPECT_EQ(cluster.simulation().pending_events(), 0u) << odd_len;
    buffers[1].resize(4096);
    const auto expect = float_sum(buffers);
    collective.run(buffers);
    EXPECT_EQ(buffers[0], expect) << odd_len;
  }
}

// --------------------------------------------------------------------- ring

TEST(Ring, ComputesExactSums) {
  BaselineCluster cluster(small_cfg(4));
  auto buffers = random_buffers(4, 4096, 1);
  const auto expect = float_sum(buffers);
  RingAllReduce ring(cluster, core::gloo_tcp(gbps(10)).transport);
  const Time t = ring.run(buffers);
  EXPECT_GT(t, 0);
  for (int h = 0; h < 4; ++h) EXPECT_EQ(buffers[static_cast<std::size_t>(h)], expect);
}

TEST(Ring, WorksWithNonDivisibleSizes) {
  BaselineCluster cluster(small_cfg(4));
  auto buffers = random_buffers(4, 4097, 2); // not divisible by n
  const auto expect = float_sum(buffers);
  RingAllReduce ring(cluster, core::gloo_tcp(gbps(10)).transport);
  ring.run(buffers);
  EXPECT_EQ(buffers[3], expect);
}

TEST(Ring, TwoHostsDegenerate) {
  BaselineCluster cluster(small_cfg(2));
  auto buffers = random_buffers(2, 1024, 3);
  const auto expect = float_sum(buffers);
  RingAllReduce ring(cluster, core::gloo_tcp(gbps(10)).transport);
  ring.run(buffers);
  EXPECT_EQ(buffers[0], expect);
}

TEST(Ring, SurvivesUniformLoss) {
  auto cfg = small_cfg(4);
  cfg.loss_prob = 0.01;
  BaselineCluster cluster(cfg);
  auto buffers = random_buffers(4, 8192, 4);
  const auto expect = float_sum(buffers);
  RingAllReduce ring(cluster, core::gloo_tcp(gbps(10)).transport);
  ring.run(buffers);
  EXPECT_EQ(buffers[0], expect);
  EXPECT_GT(host_totals(cluster).retransmissions, 0u);
}

// A lossy run exercises fast retransmit, RTO and the round barrier, so its
// pinned TAT and transport counts move with any change in the order of events.
TEST(Ring, LossyDataRunKeepsItsTatAndTransportCounts) {
  auto cfg = small_cfg(4);
  cfg.loss_prob = 0.02;
  BaselineCluster cluster(cfg);
  auto buffers = random_buffers(4, 32768, 4);
  const auto expect = float_sum(buffers);
  RingAllReduce ring(cluster, core::gloo_tcp(gbps(10)).transport);
  EXPECT_EQ(ring.run(buffers), 11'411'362);
  for (int h = 0; h < 4; ++h) EXPECT_EQ(buffers[static_cast<std::size_t>(h)], expect);
  const net::TransportCounters c = host_totals(cluster);
  EXPECT_EQ(c.segments_sent, 571u);
  EXPECT_EQ(c.retransmissions, 19u);
  EXPECT_EQ(c.timeouts, 1u);
  EXPECT_EQ(c.fast_retransmits, 14u);
}

TEST(Ring, RejectsBuffersOfDifferentLengths) {
  expect_unequal_lengths_rejected<RingAllReduce>(4);
}

TEST(Ring, AsyncRestartFromOnDoneKeepsItsTat) {
  // training_sim's fusion buffer starts the next reduction from inside the
  // previous one's on_done, then keeps using what that on_done captured. The
  // second TAT is longer than the first: it starts while the first run's ACK
  // backlog is still draining.
  BaselineCluster cluster(small_cfg(4));
  RingAllReduce ring(cluster, core::gloo_tcp(gbps(10)).transport);
  auto& sim = cluster.simulation();
  auto first = std::make_shared<Time>(-1);
  Time second = -1;
  ring.start_async(std::int64_t{1} << 20, [&ring, &sim, &second, first] {
    *first = sim.now();
    ring.start_async(std::int64_t{1} << 20,
                     [&sim, &second, first] { second = sim.now() - *first; });
    EXPECT_EQ(*first, 6'103'810); // this callback outlives the restart
  });
  sim.run();
  EXPECT_EQ(*first, 6'103'810);
  EXPECT_EQ(second, 6'139'548);
}

TEST(Ring, StartAsyncOnABusyRingThrows) {
  BaselineCluster cluster(small_cfg(4));
  RingAllReduce ring(cluster, core::gloo_tcp(gbps(10)).transport);
  int done = 0;
  ring.start_async(std::int64_t{1} << 16, [&] { ++done; });
  EXPECT_THROW(ring.start_async(std::int64_t{1} << 16, nullptr), std::logic_error);
  EXPECT_THROW(ring.run(std::int64_t{1} << 16), std::logic_error);
  cluster.simulation().run();
  EXPECT_EQ(done, 1);
  EXPECT_GT(ring.run(std::int64_t{1} << 16), 0); // idle again
}

TEST(Ring, LossInflatesCompletionTime) {
  Time clean, lossy;
  {
    BaselineCluster cluster(small_cfg(4));
    RingAllReduce ring(cluster, core::gloo_tcp(gbps(10)).transport);
    clean = ring.run(static_cast<std::int64_t>(4) * 1024 * 1024);
  }
  {
    auto cfg = small_cfg(4);
    cfg.loss_prob = 0.005;
    BaselineCluster cluster(cfg);
    RingAllReduce ring(cluster, core::gloo_tcp(gbps(10)).transport);
    lossy = ring.run(static_cast<std::int64_t>(4) * 1024 * 1024);
  }
  EXPECT_GT(lossy, clean);
}

TEST(Ring, TatEndsAtTheLastLiveEventUnderATimeline) {
  // The TAT includes the NICs' ACK backlog after the last round, but not the
  // timeline's closing daemon tick, which lands on the next whole
  // millisecond (7 ms).
  const auto tat = [](bool sampled) {
    BaselineCluster cluster(small_cfg(4));
    TimelineRecorder recorder(cluster.simulation(), cluster.metrics(), {msec(1)});
    if (sampled) recorder.start();
    RingAllReduce ring(cluster, core::gloo_tcp(gbps(10)).transport);
    return ring.run(std::int64_t{1} << 20);
  };
  EXPECT_EQ(tat(false), 6'501'236);
  EXPECT_EQ(tat(true), 6'501'236);
}

// ---------------------------------------------------------- halving-doubling

TEST(HalvingDoubling, ComputesExactSums) {
  BaselineCluster cluster(small_cfg(8));
  auto buffers = random_buffers(8, 4096, 5);
  const auto expect = float_sum(buffers);
  HalvingDoublingAllReduce hd(cluster, core::gloo_tcp(gbps(10)).transport);
  hd.run(buffers);
  for (int h = 0; h < 8; ++h) EXPECT_EQ(buffers[static_cast<std::size_t>(h)], expect);
}

TEST(HalvingDoubling, OddSizesAndSmallVectors) {
  BaselineCluster cluster(small_cfg(4));
  auto buffers = random_buffers(4, 37, 6);
  const auto expect = float_sum(buffers);
  HalvingDoublingAllReduce hd(cluster, core::gloo_tcp(gbps(10)).transport);
  hd.run(buffers);
  EXPECT_EQ(buffers[2], expect);
}

TEST(HalvingDoubling, LossyDataRunKeepsItsTatAndTransportCounts) {
  auto cfg = small_cfg(8);
  cfg.loss_prob = 0.02;
  BaselineCluster cluster(cfg);
  auto buffers = random_buffers(8, 32768, 8);
  const auto expect = float_sum(buffers);
  HalvingDoublingAllReduce hd(cluster, core::gloo_tcp(gbps(10)).transport);
  EXPECT_EQ(hd.run(buffers), 34'232'123);
  for (int h = 0; h < 8; ++h) EXPECT_EQ(buffers[static_cast<std::size_t>(h)], expect);
  const net::TransportCounters c = host_totals(cluster);
  EXPECT_EQ(c.segments_sent, 1445u);
  EXPECT_EQ(c.retransmissions, 165u);
  EXPECT_EQ(c.timeouts, 13u);
  EXPECT_EQ(c.fast_retransmits, 25u);
}

TEST(HalvingDoubling, RejectsBuffersOfDifferentLengths) {
  expect_unequal_lengths_rejected<HalvingDoublingAllReduce>(8);
}

TEST(HalvingDoubling, RejectsNonPowerOfTwo) {
  BaselineCluster cluster(small_cfg(6));
  HalvingDoublingAllReduce hd(cluster, core::gloo_tcp(gbps(10)).transport);
  EXPECT_THROW(hd.run(static_cast<std::int64_t>(4096)), std::invalid_argument);
}

TEST(HalvingDoubling, FewerRoundsThanRingForSmallTensors) {
  // log2(n) vs 2(n-1) rounds: for latency-bound (tiny) tensors HD wins.
  auto cfg = small_cfg(8);
  Time t_ring, t_hd;
  {
    BaselineCluster cluster(cfg);
    RingAllReduce ring(cluster, core::gloo_tcp(gbps(10)).transport);
    t_ring = ring.run(static_cast<std::int64_t>(1024));
  }
  {
    BaselineCluster cluster(cfg);
    HalvingDoublingAllReduce hd(cluster, core::gloo_tcp(gbps(10)).transport);
    t_hd = hd.run(static_cast<std::int64_t>(1024));
  }
  EXPECT_LT(t_hd, t_ring);
}

TEST(HalvingDoubling, BackToBackRunsEachDrainTheirOwnTraffic) {
  // Each run's ACK backlog drains before it returns; left queued, it ran
  // inside the next run and inflated that TAT by 11%.
  BaselineCluster cluster(small_cfg(8));
  HalvingDoublingAllReduce hd(cluster, core::gloo_tcp(gbps(10)).transport);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(hd.run(std::int64_t{1} << 20), 7'838'330) << "run " << r;
    EXPECT_EQ(cluster.simulation().live_pending_events(), 0u) << "run " << r;
  }
}

// -------------------------------------------------------------- streaming PS

using core::PsPlacement;

core::FabricConfig sps_cfg(int n, PsPlacement placement, double loss = 0.0) {
  core::FabricConfig cfg;
  cfg.topology = core::StreamingPsSpec{n, placement};
  cfg.pool_size = 16;
  cfg.loss_prob = loss;
  cfg.nic = core::ps_host_nic(gbps(10));
  return cfg;
}

std::vector<std::vector<std::int32_t>> random_i32(int n, std::size_t d, std::uint64_t seed) {
  sim::Rng rng = sim::Rng::stream(seed, "sps");
  std::vector<std::vector<std::int32_t>> u(static_cast<std::size_t>(n),
                                           std::vector<std::int32_t>(d));
  for (auto& v : u)
    for (auto& e : v) e = static_cast<std::int32_t>(rng.uniform_int(-100000, 100000));
  return u;
}

std::vector<std::int32_t> i32_sum(const std::vector<std::vector<std::int32_t>>& u) {
  std::vector<std::int32_t> s(u.front().size(), 0);
  for (const auto& v : u)
    for (std::size_t i = 0; i < v.size(); ++i) s[i] += v[i];
  return s;
}

TEST(StreamingPs, DedicatedComputesExactSums) {
  core::Fabric cluster(sps_cfg(4, PsPlacement::Dedicated));
  auto updates = random_i32(4, 8192, 9);
  auto result = cluster.reduce_i32(updates);
  const auto expect = i32_sum(updates);
  for (int w = 0; w < 4; ++w) EXPECT_EQ(result.outputs[static_cast<std::size_t>(w)], expect);
}

TEST(StreamingPs, ColocatedComputesExactSums) {
  core::Fabric cluster(sps_cfg(4, PsPlacement::Colocated));
  auto updates = random_i32(4, 8192, 10);
  auto result = cluster.reduce_i32(updates);
  const auto expect = i32_sum(updates);
  for (int w = 0; w < 4; ++w) EXPECT_EQ(result.outputs[static_cast<std::size_t>(w)], expect);
}

TEST(StreamingPs, DedicatedSurvivesLoss) {
  core::Fabric cluster(sps_cfg(4, PsPlacement::Dedicated, 0.02));
  auto updates = random_i32(4, 8192, 11);
  auto result = cluster.reduce_i32(updates);
  EXPECT_EQ(result.outputs[0], i32_sum(updates));
}

TEST(StreamingPs, ColocatedSurvivesLoss) {
  core::Fabric cluster(sps_cfg(3, PsPlacement::Colocated, 0.02));
  auto updates = random_i32(3, 8192, 12);
  auto result = cluster.reduce_i32(updates);
  EXPECT_EQ(result.outputs[2], i32_sum(updates));
}

TEST(StreamingPs, ConsecutiveReductions) {
  core::Fabric cluster(sps_cfg(4, PsPlacement::Dedicated));
  for (int round = 0; round < 3; ++round) {
    auto updates = random_i32(4, 2048, 13 + static_cast<std::uint64_t>(round));
    auto result = cluster.reduce_i32(updates);
    ASSERT_EQ(result.outputs[0], i32_sum(updates)) << "round " << round;
  }
}

// The PS TATs the standalone PS cluster measured before the PS became a
// fabric shape: 4 workers, 10 Gbps, UDP, pool 128, a 1 MiB tensor.
TEST(StreamingPs, TatsMatchTheStandaloneCluster) {
  const auto tats = [](PsPlacement placement) {
    core::FabricConfig cfg = sps_cfg(4, placement);
    cfg.pool_size = 128;
    cfg.transport = net::TransportKind::kUdp;
    cfg.timing_only = true;
    core::Fabric cluster(cfg);
    return cluster.reduce_timing(256 * 1024);
  };
  EXPECT_EQ(tats(PsPlacement::Dedicated),
            (std::vector<Time>{1'298'256, 1'298'400, 1'298'544, 1'298'688}));
  EXPECT_EQ(tats(PsPlacement::Colocated),
            (std::vector<Time>{2'074'008, 2'074'152, 2'074'296, 2'074'440}));
}

// The shards attribute slot dwell like the switch does, so a PS run under a
// ledger conserves every chunk's time exactly and closes every chunk; with
// loss, the shards also attribute the duplicates they ignore or answer.
TEST(StreamingPs, AttributionConservesOnBothPlacements) {
  for (double loss : {0.0, 0.02}) {
    for (PsPlacement placement : {PsPlacement::Dedicated, PsPlacement::Colocated}) {
      SCOPED_TRACE((placement == PsPlacement::Dedicated ? "dedicated, loss " : "colocated, loss ") +
                   std::to_string(loss));
      attr::SpanLedger ledger;
      attr::SpanLedger::Scope scope(&ledger);
      core::FabricConfig cfg = sps_cfg(4, placement, loss);
      cfg.timing_only = true;
      core::Fabric cluster(cfg);
      cluster.reduce_timing(8192);
      const auto snap = cluster.metrics().snapshot();
      if (loss > 0) {
        EXPECT_GT(snap.sum(".duplicates"), 0u);
      }
      EXPECT_EQ(ledger.max_residual_ns(), 0u);
      EXPECT_EQ(ledger.chunks_closed(), 4u * 8192 / net::kDefaultElemsPerPacket);
      EXPECT_EQ(ledger.reopened(), 0u);
      EXPECT_GT(ledger.total(attr::Component::kSwitchWait), 0u);
      EXPECT_GT(ledger.total(attr::Component::kSwitchReady), 0u);
      EXPECT_EQ(snap.counter("attr.chunks_closed"), ledger.chunks_closed());
      if (loss > 0) {
        EXPECT_GT(ledger.total(attr::Component::kRtoStall), 0u);
      }
    }
  }
}

// A FaultPlan reaches the PS: flapping PS host 1's uplink (link n + 1) drops
// the updates and results it carries, and the workers' timers repair them.
TEST(StreamingPs, PsUplinkFlapKeepsSumsBitExact) {
  core::FabricConfig cfg = sps_cfg(4, PsPlacement::Dedicated);
  cfg.faults.flaps.push_back({5, usec(20), usec(60)});
  core::Fabric cluster(cfg);
  auto updates = random_i32(4, 8192, 14);
  auto result = cluster.reduce_i32(updates);
  const auto expect = i32_sum(updates);
  for (int w = 0; w < 4; ++w) EXPECT_EQ(result.outputs[static_cast<std::size_t>(w)], expect);

  net::Link& flapped = cluster.link(5);
  const net::Node& sw = cluster.link(0).peer_of(cluster.worker(0));
  EXPECT_EQ(cluster.fault_injector()->counters().flaps_applied, 1u);
  EXPECT_GT(flapped.counters_from(sw).dropped_down +
                flapped.counters_from(flapped.peer_of(sw)).dropped_down,
            0u);
  std::uint64_t retransmissions = 0;
  for (int w = 0; w < 4; ++w) retransmissions += cluster.worker(w).counters().retransmissions;
  EXPECT_GT(retransmissions, 0u);
}

// No aggregation switch: root() throws, and a plan that restarts or kills a
// switch is rejected (the PS workers have no dead-switch retry budget).
TEST(StreamingPs, HasNoAggregationSwitch) {
  for (PsPlacement placement : {PsPlacement::Dedicated, PsPlacement::Colocated}) {
    core::FabricConfig cfg = sps_cfg(2, placement);
    core::Fabric cluster(cfg);
    EXPECT_EQ(cluster.n_switches(), 0u);
    EXPECT_THROW((void)cluster.root(), std::logic_error);
    cfg.faults.switch_kills.push_back({0, usec(10)});
    EXPECT_THROW(core::Fabric{cfg}, std::invalid_argument);
    cfg.faults = {};
    cfg.faults.switch_restarts.push_back({0, usec(10)});
    EXPECT_THROW(core::Fabric{cfg}, std::invalid_argument);
  }
}

// -------------------------------------------------- software aggregator unit

TEST(SoftwareAggregator, MirrorsAlgorithm3Semantics) {
  SoftwareAggregator agg(2, 4);
  net::Packet p;
  p.kind = net::PacketKind::SmlUpdate;
  p.idx = 1;
  p.ver = 0;
  p.elem_count = 2;
  p.values = {10, 20};

  p.wid = 0;
  auto r0 = agg.process(p);
  EXPECT_EQ(r0.kind, SoftwareAggregator::Outcome::Kind::Absorbed);

  // Duplicate before completion: ignored.
  auto dup = agg.process(p);
  EXPECT_EQ(dup.kind, SoftwareAggregator::Outcome::Kind::Ignored);

  p.wid = 1;
  p.values = {1, 2};
  auto r1 = agg.process(p);
  ASSERT_EQ(r1.kind, SoftwareAggregator::Outcome::Kind::Completed);
  EXPECT_EQ(r1.values, (std::vector<std::int32_t>{11, 22}));

  // Duplicate after completion: replies with the stored aggregate.
  p.wid = 0;
  p.values = {10, 20};
  auto replay = agg.process(p);
  ASSERT_EQ(replay.kind, SoftwareAggregator::Outcome::Kind::ReplyStored);
  EXPECT_EQ(replay.values, (std::vector<std::int32_t>{11, 22}));

  EXPECT_EQ(agg.counters().completions, 1u);
  EXPECT_EQ(agg.counters().duplicates, 2u);
}

TEST(SoftwareAggregator, RejectsInvalidConfiguration) {
  EXPECT_THROW(SoftwareAggregator(0, 4), std::invalid_argument);
  EXPECT_THROW(SoftwareAggregator(65, 4), std::invalid_argument);
  SoftwareAggregator agg(2, 4);
  net::Packet p;
  p.idx = 4; // out of range
  EXPECT_THROW(agg.process(p), std::runtime_error);
}

// ------------------------------------------------------------ Fig 4 relations

TEST(Fig4Relations, ColocatedPsIsRoughlyHalfOfDedicated) {
  const std::uint64_t elems = 256 * 1024;
  auto run = [&](PsPlacement p) {
    core::FabricConfig cfg = sps_cfg(4, p);
    cfg.pool_size = 128;
    cfg.timing_only = true;
    core::Fabric cluster(cfg);
    auto tats = cluster.reduce_timing(elems);
    return static_cast<double>(elems) / to_sec(tats[0]);
  };
  const double dedicated = run(PsPlacement::Dedicated);
  const double colocated = run(PsPlacement::Colocated);
  EXPECT_GT(dedicated, colocated * 1.5);
  EXPECT_LT(dedicated, colocated * 2.5);
}

TEST(Fig4Relations, LineRateBoundsAreOrdered) {
  // SwitchML's bound beats the ring bound for every n > 2 at equal rate.
  for (int n : {4, 8, 16})
    EXPECT_GT(switchml_ate_rate(gbps(10), 32), ring_ate_rate(gbps(10), n));
  // The ring bound decreases with n toward half the link's element rate.
  EXPECT_GT(ring_ate_rate(gbps(10), 4), ring_ate_rate(gbps(10), 16));
  // Colocated PS bound is about half the dedicated bound for large n.
  EXPECT_NEAR(colocated_ps_ate_rate(gbps(10), 16, 128) * 2,
              dedicated_ps_ate_rate(gbps(10), 128) * 16.0 / 15.0 * 31.0 / 32.0,
              dedicated_ps_ate_rate(gbps(10), 128) * 0.1);
}

TEST(Fig4Relations, TatAtLineRateMatchesHandComputation) {
  // 25e6 elements (100 MB) at 10 Gbps with 180-byte packets: 222.2e6 elem/s.
  const double rate = switchml_ate_rate(gbps(10), 32);
  EXPECT_NEAR(rate, 10e9 / 8.0 * (128.0 / 180.0) / 4.0, 1.0);
  EXPECT_NEAR(tat_seconds_at(rate, 25'000'000), 0.1125, 0.001);
}

} // namespace
} // namespace switchml::collectives
