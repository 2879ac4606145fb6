// Worker protocol unit tests: error handling, RTT sampling (Karn's rule),
// timeline sampling, destination resolver, wire-format effects.
#include <gtest/gtest.h>

#include "common/timeline.hpp"
#include "core/cluster.hpp"

namespace switchml::core {
namespace {

ClusterConfig cfg4() {
  ClusterConfig c;
  c.n_workers = 4;
  c.pool_size = 8;
  return c;
}

TEST(Worker, StartWhileActiveThrows) {
  Fabric cluster(cfg4().fabric());
  cluster.worker(0).start_reduction(1024, nullptr);
  EXPECT_THROW(cluster.worker(0).start_reduction(1024, nullptr), std::logic_error);
}

TEST(Worker, ZeroElementReductionCompletesImmediately) {
  Fabric cluster(cfg4().fabric());
  bool done = false;
  cluster.worker(0).start_reduction(0, [&] { done = true; });
  EXPECT_TRUE(done);
  EXPECT_FALSE(cluster.worker(0).reduction_active());
}

TEST(Worker, DataReductionOnTimingOnlyWorkerThrows) {
  // The worker sends the values; the switch, built without value registers,
  // refuses the first update that carries them.
  ClusterConfig c = cfg4();
  c.timing_only = true;
  Fabric cluster(c.fabric());
  std::vector<std::int32_t> u(64, 1), out(64);
  cluster.worker(0).start_reduction(u, out, nullptr);
  EXPECT_THROW(cluster.simulation().run(), std::logic_error);
}

TEST(Worker, MismatchedSpansThrow) {
  Fabric cluster(cfg4().fabric());
  std::vector<std::int32_t> u(64, 1), out(32);
  EXPECT_THROW(cluster.worker(0).start_reduction(u, out, nullptr), std::invalid_argument);
}

TEST(Worker, RttSamplesArePlausible) {
  ClusterConfig c = cfg4();
  // The RTT ceiling below is calibrated for the UDP datapath, so the test
  // names it.
  c.transport = net::TransportKind::kUdp;
  c.timing_only = true;
  Fabric cluster(c.fabric());
  cluster.reduce_timing(32 * 8 * 10);
  const auto& rtt = cluster.worker(0).rtt();
  ASSERT_FALSE(rtt.empty());
  // RTT must be at least the two NIC latencies plus wire time, and
  // single-digit-to-tens of microseconds in this configuration.
  EXPECT_GT(rtt.min(), to_usec(c.nic.tx_latency + c.nic.rx_latency));
  EXPECT_LT(rtt.max(), 100.0);
}

TEST(Worker, KarnsRuleExcludesRetransmittedPackets) {
  // With a too-short RTO every packet times out before its (normal-latency)
  // result arrives; Karn's rule must discard all those samples.
  ClusterConfig c = cfg4();
  c.timing_only = true;
  c.retransmit_timeout = usec(2); // well under the ~10 us RTT
  Fabric cluster(c.fabric());
  cluster.reduce_timing(32 * 8);
  EXPECT_GT(cluster.worker(0).counters().retransmissions, 0u);
  // Every in-flight packet was retransmitted at least once -> no clean samples.
  EXPECT_EQ(cluster.worker(0).rtt().count(), 0u);
}

TEST(Worker, TimelineDeltasCountAllSentPackets) {
  ClusterConfig c = cfg4();
  c.timing_only = true;
  Fabric cluster(c.fabric());
  TimelineRecorder::Config tc;
  tc.period = usec(100);
  TimelineRecorder timeline(cluster.simulation(), cluster.metrics(), tc);
  timeline.start();
  cluster.reduce_timing(32 * 256);
  timeline.finish();
  const auto deltas = timeline.deltas("worker-0.updates_sent");
  std::uint64_t total = 0;
  for (auto d : deltas) total += d;
  EXPECT_EQ(total, cluster.worker(0).counters().updates_sent);
  EXPECT_GT(deltas.size(), 1u); // the run spans several sampling periods
}

TEST(Worker, InvalidTimelinePeriodThrows) {
  Fabric cluster(cfg4().fabric());
  TimelineRecorder::Config tc;
  tc.period = 0;
  EXPECT_THROW(TimelineRecorder(cluster.simulation(), cluster.metrics(), tc),
               std::invalid_argument);
}

TEST(Worker, Fp16WireHalvesAggregationTime) {
  ClusterConfig c32 = cfg4();
  c32.timing_only = true;
  c32.pool_size = 128;
  ClusterConfig c16 = c32;
  c16.wire_elem_bytes = 2;
  Time t32, t16;
  {
    Fabric cluster(c32.fabric());
    t32 = cluster.reduce_timing(1 << 18)[0];
  }
  {
    Fabric cluster(c16.fabric());
    t16 = cluster.reduce_timing(1 << 18)[0];
  }
  EXPECT_LT(to_msec(t16), to_msec(t32) * 0.75);
  EXPECT_GT(to_msec(t16), to_msec(t32) * 0.4);
}

TEST(Worker, SelfClockingKeepsInFlightBounded) {
  // The number of update packets a worker ever sends (absent loss) is
  // exactly the chunk count: one per result, no more — the protocol is
  // strictly self-clocked after the initial window.
  ClusterConfig c = cfg4();
  c.timing_only = true;
  c.pool_size = 16;
  Fabric cluster(c.fabric());
  const std::uint64_t chunks = 1000;
  cluster.reduce_timing(32 * chunks);
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(cluster.worker(w).counters().updates_sent, chunks);
    EXPECT_EQ(cluster.worker(w).counters().retransmissions, 0u);
  }
}

TEST(Worker, AdaptiveRtoTracksMeasuredRtt) {
  ClusterConfig c = cfg4();
  c.timing_only = true;
  c.adaptive_rto = true;
  Fabric cluster(c.fabric());
  cluster.reduce_timing(32 * 8 * 50);
  // RTT ~ 10 us here; the Jacobson estimate clamps at rto_min (150 us),
  // far below the 1 ms fixed default.
  EXPECT_LT(cluster.worker(0).current_rto(), usec(300));
  EXPECT_GE(cluster.worker(0).current_rto(), usec(150));
}

TEST(Worker, AdaptiveRtoAvoidsSpuriousRetransmissionsUnderLoad) {
  // Clean network, adaptive timers: even across many phases no retransmission
  // should ever fire (RTO stays safely above the stable RTT).
  ClusterConfig c = cfg4();
  c.timing_only = true;
  c.adaptive_rto = true;
  c.pool_size = 64;
  Fabric cluster(c.fabric());
  cluster.reduce_timing(32 * 64 * 20);
  for (int w = 0; w < 4; ++w)
    EXPECT_EQ(cluster.worker(w).counters().retransmissions, 0u) << w;
}

TEST(Worker, MtuModeUsesLargePackets) {
  ClusterConfig c = cfg4();
  c.timing_only = true;
  c.elems_per_packet = net::kMtuElemsPerPacket;
  c.mtu_emulation = true;
  Fabric cluster(c.fabric());
  const std::uint64_t elems = 366 * 100;
  cluster.reduce_timing(elems);
  EXPECT_EQ(cluster.worker(0).counters().updates_sent, 100u);
}

} // namespace
} // namespace switchml::core
