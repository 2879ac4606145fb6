// End-to-end SwitchML protocol tests over the simulated fabric: correctness
// of streaming aggregation (Algorithms 1-4), loss recovery, version/shadow
// semantics across consecutive reductions, hierarchical composition, and the
// float-level public API.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <string>
#include <string_view>

#include "common/tracing.hpp"
#include "core/allreduce.hpp"
#include "core/cluster.hpp"
#include "core/stream_manager.hpp"
#include "quant/fixed_point.hpp"
#include "sim/rng.hpp"

namespace switchml::core {
namespace {

std::vector<std::vector<std::int32_t>> random_updates(int n, std::size_t d, std::uint64_t seed,
                                                      std::int32_t magnitude = 1'000'000) {
  sim::Rng rng = sim::Rng::stream(seed, "updates");
  std::vector<std::vector<std::int32_t>> u(static_cast<std::size_t>(n));
  for (auto& v : u) {
    v.resize(d);
    for (auto& e : v) e = static_cast<std::int32_t>(rng.uniform_int(-magnitude, magnitude));
  }
  return u;
}

std::vector<std::int32_t> exact_sum(const std::vector<std::vector<std::int32_t>>& u) {
  std::vector<std::int32_t> s(u.front().size(), 0);
  for (const auto& v : u)
    for (std::size_t i = 0; i < v.size(); ++i)
      s[i] = static_cast<std::int32_t>(static_cast<std::uint32_t>(s[i]) +
                                       static_cast<std::uint32_t>(v[i]));
  return s;
}

ClusterConfig small_config(int n = 4) {
  ClusterConfig c;
  c.n_workers = n;
  c.pool_size = 16;
  return c;
}

TEST(Cluster, AggregatesExactIntegerSums) {
  Fabric cluster(small_config(4).fabric());
  auto updates = random_updates(4, 4096, 1);
  auto result = cluster.reduce_i32(updates);
  const auto expect = exact_sum(updates);
  for (int w = 0; w < 4; ++w) EXPECT_EQ(result.outputs[static_cast<std::size_t>(w)], expect);
  for (Time t : result.tat) EXPECT_GT(t, 0);
}

TEST(Cluster, SingleWorkerDegenerateCase) {
  Fabric cluster(small_config(1).fabric());
  auto updates = random_updates(1, 1024, 2);
  auto result = cluster.reduce_i32(updates);
  EXPECT_EQ(result.outputs[0], updates[0]);
}

TEST(Cluster, TwoWorkers) {
  Fabric cluster(small_config(2).fabric());
  auto updates = random_updates(2, 2048, 3);
  auto result = cluster.reduce_i32(updates);
  EXPECT_EQ(result.outputs[0], exact_sum(updates));
}

TEST(Cluster, TensorSmallerThanOnePacket) {
  Fabric cluster(small_config(4).fabric());
  auto updates = random_updates(4, 5, 4); // < k = 32
  auto result = cluster.reduce_i32(updates);
  EXPECT_EQ(result.outputs[2], exact_sum(updates));
}

TEST(Cluster, TensorNotMultipleOfPacketSize) {
  Fabric cluster(small_config(4).fabric());
  auto updates = random_updates(4, 32 * 16 * 3 + 17, 5);
  auto result = cluster.reduce_i32(updates);
  EXPECT_EQ(result.outputs[0], exact_sum(updates));
}

TEST(Cluster, TensorSmallerThanPool) {
  // chunks < s: only part of the pool is used.
  Fabric cluster(small_config(4).fabric());
  auto updates = random_updates(4, 32 * 3, 6);
  auto result = cluster.reduce_i32(updates);
  EXPECT_EQ(result.outputs[0], exact_sum(updates));
}

TEST(Cluster, IntegerWraparoundMatchesSwitchAlu) {
  Fabric cluster(small_config(2).fabric());
  std::vector<std::vector<std::int32_t>> updates = {
      std::vector<std::int32_t>(64, INT32_MAX),
      std::vector<std::int32_t>(64, 1),
  };
  auto result = cluster.reduce_i32(updates);
  for (auto v : result.outputs[0]) EXPECT_EQ(v, INT32_MIN);
}

TEST(Cluster, ConsecutiveReductionsWithoutSwitchReset) {
  // The pool version bits must stay consistent across back-to-back
  // reductions (the shadow-copy state persists in the switch).
  Fabric cluster(small_config(4).fabric());
  for (int round = 0; round < 5; ++round) {
    auto updates = random_updates(4, 2048 + round * 32, 10 + static_cast<std::uint64_t>(round));
    auto result = cluster.reduce_i32(updates);
    ASSERT_EQ(result.outputs[0], exact_sum(updates)) << "round " << round;
  }
}

TEST(Cluster, SwitchCountersAreConsistent) {
  Fabric cluster(small_config(4).fabric());
  auto updates = random_updates(4, 4096, 7);
  cluster.reduce_i32(updates);
  const auto& c = cluster.root().counters();
  const std::uint64_t chunks = 4096 / 32;
  EXPECT_EQ(c.updates_received, 4 * chunks);
  EXPECT_EQ(c.completions, chunks);
  EXPECT_EQ(c.results_multicast, chunks);
  EXPECT_EQ(c.duplicate_updates, 0u);
  EXPECT_EQ(c.unicast_replies, 0u);
}

TEST(Cluster, WorkerCountersAreConsistent) {
  Fabric cluster(small_config(4).fabric());
  auto updates = random_updates(4, 4096, 8);
  cluster.reduce_i32(updates);
  const auto& c = cluster.worker(0).counters();
  EXPECT_EQ(c.updates_sent, 4096u / 32u);
  EXPECT_EQ(c.results_received, 4096u / 32u);
  EXPECT_EQ(c.retransmissions, 0u);
}

TEST(Cluster, RegisterUsageIsSmall) {
  // §5.5: pool_size 128 at 10 Gbps occupies ~32 KB of value registers (paper
  // counts the 32-bit slots; our 64-bit words hold both versions).
  ClusterConfig cfg;
  cfg.n_workers = 8;
  cfg.pool_size = 128;
  Fabric cluster(cfg.fabric());
  const std::size_t bytes = cluster.root().register_bytes();
  // 32 value arrays * 128 slots * 8B = 32 KiB + seen/count (2 KiB).
  EXPECT_EQ(bytes, 32u * 128u * 8u + 2u * 128u * 8u);
  EXPECT_LT(bytes, 10u * kMiB / 10u); // well under 10% of ~10 MB dataplane SRAM
}

TEST(Cluster, PhaseLagInvariantAcrossSlots) {
  Fabric cluster(small_config(4).fabric());
  auto updates = random_updates(4, 16 * 32 * 7, 9); // 7 full phases
  cluster.reduce_i32(updates);
  for (int w = 0; w < 4; ++w)
    for (std::uint32_t s = 0; s < 16; ++s)
      EXPECT_EQ(cluster.worker(w).slot_phase(s), 7u);
}

// Every update a worker sends re-arms its slot's RTO timer. Re-arming moves
// the timer in place, so the queue holds at most one timer key per slot
// rather than one cancelled key per update sent, and stays small however
// long the reduction runs.
TEST(Cluster, RtoTimersDoNotBloatTheEventHeap) {
  for (const bool timing : {true, false}) {
    ClusterConfig cfg = small_config(4);
    cfg.timing_only = timing;
    Fabric cluster(cfg.fabric());
    sim::Simulation& sim = cluster.simulation();
    std::size_t peak = 0;
    std::function<void()> sample = [&] {
      peak = std::max(peak, sim.pending_events());
      if (sim.live_pending_events() > 0) sim.schedule_daemon_timer(usec(1), sample);
    };
    sim.schedule_daemon_timer(usec(1), sample);
    constexpr std::uint64_t kElems = 1 << 16;
    if (timing) {
      cluster.reduce_timing(kElems);
    } else {
      auto updates = random_updates(4, kElems, 14);
      ASSERT_EQ(cluster.reduce_i32(updates).outputs[0], exact_sum(updates));
    }
    EXPECT_GT(peak, 0u);
    EXPECT_LE(peak, 4u * 4u * 16u) << (timing ? "timing" : "data") << " mode";
  }
}

// Each link direction and each NIC lane is a FIFO pipe whose events ride one
// ordered stream, and timers sit in a heap of their own, so the event heap
// holds at most one key per stream however many packets are in flight. Both
// transports run on the same NIC lanes.
TEST(Cluster, StreamsBoundTheKeyedEventHeap) {
  for (const auto transport : {net::TransportKind::kUdp, net::TransportKind::kRdmaUc}) {
    for (const bool timing : {true, false}) {
      ClusterConfig cfg = small_config(4);
      cfg.timing_only = timing;
      cfg.transport = transport;
      Fabric cluster(cfg.fabric());
      sim::Simulation& sim = cluster.simulation();
      std::size_t peak_keyed = 0;
      std::function<void()> sample = [&] {
        peak_keyed = std::max(peak_keyed, sim.keyed_events());
        if (sim.live_pending_events() > 0) sim.schedule_daemon_timer(usec(1), sample);
      };
      sim.schedule_daemon_timer(usec(1), sample);
      constexpr std::uint64_t kElems = 1 << 16;
      if (timing) {
        cluster.reduce_timing(kElems);
      } else {
        auto updates = random_updates(4, kElems, 14);
        ASSERT_EQ(cluster.reduce_i32(updates).outputs[0], exact_sum(updates));
      }
      const std::string mode = std::string(timing ? "timing" : "data") + " mode over " +
                               (transport == net::TransportKind::kUdp ? "UDP" : "RDMA UC");
      // 4 links x 2 directions + 4 workers x 4 NIC lanes.
      EXPECT_EQ(sim.stream_count(), 24u) << mode;
      EXPECT_GT(peak_keyed, 0u) << mode;
      EXPECT_LE(peak_keyed, sim.stream_count()) << mode;
    }
  }
}

// ---- loss recovery ---------------------------------------------------------

class LossSweep : public ::testing::TestWithParam<double> {};

TEST_P(LossSweep, AggregationIsExactUnderUniformLoss) {
  ClusterConfig cfg = small_config(4);
  cfg.loss_prob = GetParam();
  cfg.retransmit_timeout = msec(1);
  Fabric cluster(cfg.fabric());
  auto updates = random_updates(4, 8192, 11);
  auto result = cluster.reduce_i32(updates);
  const auto expect = exact_sum(updates);
  for (int w = 0; w < 4; ++w)
    ASSERT_EQ(result.outputs[static_cast<std::size_t>(w)], expect) << "loss " << GetParam();
  if (GetParam() >= 0.01) {
    std::uint64_t retx = 0;
    for (int w = 0; w < 4; ++w) retx += cluster.worker(w).counters().retransmissions;
    EXPECT_GT(retx, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(LossRates, LossSweep,
                         ::testing::Values(0.0001, 0.001, 0.01, 0.05, 0.10));

TEST(ClusterLoss, ConsecutiveLossyReductionsStayCorrect) {
  ClusterConfig cfg = small_config(4);
  cfg.loss_prob = 0.02;
  Fabric cluster(cfg.fabric());
  for (int round = 0; round < 3; ++round) {
    auto updates = random_updates(4, 4096, 20 + static_cast<std::uint64_t>(round));
    auto result = cluster.reduce_i32(updates);
    ASSERT_EQ(result.outputs[0], exact_sum(updates)) << "round " << round;
  }
}

TEST(ClusterLoss, UpstreamOnlyLossTriggersSeenBitmapPath) {
  // Drop every 10th update packet on the way up; the seen bitmap must absorb
  // retransmitted duplicates of packets that DID arrive.
  ClusterConfig cfg = small_config(4);
  Fabric cluster(cfg.fabric());
  int counter = 0;
  for (int i = 0; i < 4; ++i) {
    cluster.link(i).set_drop_filter([&counter](const net::Node& sender, const net::Packet& p) {
      return p.kind == net::PacketKind::SmlUpdate && sender.id() < 100 && (++counter % 10) == 0;
    });
  }
  auto updates = random_updates(4, 8192, 12);
  auto result = cluster.reduce_i32(updates);
  EXPECT_EQ(result.outputs[0], exact_sum(updates));
  EXPECT_GT(cluster.root().counters().duplicate_updates, 0u);
}

TEST(ClusterLoss, DownstreamOnlyLossTriggersShadowCopyReplies) {
  // Drop result packets toward worker 0 only: the switch must serve
  // retransmissions from the shadow copy via unicast replies.
  ClusterConfig cfg = small_config(4);
  Fabric cluster(cfg.fabric());
  int counter = 0;
  cluster.link(0).set_drop_filter([&counter](const net::Node& sender, const net::Packet& p) {
    return p.kind == net::PacketKind::SmlResult && sender.id() >= 100 && (++counter % 5) == 0;
  });
  auto updates = random_updates(4, 8192, 13);
  auto result = cluster.reduce_i32(updates);
  EXPECT_EQ(result.outputs[0], exact_sum(updates));
  EXPECT_GT(cluster.root().counters().unicast_replies, 0u);
}

TEST(ClusterCorruption, ChecksumDetectsWireCorruptionAndRecovers) {
  // §3.4: corrupted packets are discarded by checksum; the retransmission
  // machinery then repairs them exactly like losses.
  ClusterConfig cfg = small_config(4);
  Fabric cluster(cfg.fabric());
  int corrupted = 0;
  for (int i = 0; i < 4; ++i)
    cluster.link(i).set_corrupt_filter([&corrupted](const net::Node&, const net::Packet& p) {
      if (p.kind == net::PacketKind::SmlUpdate && (corrupted < 20) && p.off % 640 == 0) {
        ++corrupted;
        return true;
      }
      return false;
    });
  auto updates = random_updates(4, 8192, 50);
  auto result = cluster.reduce_i32(updates);
  EXPECT_EQ(result.outputs[0], exact_sum(updates));
  EXPECT_GT(corrupted, 0);
  EXPECT_EQ(cluster.root().counters().checksum_drops,
            static_cast<std::uint64_t>(corrupted));
}

TEST(ClusterCorruption, RandomBitErrorsEverywhereStillExact) {
  ClusterConfig cfg = small_config(4);
  Fabric cluster(cfg.fabric());
  for (int i = 0; i < 4; ++i) cluster.link(i).set_corrupt_prob(0.01);
  auto updates = random_updates(4, 8192, 51);
  auto result = cluster.reduce_i32(updates);
  EXPECT_EQ(result.outputs[0], exact_sum(updates));
  std::uint64_t drops = cluster.root().counters().checksum_drops;
  for (int w = 0; w < 4; ++w) drops += cluster.worker(w).counters().checksum_drops;
  EXPECT_GT(drops, 0u);
}

// ---- hierarchical (§6) -----------------------------------------------------

TEST(Hierarchy, TwoRackAggregationIsExact) {
  FabricConfig cfg;
  cfg.topology = HierarchySpec{.racks = 2, .workers_per_rack = 4};
  cfg.pool_size = 16;
  Fabric h(cfg);
  auto updates = random_updates(8, 4096, 14);
  auto result = h.reduce_i32(updates);
  const auto expect = exact_sum(updates);
  for (int w = 0; w < 8; ++w) EXPECT_EQ(result.outputs[static_cast<std::size_t>(w)], expect);
}

TEST(Hierarchy, ThreeRacksUnevenWorkers) {
  FabricConfig cfg;
  cfg.topology = HierarchySpec{.racks = 3, .workers_per_rack = 2};
  cfg.pool_size = 8;
  Fabric h(cfg);
  auto updates = random_updates(6, 2048, 15);
  auto result = h.reduce_i32(updates);
  EXPECT_EQ(result.outputs[5], exact_sum(updates));
}

TEST(Hierarchy, SurvivesUniformLoss) {
  FabricConfig cfg;
  cfg.topology = HierarchySpec{.racks = 2, .workers_per_rack = 3};
  cfg.pool_size = 8;
  cfg.loss_prob = 0.02;
  Fabric h(cfg);
  auto updates = random_updates(6, 4096, 16);
  auto result = h.reduce_i32(updates);
  EXPECT_EQ(result.outputs[0], exact_sum(updates));
}

TEST(Hierarchy, LeafForwardsOnePartialPerSlotCompletion) {
  FabricConfig cfg;
  cfg.topology = HierarchySpec{.racks = 2, .workers_per_rack = 4};
  cfg.pool_size = 16;
  Fabric h(cfg);
  auto updates = random_updates(8, 4096, 17);
  h.reduce_i32(updates);
  const std::uint64_t chunks = 4096 / 32;
  EXPECT_EQ(h.switch_at(1).counters().upstream_partials, chunks);
  EXPECT_EQ(h.root().counters().completions, chunks);
}

// ---- float public API ------------------------------------------------------

TEST(AllReduce, MatchesReferenceWithinTheorem1Bound) {
  Fabric cluster(small_config(4).fabric());
  sim::Rng rng = sim::Rng::stream(30, "floats");
  std::vector<std::vector<float>> inputs(4, std::vector<float>(4096));
  for (auto& t : inputs)
    for (auto& v : t) v = static_cast<float>(rng.normal(0.0, 1.0));

  auto result = all_reduce(cluster, inputs);
  const auto ref = reference_sum(inputs, false);
  const double bound = switchml::quant::aggregation_error_bound(4, result.scaling_factor) + 1e-4;
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_NEAR(result.outputs[0][i], ref[i], bound);
}

TEST(AllReduce, AveragingDividesByN) {
  Fabric cluster(small_config(4).fabric());
  std::vector<std::vector<float>> inputs(4, std::vector<float>(256, 2.0f));
  AllReduceOptions opt;
  opt.average = true;
  auto result = all_reduce(cluster, inputs, opt);
  for (float v : result.outputs[0]) EXPECT_NEAR(v, 2.0f, 1e-4f);
}

TEST(AllReduce, ExplicitScalingFactorIsRespected) {
  Fabric cluster(small_config(2).fabric());
  std::vector<std::vector<float>> inputs = {{1.56f}, {4.23f}};
  AllReduceOptions opt;
  opt.scaling_factor = 100.0;
  auto result = all_reduce(cluster, inputs, opt);
  EXPECT_DOUBLE_EQ(result.scaling_factor, 100.0);
  EXPECT_NEAR(result.outputs[0][0], 5.79f, 1e-6f);
}

TEST(AllReduce, Float16WireFormat) {
  ClusterConfig cfg = small_config(4);
  cfg.wire_elem_bytes = 2; // §3.7 16-bit wire format, switch-side conversion
  Fabric cluster(cfg.fabric());
  sim::Rng rng = sim::Rng::stream(31, "fp16s");
  std::vector<std::vector<float>> inputs(4, std::vector<float>(2048));
  for (auto& t : inputs)
    for (auto& v : t) v = static_cast<float>(rng.normal(0.0, 1.0));
  AllReduceOptions opt;
  opt.wire = WireFormat::Float16;
  auto result = all_reduce(cluster, inputs, opt);
  const auto ref = reference_sum(inputs, false);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    // fp16 carries ~3 decimal digits; allow commensurate error.
    EXPECT_NEAR(result.outputs[0][i], ref[i], std::abs(ref[i]) * 0.01 + 0.05);
  }
}

TEST(AllReduce, Float16RequiresMatchingClusterWireFormat) {
  Fabric cluster(small_config(2).fabric()); // default 4-byte wire
  std::vector<std::vector<float>> inputs(2, std::vector<float>(64, 1.0f));
  AllReduceOptions opt;
  opt.wire = WireFormat::Float16;
  EXPECT_THROW(all_reduce(cluster, inputs, opt), std::invalid_argument);
}

TEST(AllReduce, Int8StochasticWireFormat) {
  ClusterConfig cfg = small_config(4);
  cfg.wire_elem_bytes = 1; // 8-bit extension wire format
  Fabric cluster(cfg.fabric());
  sim::Rng rng = sim::Rng::stream(33, "i8s");
  std::vector<std::vector<float>> inputs(4, std::vector<float>(2048));
  for (auto& t : inputs)
    for (auto& v : t) v = static_cast<float>(rng.normal(0.0, 1.0));
  AllReduceOptions opt;
  opt.wire = WireFormat::Int8Stochastic;
  auto result = all_reduce(cluster, inputs, opt);
  const auto ref = reference_sum(inputs, false);
  // Worst case per worker: 1/f quantization error; stochastic but bounded.
  const double bound = 4.0 / result.scaling_factor + 1e-4;
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_NEAR(result.outputs[0][i], ref[i], bound);
}

TEST(AllReduce, TraceRecordsProtocolTimeline) {
  if (!trace::compiled_in(trace::kCatLink)) GTEST_SKIP() << "link tracing compiled out";
  ClusterConfig cfg = small_config(2);
  Fabric cluster(cfg.fabric());
  trace::TraceSink sink(1u << 12, trace::kCatLink);
  trace::TraceSink::Scope scope(&sink);
  std::vector<std::vector<std::int32_t>> updates(2, std::vector<std::int32_t>(64, 1));
  cluster.reduce_i32(updates);
  // 2 chunks x (2 updates + 2 results), each with an enqueue and a deliver
  // record. Link events carry their sender: workers send the updates, the
  // switch sends the results.
  const net::NodeId sw = cluster.root().id();
  std::size_t enqueue = 0, deliver = 0, updates_seen = 0, results_seen = 0;
  for (const auto& e : sink.events()) {
    const std::string_view name = e.name;
    if (name == "enqueue") ++enqueue;
    if (name == "deliver") ++deliver;
    ++(e.node == sw ? results_seen : updates_seen);
  }
  EXPECT_EQ(enqueue, deliver);
  EXPECT_EQ(updates_seen, 2u * 2u * 2u);  // (enqueue + deliver) x 2 workers x 2 chunks
  EXPECT_EQ(results_seen, 2u * 2u * 2u);
  // Events are time ordered.
  for (std::size_t i = 1; i < sink.events().size(); ++i)
    EXPECT_LE(sink.events()[i - 1].ts, sink.events()[i].ts);
}

TEST(AllReduce, ResultsIdenticalAcrossWorkers) {
  Fabric cluster(small_config(4).fabric());
  sim::Rng rng = sim::Rng::stream(32, "same");
  std::vector<std::vector<float>> inputs(4, std::vector<float>(1024));
  for (auto& t : inputs)
    for (auto& v : t) v = static_cast<float>(rng.normal(0.0, 3.0));
  auto result = all_reduce(cluster, inputs);
  for (int w = 1; w < 4; ++w) EXPECT_EQ(result.outputs[static_cast<std::size_t>(w)], result.outputs[0]);
}

// ---- stream manager ---------------------------------------------------------

TEST(StreamManager, MultiTensorBatchCompletesInOrder) {
  Fabric cluster(small_config(4).fabric());
  const std::size_t sizes[] = {100, 1000, 37, 4096};
  const int n_tensors = 4;

  std::vector<std::vector<std::vector<float>>> in(4);   // [worker][tensor]
  std::vector<std::vector<std::vector<float>>> out(4);  // [worker][tensor]
  sim::Rng rng = sim::Rng::stream(40, "st");
  for (int w = 0; w < 4; ++w) {
    in[static_cast<std::size_t>(w)].resize(n_tensors);
    out[static_cast<std::size_t>(w)].resize(n_tensors);
    for (int t = 0; t < n_tensors; ++t) {
      in[static_cast<std::size_t>(w)][static_cast<std::size_t>(t)].resize(sizes[t]);
      out[static_cast<std::size_t>(w)][static_cast<std::size_t>(t)].resize(sizes[t]);
      for (auto& v : in[static_cast<std::size_t>(w)][static_cast<std::size_t>(t)])
        v = static_cast<float>(rng.normal(0.0, 1.0));
    }
  }

  std::vector<std::unique_ptr<StreamManager>> mgrs;
  std::vector<std::vector<int>> completion_order(4);
  for (int w = 0; w < 4; ++w) {
    auto m = std::make_unique<StreamManager>(cluster.worker(w));
    for (int t = 0; t < n_tensors; ++t) {
      m->submit(in[static_cast<std::size_t>(w)][static_cast<std::size_t>(t)],
                out[static_cast<std::size_t>(w)][static_cast<std::size_t>(t)], 1e6,
                [&completion_order, w, t] { completion_order[static_cast<std::size_t>(w)].push_back(t); });
    }
    mgrs.push_back(std::move(m));
  }
  for (auto& m : mgrs) m->flush();
  cluster.simulation().run();

  for (int w = 0; w < 4; ++w) {
    ASSERT_EQ(completion_order[static_cast<std::size_t>(w)].size(), 4u);
    EXPECT_TRUE(mgrs[static_cast<std::size_t>(w)]->idle());
    for (int t = 0; t < n_tensors; ++t) {
      // Per-tensor reference sum.
      std::vector<std::vector<float>> contrib;
      for (int v = 0; v < 4; ++v)
        contrib.push_back(in[static_cast<std::size_t>(v)][static_cast<std::size_t>(t)]);
      const auto ref = reference_sum(contrib, false);
      for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_NEAR(out[static_cast<std::size_t>(w)][static_cast<std::size_t>(t)][i], ref[i],
                    4.0 / 1e6 + 1e-4)
            << "worker " << w << " tensor " << t;
    }
  }
}

TEST(StreamManager, SubmitDuringRunGoesToNextBatch) {
  // All workers must submit the same tensor sequence (Horovod ordering);
  // here both submit and flush their second tensor from inside the first
  // tensor's completion callback, closing a batch while the first runs.
  Fabric cluster(small_config(2).fabric());
  std::vector<float> a0(512, 1.0f), a1(512, 2.0f), b0(512, 3.0f), b1(512, 4.0f);
  std::vector<float> oa0(512), oa1(512), ob0(512), ob1(512);

  StreamManager m0(cluster.worker(0));
  StreamManager m1(cluster.worker(1));
  bool second_done = false;

  m0.submit(a0, oa0, 1e6, [&] {
    m0.submit(a1, oa1, 1e6, [&] { second_done = true; });
    m0.flush();
  });
  m1.submit(b0, ob0, 1e6, [&] {
    m1.submit(b1, ob1, 1e6, nullptr);
    m1.flush();
  });
  m0.flush();
  m1.flush();
  cluster.simulation().run();

  EXPECT_TRUE(second_done);
  for (float v : oa0) ASSERT_NEAR(v, 4.0f, 1e-4f);
  for (float v : oa1) ASSERT_NEAR(v, 6.0f, 1e-4f);
  for (float v : ob1) ASSERT_NEAR(v, 6.0f, 1e-4f);
}

} // namespace
} // namespace switchml::core
