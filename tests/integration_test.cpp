// Cross-module integration and property tests: protocol correctness swept
// across cluster shapes, determinism, cross-strategy agreement on the same
// tensors, and straggler behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "collectives/baseline_cluster.hpp"
#include "collectives/ring.hpp"
#include "core/allreduce.hpp"
#include "core/cluster.hpp"
#include "quant/fixed_point.hpp"
#include "sim/rng.hpp"

namespace switchml {
namespace {

std::vector<std::vector<std::int32_t>> random_updates(int n, std::size_t d, std::uint64_t seed) {
  sim::Rng rng = sim::Rng::stream(seed, "integ");
  std::vector<std::vector<std::int32_t>> u(static_cast<std::size_t>(n),
                                           std::vector<std::int32_t>(d));
  for (auto& v : u)
    for (auto& e : v) e = static_cast<std::int32_t>(rng.uniform_int(-1'000'000, 1'000'000));
  return u;
}

std::vector<std::int32_t> exact_sum(const std::vector<std::vector<std::int32_t>>& u) {
  std::vector<std::int32_t> s(u.front().size(), 0);
  for (const auto& v : u)
    for (std::size_t i = 0; i < v.size(); ++i) s[i] += v[i];
  return s;
}

// ---- property sweep: correctness over (n_workers, pool_size) --------------

class ShapeSweep : public ::testing::TestWithParam<std::tuple<int, std::uint32_t>> {};

TEST_P(ShapeSweep, AggregationExactForAllShapes) {
  const auto [n, pool] = GetParam();
  core::ClusterConfig cfg;
  cfg.n_workers = n;
  cfg.pool_size = pool;
  core::Fabric cluster(cfg.fabric());
  // A tensor size that exercises partial tails for every shape.
  auto updates = random_updates(n, 32 * pool * 2 + 13, 100 + static_cast<std::uint64_t>(n));
  auto result = cluster.reduce_i32(updates);
  const auto expect = exact_sum(updates);
  for (int w = 0; w < n; ++w)
    ASSERT_EQ(result.outputs[static_cast<std::size_t>(w)], expect)
        << "n=" << n << " pool=" << pool;
}

INSTANTIATE_TEST_SUITE_P(WorkersAndPools, ShapeSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5, 8, 16, 32),
                                            ::testing::Values(1u, 2u, 7u, 64u)));

// ---- property sweep: correctness under loss x pool interplay ---------------

class LossPoolSweep : public ::testing::TestWithParam<std::tuple<double, std::uint32_t>> {};

TEST_P(LossPoolSweep, LossRecoveryIndependentOfPoolSize) {
  const auto [loss, pool] = GetParam();
  core::ClusterConfig cfg;
  cfg.n_workers = 4;
  cfg.pool_size = pool;
  cfg.loss_prob = loss;
  core::Fabric cluster(cfg.fabric());
  auto updates = random_updates(4, 4096, 200);
  auto result = cluster.reduce_i32(updates);
  ASSERT_EQ(result.outputs[0], exact_sum(updates)) << "loss=" << loss << " pool=" << pool;
}

INSTANTIATE_TEST_SUITE_P(LossAndPool, LossPoolSweep,
                         ::testing::Combine(::testing::Values(0.005, 0.05),
                                            ::testing::Values(1u, 4u, 32u)));

// ---- determinism ------------------------------------------------------------

TEST(Determinism, IdenticalSeedsGiveIdenticalRuns) {
  auto run = [] {
    core::ClusterConfig cfg;
    cfg.n_workers = 4;
    cfg.pool_size = 16;
    cfg.loss_prob = 0.01;
    cfg.seed = 777;
    core::Fabric cluster(cfg.fabric());
    auto updates = random_updates(4, 8192, 300);
    auto r = cluster.reduce_i32(updates);
    return std::make_pair(r.tat, cluster.worker(0).counters().retransmissions);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);   // bit-identical timing
  EXPECT_EQ(a.second, b.second); // and identical loss pattern
}

TEST(Determinism, DifferentSeedsChangeLossPattern) {
  auto retx = [](std::uint64_t seed) {
    core::ClusterConfig cfg;
    cfg.n_workers = 4;
    cfg.pool_size = 16;
    cfg.loss_prob = 0.02;
    cfg.seed = seed;
    core::Fabric cluster(cfg.fabric());
    auto updates = random_updates(4, 8192, 301);
    cluster.reduce_i32(updates);
    std::uint64_t total = 0;
    for (int w = 0; w < 4; ++w) total += cluster.worker(w).counters().retransmissions;
    return total;
  };
  EXPECT_NE(retx(1), retx(2)); // overwhelmingly likely with ~2k packets at 2%
}

// ---- cross-strategy agreement ----------------------------------------------

TEST(CrossStrategy, SwitchMlAndRingAgreeOnTheSameTensors) {
  const int n = 4;
  const std::size_t d = 4096;
  sim::Rng rng = sim::Rng::stream(42, "xstrat");
  std::vector<std::vector<float>> inputs(n, std::vector<float>(d));
  for (auto& t : inputs)
    for (auto& v : t) v = static_cast<float>(rng.normal(0.0, 1.0));

  // SwitchML (quantized, through the switch).
  core::ClusterConfig ccfg;
  ccfg.n_workers = n;
  ccfg.pool_size = 16;
  core::Fabric cluster(ccfg.fabric());
  const auto sml = core::all_reduce(cluster, inputs);

  // Ring all-reduce (exact floats, through the TCP-like fabric).
  collectives::BaselineClusterConfig bcfg;
  bcfg.n_hosts = n;
  bcfg.nic = core::gloo_tcp(gbps(10)).nic;
  collectives::BaselineCluster baseline(bcfg);
  auto ring_buffers = inputs;
  collectives::RingAllReduce ring(baseline, core::gloo_tcp(gbps(10)).transport);
  ring.run(ring_buffers);

  const double bound = quant::aggregation_error_bound(n, sml.scaling_factor) + 1e-3;
  for (std::size_t i = 0; i < d; ++i)
    ASSERT_NEAR(sml.outputs[0][i], ring_buffers[0][i], bound) << i;
}

// ---- stragglers -------------------------------------------------------------

TEST(Straggler, SelfClockingSlowsEveryoneToTheSlowestWorker) {
  // §6: degrade one worker's link; all workers' TATs converge to it.
  core::ClusterConfig cfg = core::ClusterConfig::for_rate(gbps(10), 4);
  cfg.timing_only = true;
  core::Fabric cluster(cfg.fabric());
  cluster.link(2).set_rate(gbps(10) / 4);
  auto tats = cluster.reduce_timing(256 * 1024);
  const double slow = to_msec(tats[2]);
  for (int w = 0; w < 4; ++w) {
    EXPECT_GT(to_msec(tats[static_cast<std::size_t>(w)]), slow * 0.9) << w;
    EXPECT_LT(to_msec(tats[static_cast<std::size_t>(w)]), slow * 1.1) << w;
  }
  // ... and the whole job runs ~4x slower than a clean one.
  core::ClusterConfig clean_cfg = core::ClusterConfig::for_rate(gbps(10), 4);
  clean_cfg.timing_only = true;
  core::Fabric clean(clean_cfg.fabric());
  const double fast = to_msec(clean.reduce_timing(256 * 1024)[0]);
  EXPECT_NEAR(slow / fast, 4.0, 0.5);
}

// ---- hierarchy loss injection -----------------------------------------------

TEST(HierarchyLoss, HeavyUniformLossIncludingUplinksIsRepaired) {
  // §6: losses on the leaf->root uplinks are repaired because a worker
  // retransmission that hits a completed leaf slot regenerates the partial
  // aggregate upstream. Uniform loss on EVERY link (uplinks included)
  // exercises exactly that path.
  core::FabricConfig cfg;
  cfg.topology = core::HierarchySpec{.racks = 2, .workers_per_rack = 2};
  cfg.pool_size = 4;
  cfg.loss_prob = 0.03;
  core::Fabric h(cfg);
  auto updates = random_updates(4, 2048, 400);
  auto result = h.reduce_i32(updates);
  EXPECT_EQ(result.outputs[0], exact_sum(updates));
  // The uplink repairs show up as extra partials beyond one per chunk.
  const std::uint64_t chunks = 2048 / 32;
  EXPECT_GT(h.switch_at(1).counters().upstream_partials +
                h.switch_at(2).counters().upstream_partials,
            2 * chunks);
}

} // namespace
} // namespace switchml
