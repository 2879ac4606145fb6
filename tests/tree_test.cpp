// Multi-level hierarchical composition (§6, H > 2): correctness, loss
// recovery through every tier, and the per-level bandwidth reduction.
#include <gtest/gtest.h>

#include "core/fabric.hpp"
#include "sim/rng.hpp"

namespace switchml::core {
namespace {

std::vector<std::vector<std::int32_t>> updates_for(int n, std::size_t d, std::uint64_t seed) {
  sim::Rng rng = sim::Rng::stream(seed, "tree");
  std::vector<std::vector<std::int32_t>> u(static_cast<std::size_t>(n),
                                           std::vector<std::int32_t>(d));
  for (auto& v : u)
    for (auto& e : v) e = static_cast<std::int32_t>(rng.uniform_int(-5000, 5000));
  return u;
}

std::vector<std::int32_t> sum_of(const std::vector<std::vector<std::int32_t>>& u) {
  std::vector<std::int32_t> s(u.front().size(), 0);
  for (const auto& v : u)
    for (std::size_t i = 0; i < v.size(); ++i) s[i] += v[i];
  return s;
}

TEST(Tree, ThreeLevelAggregationIsExact) {
  // root -> 2 internal switches -> 2 racks each -> 3 workers per rack.
  FabricConfig cfg;
  cfg.topology = TreeSpec{.levels = 3, .branching = 2, .workers_per_rack = 3};
  cfg.pool_size = 64;
  Fabric tree(cfg);
  EXPECT_EQ(tree.n_workers(), 2 * 2 * 3);
  EXPECT_EQ(tree.n_switches(), 1u + 2u + 4u);

  auto updates = updates_for(tree.n_workers(), 4096, 1);
  auto r = tree.reduce_i32(updates);
  const auto expect = sum_of(updates);
  for (int w = 0; w < tree.n_workers(); ++w)
    ASSERT_EQ(r.outputs[static_cast<std::size_t>(w)], expect) << w;
}

TEST(Tree, FourLevelAggregationIsExact) {
  FabricConfig cfg;
  cfg.topology = TreeSpec{.levels = 4, .branching = 2, .workers_per_rack = 2};
  cfg.pool_size = 8;
  Fabric tree(cfg);
  EXPECT_EQ(tree.n_workers(), 2 * 2 * 2 * 2); // 2^3 racks x 2 workers
  auto updates = updates_for(tree.n_workers(), 1024, 2);
  auto r = tree.reduce_i32(updates);
  EXPECT_EQ(r.outputs[5], sum_of(updates));
}

TEST(Tree, TwoLevelMatchesHierarchySpec) {
  FabricConfig cfg;
  cfg.topology = TreeSpec{.levels = 2, .branching = 3, .workers_per_rack = 2}; // 3 racks
  cfg.pool_size = 64;
  Fabric tree(cfg);
  EXPECT_EQ(tree.n_workers(), 6);
  auto updates = updates_for(6, 2048, 3);
  auto r = tree.reduce_i32(updates);
  EXPECT_EQ(r.outputs[0], sum_of(updates));
}

TEST(Tree, SurvivesLossAtEveryTier) {
  FabricConfig cfg;
  cfg.topology = TreeSpec{.levels = 3, .branching = 2, .workers_per_rack = 2};
  cfg.pool_size = 8;
  cfg.loss_prob = 0.02; // every link, including both switch tiers
  Fabric tree(cfg);
  auto updates = updates_for(tree.n_workers(), 4096, 4);
  auto r = tree.reduce_i32(updates);
  EXPECT_EQ(r.outputs[0], sum_of(updates));
}

TEST(Tree, EveryTierReducesBandwidth) {
  FabricConfig cfg;
  cfg.topology = TreeSpec{.levels = 3, .branching = 2, .workers_per_rack = 4};
  cfg.pool_size = 64;
  cfg.timing_only = true;
  Fabric tree(cfg);
  const std::uint64_t elems = 32 * 512;
  tree.reduce_timing(elems);
  const std::uint64_t chunks = elems / 32;
  // Root (switch 0) completes every chunk once; each internal/bottom switch
  // forwards exactly one partial per chunk upstream.
  EXPECT_EQ(tree.root().counters().completions, chunks);
  for (std::size_t s = 1; s < tree.n_switches(); ++s)
    EXPECT_EQ(tree.switch_at(s).counters().upstream_partials, chunks) << s;
}

TEST(Tree, RejectsDegenerateShapes) {
  FabricConfig cfg;
  cfg.topology = TreeSpec{.levels = 1};
  EXPECT_THROW(Fabric{cfg}, std::invalid_argument);
}

} // namespace
} // namespace switchml::core
