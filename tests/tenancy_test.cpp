// §6 multi-job (tenancy) tests: per-job pool isolation, admission control
// against the SRAM budget, eviction, and concurrent-job independence.
#include <gtest/gtest.h>

#include <utility>

#include "core/fabric.hpp"

namespace switchml::core {
namespace {

TEST(Tenancy, JobsAggregateIndependently) {
  FabricConfig cfg;
  cfg.topology = MultiJobSpec{.n_jobs = 3, .workers_per_job = 2};
  cfg.pool_size = 8;
  Fabric cluster(cfg);

  for (int j = 0; j < 3; ++j) {
    std::vector<std::vector<std::int32_t>> updates(
        2, std::vector<std::int32_t>(1024, (j + 1) * 10));
    auto r = cluster.reduce_i32_job(j, updates);
    for (auto v : r.outputs[0]) ASSERT_EQ(v, (j + 1) * 20) << "job " << j;
  }
}

TEST(Tenancy, ConcurrentJobsDoNotInterfere) {
  // Per-job TAT with 4 concurrent jobs matches a solo run: jobs have
  // disjoint workers/links and their own aggregator pools.
  const std::uint64_t elems = 64 * 1024;
  auto median_tat = [&](int jobs) {
    FabricConfig cfg;
    cfg.topology = MultiJobSpec{.n_jobs = jobs, .workers_per_job = 4};
    cfg.timing_only = true;
    Fabric cluster(cfg);
    auto tats = cluster.reduce_timing_all(elems);
    Summary s;
    for (const auto& jt : tats)
      for (Time t : jt) s.add(to_msec(t));
    return s.median();
  };
  const double solo = median_tat(1);
  const double four = median_tat(4);
  EXPECT_NEAR(four, solo, solo * 0.02);
}

TEST(Tenancy, SizeOnlyReductionIgnoresValueRegisters) {
  // A size-only reduction carries no values, so a fabric whose switch has
  // value registers runs it exactly like a timing_only one; only the SRAM
  // charged per job differs: (2 + 32) x 128 x 8 B against 2 x 128 x 8 B.
  const std::uint64_t elems = 16 * 1024;
  auto run = [&](bool timing_only) {
    FabricConfig cfg;
    cfg.topology = MultiJobSpec{.n_jobs = 2, .workers_per_job = 4};
    cfg.timing_only = timing_only;
    Fabric cluster(cfg);
    auto tats = cluster.reduce_timing_all(elems);
    return std::make_pair(tats, cluster.root().register_bytes());
  };
  const auto [with_values, with_bytes] = run(false);
  const auto [without_values, without_bytes] = run(true);
  EXPECT_EQ(with_values, without_values);
  EXPECT_EQ(with_bytes, 2u * 34'816u);
  EXPECT_EQ(without_bytes, 2u * 2'048u);
}

TEST(Tenancy, AdmissionRejectsDuplicateJobIds) {
  sim::Simulation sim;
  swprog::AggregationConfig cfg;
  swprog::AggregationSwitch sw(sim, 1, "sw", cfg);
  swprog::JobParams p;
  EXPECT_EQ(sw.jobs_admitted(), 0u); // job 0 is admitted like any other job
  EXPECT_TRUE(sw.admit_job(0, p));
  EXPECT_FALSE(sw.admit_job(0, p));
  EXPECT_TRUE(sw.admit_job(1, p));
  EXPECT_FALSE(sw.admit_job(1, p));
}

TEST(Tenancy, AdmissionEnforcesSramBudget) {
  sim::Simulation sim;
  swprog::AggregationConfig cfg;
  // Budget fits exactly two 128-slot jobs: (2+32)*128*8 = 34816 B each.
  cfg.sram_budget_bytes = 2 * 34816;
  swprog::AggregationSwitch sw(sim, 1, "sw", cfg);
  swprog::JobParams p;
  p.pool_size = 128;
  EXPECT_TRUE(sw.admit_job(0, p));
  EXPECT_TRUE(sw.admit_job(1, p));
  EXPECT_FALSE(sw.admit_job(2, p)); // budget exhausted
  EXPECT_EQ(sw.sram_free_bytes(), 0u);
}

TEST(Tenancy, EvictionFreesSram) {
  sim::Simulation sim;
  swprog::AggregationConfig cfg;
  cfg.sram_budget_bytes = 2 * 34816;
  swprog::AggregationSwitch sw(sim, 1, "sw", cfg);
  swprog::JobParams p;
  p.pool_size = 128;
  ASSERT_TRUE(sw.admit_job(0, p));
  ASSERT_TRUE(sw.admit_job(1, p));
  ASSERT_FALSE(sw.admit_job(2, p));
  sw.evict_job(1);
  EXPECT_FALSE(sw.has_job(1));
  EXPECT_TRUE(sw.admit_job(2, p)); // freed SRAM is reusable
}

TEST(Tenancy, UnknownJobPacketsAreDropped) {
  FabricConfig cfg;
  cfg.topology = MultiJobSpec{.n_jobs = 1, .workers_per_job = 2};
  cfg.pool_size = 8;
  Fabric cluster(cfg);
  // Evict job 0, then try to reduce: packets must be counted as unknown-job
  // drops and the reduction never completes.
  cluster.root().evict_job(0);
  std::vector<std::int32_t> u(64, 1), out(64);
  cluster.worker(0).start_reduction(u, out, nullptr);
  cluster.simulation().run_until(msec(5));
  EXPECT_GT(cluster.root().counters().unknown_job_drops, 0u);
}

TEST(Tenancy, SwitchConstructorRejectsOversizedJob0) {
  // Job 0 goes through admission like every job: a pool that needs 34 MB of
  // registers does not fit the 4 MiB budget, so the switch admits nothing
  // and a fabric built with that pool fails to construct.
  sim::Simulation sim;
  swprog::AggregationSwitch sw(sim, 1, "sw", swprog::AggregationConfig{});
  swprog::JobParams p;
  p.pool_size = 1 << 20;
  EXPECT_FALSE(sw.admit_job(0, p));
  EXPECT_EQ(sw.jobs_admitted(), 0u);
  FabricConfig cfg;
  cfg.pool_size = 1 << 20;
  EXPECT_THROW(Fabric{cfg}, std::runtime_error);
}

} // namespace
} // namespace switchml::core
