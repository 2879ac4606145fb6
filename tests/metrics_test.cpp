// MetricsRegistry: the pull-based counter registry every component registers
// into at construction, plus the fabric-level guarantees the registry relies
// on (one ambient registry per cluster, loss knobs reaching every link).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/json.hpp"
#include "common/metrics.hpp"
#include "core/cluster.hpp"

namespace switchml {
namespace {

TEST(MetricsRegistry, CountersAreSampledLazily) {
  MetricsRegistry reg;
  std::uint64_t x = 0;
  reg.add_counter("a.count", [&] { return x; });
  EXPECT_EQ(reg.size(), 1u);

  x = 7;
  auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("a.count"), 7u);
  x = 11; // snapshot is a copy, not a view
  EXPECT_EQ(snap.counter("a.count"), 7u);
  EXPECT_EQ(reg.snapshot().counter("a.count"), 11u);
}

TEST(MetricsRegistry, SnapshotLookupAndSuffixSum) {
  MetricsRegistry reg;
  reg.add_counter("w0.retransmissions", [] { return std::uint64_t{3}; });
  reg.add_counter("w1.retransmissions", [] { return std::uint64_t{4}; });
  reg.add_counter("w1.timeouts", [] { return std::uint64_t{9}; });

  auto snap = reg.snapshot();
  EXPECT_TRUE(snap.has_counter("w0.retransmissions"));
  EXPECT_FALSE(snap.has_counter("w2.retransmissions"));
  EXPECT_THROW((void)snap.counter("missing"), std::out_of_range);
  EXPECT_EQ(snap.sum(".retransmissions"), 7u);
  EXPECT_EQ(snap.sum(".timeouts"), 9u);
  EXPECT_EQ(snap.sum(".nothing"), 0u);
}

TEST(MetricsRegistry, JsonIsSortedAndEscaped) {
  MetricsRegistry reg;
  reg.add_counter("b.second", [] { return std::uint64_t{2}; });
  reg.add_counter("a.\"first\"", [] { return std::uint64_t{1}; });
  const std::string json = reg.snapshot().json().dump();
  // Sorted by name, quotes escaped, summaries block present even when empty.
  const auto first = json.find("a.\\\"first\\\"");
  const auto second = json.find("b.second");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
  EXPECT_NE(json.find("\"summaries\""), std::string::npos);
}

TEST(MetricsRegistry, GaugesAreSampledAndExported) {
  MetricsRegistry reg;
  std::int64_t depth = -3;
  reg.add_gauge("q.depth", [&] { return depth; });
  reg.add_counter("q.items", [] { return std::uint64_t{1}; });
  EXPECT_EQ(reg.size(), 2u); // gauges count toward size

  auto snap = reg.snapshot();
  EXPECT_TRUE(snap.has_gauge("q.depth"));
  EXPECT_FALSE(snap.has_gauge("q.items")); // counters and gauges are distinct
  EXPECT_EQ(snap.gauge("q.depth"), -3);
  EXPECT_THROW((void)snap.gauge("missing"), std::out_of_range);
  depth = 5; // snapshot is a copy
  EXPECT_EQ(snap.gauge("q.depth"), -3);
  EXPECT_EQ(reg.snapshot().gauge("q.depth"), 5);
  EXPECT_EQ(snap.json().find("gauges")->find("q.depth")->as_int(), -3);
}

TEST(MetricsRegistry, DuplicateNamesAreRejectedAcrossKinds) {
  MetricsRegistry reg;
  Summary s;
  reg.add_counter("x", [] { return std::uint64_t{0}; });
  reg.add_gauge("g", [] { return std::int64_t{0}; });
  reg.add_summary("s", &s);
  // Same-kind duplicates.
  EXPECT_THROW(reg.add_counter("x", [] { return std::uint64_t{0}; }),
               std::invalid_argument);
  EXPECT_THROW(reg.add_gauge("g", [] { return std::int64_t{0}; }), std::invalid_argument);
  EXPECT_THROW(reg.add_summary("s", &s), std::invalid_argument);
  // Cross-kind duplicates: one flat namespace.
  EXPECT_THROW(reg.add_gauge("x", [] { return std::int64_t{0}; }), std::invalid_argument);
  EXPECT_THROW(reg.add_counter("s", [] { return std::uint64_t{0}; }),
               std::invalid_argument);
  EXPECT_EQ(reg.size(), 3u); // failed registrations left no residue
}

TEST(MetricsRegistry, SummaryStatsAreExported) {
  MetricsRegistry reg;
  Summary s;
  s.add(1.0);
  s.add(3.0);
  reg.add_summary("rtt_us", &s);
  auto snap = reg.snapshot();
  ASSERT_EQ(snap.summaries.size(), 1u);
  EXPECT_EQ(snap.summaries[0].second.count, 2u);
  EXPECT_DOUBLE_EQ(snap.summaries[0].second.mean, 2.0);
  EXPECT_NE(snap.json().find("summaries")->find("rtt_us"), nullptr);
}

TEST(MetricsRegistry, SummaryStatsRoundTripBitExactly) {
  MetricsRegistry reg;
  Summary s;
  for (double x : {1.0, 2.0, 2.0}) s.add(x);
  reg.add_summary("s", &s);
  const json::Value parsed = json::parse(reg.snapshot().json().dump());
  const json::Value& stats = *parsed.find("summaries")->find("s");
  EXPECT_EQ(stats.find("mean")->as_double(), 5.0 / 3.0);
  EXPECT_EQ(stats.find("mean")->as_double(), s.mean());
  EXPECT_EQ(stats.find("count")->as_int(), 3);
}

TEST(MetricsRegistry, ScopeNestsAndRestores) {
  EXPECT_EQ(MetricsRegistry::current(), nullptr);
  MetricsRegistry outer, inner;
  {
    MetricsRegistry::Scope a(&outer);
    EXPECT_EQ(MetricsRegistry::current(), &outer);
    {
      MetricsRegistry::Scope b(&inner);
      EXPECT_EQ(MetricsRegistry::current(), &inner);
    }
    EXPECT_EQ(MetricsRegistry::current(), &outer);
  }
  EXPECT_EQ(MetricsRegistry::current(), nullptr);
}

// ---- cluster integration ---------------------------------------------------

TEST(MetricsCluster, RegistryMatchesWorkerCountersUnderLoss) {
  core::ClusterConfig cfg;
  cfg.n_workers = 4;
  cfg.loss_prob = 0.02;
  cfg.pool_size = 16;
  core::Fabric cluster(cfg.fabric());

  std::vector<std::vector<std::int32_t>> updates(4, std::vector<std::int32_t>(4096, 1));
  auto r = cluster.reduce_i32(updates);
  ASSERT_EQ(r.outputs[0][0], 4);

  auto snap = cluster.metrics().snapshot();
  std::uint64_t total_retx = 0;
  for (int w = 0; w < 4; ++w) {
    const auto& c = cluster.worker(w).counters();
    const std::string p = "worker-" + std::to_string(w) + ".";
    EXPECT_EQ(snap.counter(p + "retransmissions"), c.retransmissions);
    EXPECT_EQ(snap.counter(p + "updates_sent"), c.updates_sent);
    EXPECT_EQ(snap.counter(p + "results_received"), c.results_received);
    total_retx += c.retransmissions;
  }
  // 2% loss on 4 workers x 4096 elems guarantees some retransmissions, and
  // the suffix sum must agree with the workers' own counters.
  EXPECT_GT(total_retx, 0u);
  EXPECT_EQ(snap.sum(".retransmissions"), total_retx);
  // The switch registered too, and it saw every worker's traffic.
  EXPECT_GT(snap.counter("switch.updates_received"), 0u);
  EXPECT_GT(snap.counter("switch.duplicate_updates"), 0u);
}

TEST(MetricsCluster, EachClusterOwnsItsOwnRegistry) {
  core::ClusterConfig cfg;
  cfg.n_workers = 2;
  core::Fabric a(cfg.fabric()), b(cfg.fabric());
  // Registration happened inside each constructor's scope; nothing leaked
  // into an ambient registry after construction.
  EXPECT_EQ(MetricsRegistry::current(), nullptr);
  EXPECT_EQ(a.metrics().size(), b.metrics().size());
  EXPECT_GT(a.metrics().size(), 0u);

  std::vector<std::vector<std::int32_t>> updates(2, std::vector<std::int32_t>(256, 1));
  a.reduce_i32(updates);
  auto sa = a.metrics().snapshot();
  auto sb = b.metrics().snapshot();
  EXPECT_GT(sa.sum(".updates_sent"), 0u);
  EXPECT_EQ(sb.sum(".updates_sent"), 0u); // b never ran
}

TEST(MetricsCluster, StreamingPsRegistersShardCounters) {
  core::FabricConfig cfg;
  cfg.topology = core::StreamingPsSpec{.n_workers = 2};
  core::Fabric ps(cfg);
  std::vector<std::vector<std::int32_t>> updates(2, std::vector<std::int32_t>(256, 2));
  ps.reduce_i32(updates);
  auto snap = ps.metrics().snapshot();
  EXPECT_GT(snap.sum(".updates_sent"), 0u); // workers
  EXPECT_GT(snap.sum(".updates"), 0u);      // shard aggregators
}

// ---- loss knob coverage ----------------------------------------------------

TEST(MetricsCluster, TreeSetLossProbReachesEveryLevel) {
  core::FabricConfig cfg;
  cfg.topology = core::TreeSpec{.levels = 3, .branching = 2, .workers_per_rack = 2};
  cfg.pool_size = 64;
  core::Fabric tree(cfg);
  // root + 2 internal + 4 racks, 8 workers; links: 8 worker links + 6 uplinks.
  ASSERT_EQ(tree.n_switches(), 7);
  ASSERT_EQ(tree.n_links(), 14u);

  for (std::size_t i = 0; i < tree.n_links(); ++i)
    ASSERT_EQ(tree.link(i).config().loss_prob, 0.0) << i;
  tree.set_loss_prob(0.05);
  for (std::size_t i = 0; i < tree.n_links(); ++i)
    EXPECT_EQ(tree.link(i).config().loss_prob, 0.05) << i;
}

} // namespace
} // namespace switchml
