#include "common/histogram.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "common/metrics.hpp"

namespace switchml {
namespace {

TEST(Histogram, EmptyIsWellDefined) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50), 0);
  EXPECT_EQ(h.overflow_count(), 0u);
  EXPECT_EQ(h.str(), "(no samples)");
}

TEST(Histogram, ExactAggregatesAndUnitResolutionBelowSubBucketCount) {
  Histogram h;
  // Values below 2^precision_bits (=128) are recorded at unit resolution:
  // every percentile is exact.
  for (std::int64_t v = 0; v < 128; ++v) h.record(v);
  if (!kHistogramsCompiledIn) GTEST_SKIP() << "histograms compiled out";
  EXPECT_EQ(h.count(), 128u);
  EXPECT_EQ(h.sum(), 127 * 128 / 2);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 127);
  EXPECT_EQ(h.percentile(50), 63);   // rank ceil(0.5*128)=64 -> value 63
  EXPECT_EQ(h.percentile(100), 127);
  EXPECT_EQ(h.percentile(0), 0);
}

TEST(Histogram, BucketBoundariesRoundTrip) {
  Histogram h;
  // index_of/value_at_index must agree: the highest-equivalent value of a
  // bucket maps back into the same bucket, across octave boundaries.
  const std::int64_t probes[] = {0,   1,    63,   64,        127,        128,     129,
                                 255, 256,  257,  511,       512,        1023,    1024,
                                 1u << 20,  (1u << 20) + 1,  123456789,  h.config().max_value};
  for (std::int64_t v : probes) {
    const std::size_t idx = h.index_of(v);
    const std::int64_t hi = h.value_at_index(idx);
    EXPECT_GE(hi, v) << "value " << v;
    EXPECT_EQ(h.index_of(hi), idx) << "value " << v;
  }
  // Adjacent values on either side of an octave boundary land in different
  // buckets once resolution drops below 1.
  EXPECT_NE(h.index_of(127), h.index_of(128));
  EXPECT_EQ(h.index_of(128), h.index_of(129)); // resolution 2 in bucket 1
}

TEST(Histogram, BoundedRelativeError) {
  Histogram h;
  std::mt19937_64 rng(42);
  for (int i = 0; i < 2000; ++i) {
    const auto v = static_cast<std::int64_t>(rng() % 1'000'000'000ULL);
    h.record(v);
    const std::int64_t hi = h.value_at_index(h.index_of(v));
    // p=7 -> relative error at most 2^-6.
    EXPECT_GE(hi, v);
    EXPECT_LE(static_cast<double>(hi - v), static_cast<double>(v) / 64.0 + 1.0);
  }
}

TEST(Histogram, PercentileMonotonicity) {
  Histogram h;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 5000; ++i)
    h.record(static_cast<std::int64_t>(rng() % 10'000'000ULL));
  std::int64_t prev = h.percentile(0);
  for (double p = 1.0; p <= 100.0; p += 0.5) {
    const std::int64_t cur = h.percentile(p);
    EXPECT_GE(cur, prev) << "p=" << p;
    prev = cur;
  }
  EXPECT_EQ(h.percentile(0), h.min());
  EXPECT_EQ(h.percentile(100), h.max());
  const Histogram::Quantiles q = h.quantiles();
  EXPECT_EQ(q.count, h.count());
  EXPECT_EQ(q.p50, h.percentile(50));
  EXPECT_EQ(q.p90, h.percentile(90));
  EXPECT_EQ(q.p99, h.percentile(99));
  EXPECT_EQ(q.p999, h.percentile(99.9));
  EXPECT_LE(q.p50, q.p90);
  EXPECT_LE(q.p90, q.p99);
  EXPECT_LE(q.p99, q.p999);
}

TEST(Histogram, OverflowBucket) {
  Histogram h(Histogram::Config{.precision_bits = 7, .max_value = 1000});
  h.record(500);
  h.record(5000);   // beyond max_value
  h.record(50000);  // beyond max_value
  if (!kHistogramsCompiledIn) GTEST_SKIP() << "histograms compiled out";
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.overflow_count(), 2u);
  EXPECT_EQ(h.sum(), 500 + 5000 + 50000); // sum stays exact
  EXPECT_EQ(h.max(), 50000);              // max stays exact
  // Ranks in the overflow bucket report the exact max.
  EXPECT_EQ(h.percentile(99), 50000);
  // Ranks below it still resolve through the normal buckets.
  EXPECT_LE(h.percentile(33), 1000);
}

TEST(Histogram, NegativeValuesClampToZero) {
  Histogram h;
  h.record(-5);
  if (!kHistogramsCompiledIn) GTEST_SKIP() << "histograms compiled out";
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.sum(), 0);
}

TEST(Histogram, MergeAddsBucketsAndAggregates) {
  Histogram a, b;
  for (int i = 0; i < 100; ++i) a.record(i * 10);
  for (int i = 0; i < 50; ++i) b.record(1'000'000 + i);
  if (!kHistogramsCompiledIn) GTEST_SKIP() << "histograms compiled out";
  const std::int64_t sum_before = a.sum() + b.sum();
  a.merge(b);
  EXPECT_EQ(a.count(), 150u);
  EXPECT_EQ(a.sum(), sum_before);
  EXPECT_EQ(a.min(), 0);
  EXPECT_EQ(a.max(), 1'000'049);
  EXPECT_GE(a.percentile(99), 1'000'000);
  // Merging an empty histogram is a no-op on min/max.
  Histogram empty;
  a.merge(empty);
  EXPECT_EQ(a.min(), 0);
  EXPECT_EQ(a.max(), 1'000'049);
}

TEST(Histogram, MergeRejectsLayoutMismatch) {
  Histogram a;
  Histogram coarse(Histogram::Config{.precision_bits = 4, .max_value = 3'600'000'000'000LL});
  Histogram shallow(Histogram::Config{.precision_bits = 7, .max_value = 1000});
  EXPECT_THROW(a.merge(coarse), std::invalid_argument);
  EXPECT_THROW(a.merge(shallow), std::invalid_argument);
}

TEST(Histogram, ResetKeepsLayout) {
  Histogram h;
  const std::size_t buckets = h.counts().size();
  for (int i = 0; i < 100; ++i) h.record(i);
  h.reset();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.counts().size(), buckets);
  EXPECT_EQ(h.percentile(50), 0);
  if (!kHistogramsCompiledIn) GTEST_SKIP() << "histograms compiled out";
  h.record(42);
  EXPECT_EQ(h.min(), 42);
  EXPECT_EQ(h.max(), 42);
}

TEST(Histogram, RecordIsAllocationFree) {
  Histogram h;
  const auto* data_before = h.counts().data();
  for (std::int64_t v = 0; v < 100'000; v += 37) h.record(v);
  h.record(h.config().max_value + 1); // overflow path too
  EXPECT_EQ(h.counts().data(), data_before);
}

TEST(Histogram, QuantilesOfDeltaCounts) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(i);
  if (!kHistogramsCompiledIn) GTEST_SKIP() << "histograms compiled out";
  std::vector<std::uint64_t> baseline = h.counts();
  for (int i = 0; i < 1000; ++i) h.record(1'000'000 + i);
  // Delta between two count snapshots covers only the second batch.
  std::vector<std::uint64_t> delta = h.counts();
  for (std::size_t i = 0; i < delta.size(); ++i) delta[i] -= baseline[i];
  const Histogram::Quantiles q = h.quantiles_of(delta);
  EXPECT_EQ(q.count, 1000u);
  EXPECT_GE(q.p50, 1'000'000);
  EXPECT_LE(q.p999, h.value_at_index(h.index_of(1'000'999)));
  EXPECT_THROW((void)h.quantiles_of(std::vector<std::uint64_t>(3, 0)), std::invalid_argument);
  // All-zero delta (idle interval) reports zeros, not garbage.
  const Histogram::Quantiles idle = h.quantiles_of(std::vector<std::uint64_t>(delta.size(), 0));
  EXPECT_EQ(idle.count, 0u);
  EXPECT_EQ(idle.p999, 0);
}

TEST(Histogram, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    Histogram h;
    std::mt19937_64 rng(1234);
    for (int i = 0; i < 10'000; ++i) h.record(static_cast<std::int64_t>(rng() % 50'000'000));
    return h.quantiles();
  };
  const Histogram::Quantiles a = run();
  const Histogram::Quantiles b = run();
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p90, b.p90);
  EXPECT_EQ(a.p99, b.p99);
  EXPECT_EQ(a.p999, b.p999);
}

TEST(Histogram, ConfigValidation) {
  EXPECT_THROW(Histogram(Histogram::Config{.precision_bits = 0, .max_value = 100}),
               std::invalid_argument);
  EXPECT_THROW(Histogram(Histogram::Config{.precision_bits = 15, .max_value = 100}),
               std::invalid_argument);
  EXPECT_THROW(Histogram(Histogram::Config{.precision_bits = 7, .max_value = 0}),
               std::invalid_argument);
}

TEST(MetricsRegistryHistogram, SnapshotAndJson) {
  MetricsRegistry registry;
  Histogram h;
  registry.add_histogram("worker-0.rtt_ns", &h);
  EXPECT_THROW(registry.add_histogram("worker-0.rtt_ns", &h), std::invalid_argument);
  EXPECT_EQ(registry.size(), 1u);
  for (int i = 1; i <= 100; ++i) h.record(i * 1000);
  if (!kHistogramsCompiledIn) GTEST_SKIP() << "histograms compiled out";
  const MetricsRegistry::Snapshot snap = registry.snapshot();
  ASSERT_TRUE(snap.has_histogram("worker-0.rtt_ns"));
  const MetricsRegistry::HistogramStats& stats = snap.histogram("worker-0.rtt_ns");
  EXPECT_EQ(stats.count, 100u);
  EXPECT_EQ(stats.min, 1000);
  EXPECT_EQ(stats.max, 100'000);
  EXPECT_EQ(stats.p50, h.percentile(50));
  EXPECT_EQ(stats.p999, h.percentile(99.9));
  EXPECT_THROW((void)snap.histogram("nope"), std::out_of_range);
  const std::string json = snap.json().dump();
  EXPECT_NE(json.find("\"histograms\":{\"worker-0.rtt_ns\":{\"count\":100"), std::string::npos);
  EXPECT_NE(json.find("\"p999\":"), std::string::npos);
  EXPECT_NE(snap.table().find("worker-0.rtt_ns"), std::string::npos);
}

} // namespace
} // namespace switchml
