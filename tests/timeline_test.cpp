// TimelineRecorder: sampling semantics (counters as deltas, gauges as
// levels), daemon-tick interaction with Simulation::run, ring-buffer
// truncation accounting, sidecar determinism, and export well-formedness.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/timeline.hpp"
#include "core/cluster.hpp"
#include "sim/simulation.hpp"

namespace switchml {
namespace {

// --- pure sim-level tests ----------------------------------------------------

TEST(Timeline, CountersBecomeDeltasAndGaugesLevels) {
  sim::Simulation sim;
  MetricsRegistry reg;
  std::uint64_t produced = 0;
  std::int64_t depth = 0;
  reg.add_counter("prod.items", [&] { return produced; });
  reg.add_gauge("prod.depth", [&] { return depth; });

  TimelineRecorder::Config tc;
  tc.period = usec(10);
  TimelineRecorder tl(sim, reg, tc);
  // 10 items per 10 us tick; depth ramps 1, 2, 3...
  for (int i = 1; i <= 4; ++i) {
    sim.schedule_at(usec(10) * i - usec(1), [&, i] {
      produced += 10;
      depth = i;
    });
  }
  tl.start();
  sim.run();
  tl.finish();

  ASSERT_EQ(tl.sample_count(), 5u); // baseline + 4 ticks (final coincides with tick 4)
  const auto d = tl.deltas("prod.items");
  ASSERT_EQ(d.size(), 4u);
  for (auto v : d) EXPECT_EQ(v, 10u);
  const auto r = tl.rate_per_s("prod.items");
  ASSERT_EQ(r.size(), 4u);
  for (auto v : r) EXPECT_DOUBLE_EQ(v, 10.0 / (10e-6)); // 1M items/s
  const auto lv = tl.levels("prod.depth");
  ASSERT_EQ(lv.size(), 5u);
  EXPECT_EQ(lv.front(), 0);
  EXPECT_EQ(lv.back(), 4);
}

TEST(Timeline, DaemonTickDoesNotKeepSimulationAlive) {
  sim::Simulation sim;
  MetricsRegistry reg;
  std::uint64_t n = 0;
  reg.add_counter("c", [&] { return n; });
  TimelineRecorder::Config tc;
  tc.period = usec(5);
  TimelineRecorder tl(sim, reg, tc);
  sim.schedule_at(usec(12), [&] { n = 7; });
  tl.start();
  sim.run(); // must terminate: the tick is a daemon and stops re-arming
  tl.finish();
  EXPECT_LE(sim.now(), usec(20));
  EXPECT_EQ(sim.live_pending_events(), 0u);
  const auto d = tl.deltas("c");
  std::uint64_t total = 0;
  for (auto v : d) total += v;
  EXPECT_EQ(total, 7u);
}

TEST(Timeline, RingDropsOldestAndCountsThem) {
  sim::Simulation sim;
  MetricsRegistry reg;
  std::uint64_t n = 0;
  reg.add_counter("c", [&] { return n; });
  TimelineRecorder::Config tc;
  tc.period = usec(1);
  tc.max_samples = 4;
  TimelineRecorder tl(sim, reg, tc);
  sim.schedule_at(usec(10), [&] { n = 10; });
  tl.start();
  sim.run();
  tl.finish();
  EXPECT_EQ(tl.sample_count(), 4u);
  EXPECT_GT(tl.dropped_samples(), 0u);
  // The ring keeps the most recent window.
  EXPECT_EQ(tl.times().back(), sim.now());
  // Truncation is reported in the JSONL export, not silent.
  EXPECT_NE(tl.jsonl().find("dropped_samples"), std::string::npos);
}

TEST(Timeline, JsonlRatesKeepEveryDigit) {
  sim::Simulation sim;
  MetricsRegistry reg;
  std::uint64_t n = 0;
  reg.add_counter("c", [&] { return n; });
  TimelineRecorder::Config tc;
  tc.period = usec(1);
  TimelineRecorder tl(sim, reg, tc);
  // 1,234,567 per 1 us tick: a rate of 1.234567e12/s, more digits than %.6g.
  for (int i = 1; i <= 4; ++i) sim.schedule_at(usec(i) - 500, [&] { n += 1'234'567; });
  tl.start();
  sim.run();
  tl.finish();

  const auto d = tl.deltas("c");
  const auto t = tl.times();
  std::istringstream lines(tl.jsonl());
  std::string line;
  std::size_t i = 0;
  while (std::getline(lines, line)) {
    ASSERT_LT(i, d.size());
    EXPECT_EQ(d[i], 1'234'567u);
    const json::Value v = json::parse(line);
    EXPECT_EQ(v.find("rates")->find("c")->as_double(),
              static_cast<double>(d[i]) / to_sec(t[i + 1] - t[i]))
        << line;
    ++i;
  }
  EXPECT_EQ(i, d.size());
}

TEST(Timeline, InvalidConfigThrows) {
  sim::Simulation sim;
  MetricsRegistry reg;
  TimelineRecorder::Config bad_period;
  bad_period.period = 0;
  EXPECT_THROW(TimelineRecorder(sim, reg, bad_period), std::invalid_argument);
  TimelineRecorder::Config bad_ring;
  bad_ring.max_samples = 1;
  EXPECT_THROW(TimelineRecorder(sim, reg, bad_ring), std::invalid_argument);
}

TEST(Timeline, UnknownSeriesThrows) {
  sim::Simulation sim;
  MetricsRegistry reg;
  TimelineRecorder tl(sim, reg);
  EXPECT_THROW(tl.deltas("nope"), std::out_of_range);
  EXPECT_THROW(tl.levels("nope"), std::out_of_range);
  EXPECT_THROW(tl.interval_quantiles("nope"), std::out_of_range);
}

TEST(Timeline, HistogramsBecomePerIntervalQuantiles) {
  sim::Simulation sim;
  MetricsRegistry reg;
  Histogram h;
  reg.add_histogram("w.rtt_ns", &h);
  h.record(999'999); // pre-construction-baseline sample: must not leak into
                     // any exported interval (recorded before the recorder's
                     // baseline would be misattributed otherwise)

  TimelineRecorder::Config tc;
  tc.period = usec(10);
  TimelineRecorder tl(sim, reg, tc);
  // Tick 1 interval: 100 samples around 1000 ns. Tick 2: idle. Tick 3: 100
  // samples around 100000 ns.
  sim.schedule_at(usec(5), [&] {
    for (int i = 0; i < 100; ++i) h.record(1000 + i);
  });
  sim.schedule_at(usec(25), [&] {
    for (int i = 0; i < 100; ++i) h.record(100'000 + i);
  });
  tl.start();
  sim.run();
  tl.finish();

  ASSERT_EQ(tl.histogram_names().size(), 1u);
  if (!kHistogramsCompiledIn) GTEST_SKIP() << "histograms compiled out";
  const auto q = tl.interval_quantiles("w.rtt_ns");
  ASSERT_GE(q.size(), 3u);
  EXPECT_EQ(q[0].count, 100u);
  EXPECT_GE(q[0].p50, 1000);
  EXPECT_LT(q[0].p99, 2000); // tick-1 percentiles unpolluted by tick 3
  EXPECT_EQ(q[1].count, 0u); // idle interval: zeros, not stale data
  EXPECT_EQ(q[1].p999, 0);
  EXPECT_EQ(q[2].count, 100u);
  EXPECT_GE(q[2].p50, 100'000); // tick-3 percentiles unpolluted by tick 1

  // Exports carry the per-interval series.
  const std::string jsonl = tl.jsonl();
  EXPECT_NE(jsonl.find("\"hist\":{\"w.rtt_ns\":{\"n\":100,\"p50\":"), std::string::npos);
  const std::string csv = tl.csv();
  EXPECT_NE(csv.find("w.rtt_ns.n,w.rtt_ns.p50,w.rtt_ns.p90,w.rtt_ns.p99,w.rtt_ns.p999"),
            std::string::npos);
}

// --- cluster-level tests -----------------------------------------------------

std::string lossy_run_jsonl(std::uint64_t elems) {
  core::ClusterConfig cfg = core::ClusterConfig::for_rate(gbps(10), 4);
  cfg.timing_only = true;
  cfg.loss_prob = 0.01;
  cfg.adaptive_rto = true;
  core::Fabric cluster(cfg.fabric());
  TimelineRecorder::Config tc;
  tc.period = msec(1);
  TimelineRecorder tl(cluster.simulation(), cluster.metrics(), tc);
  tl.start();
  cluster.reduce_timing(elems);
  tl.finish();
  return tl.jsonl();
}

TEST(Timeline, ResumeSamplesEveryReductionOnOneFabric) {
  // The tick stops re-arming once the first reduction drains; resume()
  // before each later one keeps every interval within one period. Without
  // it, sampling stopped at 1.2 ms and the closing interval ran to 3.58 ms.
  core::ClusterConfig cfg = core::ClusterConfig::for_rate(gbps(10), 8);
  cfg.timing_only = true;
  core::Fabric fabric(cfg.fabric());
  TimelineRecorder tl(fabric.simulation(), fabric.metrics(), {usec(100)});
  tl.start();
  for (int r = 0; r < 3; ++r) {
    tl.resume();
    fabric.reduce_timing(1u << 18);
  }
  tl.finish();
  const std::vector<Time> t = tl.times();
  ASSERT_GT(t.back(), msec(3));
  for (std::size_t i = 1; i < t.size(); ++i)
    EXPECT_LE(t[i] - t[i - 1], usec(100)) << "interval ending at " << t[i] << " ns";
}

TEST(Timeline, SameSeedAndPeriodProduceBitIdenticalSidecar) {
  const std::string a = lossy_run_jsonl(64 * 1024);
  const std::string b = lossy_run_jsonl(64 * 1024);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Timeline, LossySidecarCarriesRetransmissionAndInFlightSeries) {
  const std::string jsonl = lossy_run_jsonl(256 * 1024);
  EXPECT_NE(jsonl.find("\"worker-0.retransmissions\":"), std::string::npos);
  EXPECT_NE(jsonl.find("\"worker-0.in_flight_slots\":"), std::string::npos);
  EXPECT_NE(jsonl.find("\"worker-0.rto_ns\":"), std::string::npos);
}

TEST(Timeline, CsvHeaderMatchesSeriesAndRowsAreComplete) {
  sim::Simulation sim;
  MetricsRegistry reg;
  std::uint64_t n = 0;
  std::int64_t g = 0;
  // Register out of sorted order: the export must sort by name.
  reg.add_counter("z.count", [&] { return n; });
  reg.add_gauge("a.level", [&] { return g; });
  reg.add_counter("b.count", [&] { return n * 2; });
  TimelineRecorder::Config tc;
  tc.period = usec(1);
  TimelineRecorder tl(sim, reg, tc);
  sim.schedule_at(usec(3), [&] {
    n = 5;
    g = -2;
  });
  tl.start();
  sim.run();
  tl.finish();
  const std::string csv = tl.csv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "t_ns,dt_ns,b.count.rate,z.count.rate,a.level");
  // Every row has the same number of commas as the header.
  std::size_t header_commas = 0;
  for (char c : csv.substr(0, csv.find('\n')))
    if (c == ',') ++header_commas;
  std::size_t pos = csv.find('\n') + 1;
  while (pos < csv.size()) {
    const std::size_t end = csv.find('\n', pos);
    std::size_t commas = 0;
    for (std::size_t i = pos; i < end; ++i)
      if (csv[i] == ',') ++commas;
    EXPECT_EQ(commas, header_commas);
    pos = end + 1;
  }
}

// write(path) takes the format from the path: CSV exactly when it ends in
// ".csv", JSONL otherwise.
TEST(Timeline, WritePicksCsvOnlyForCsvSuffix) {
  sim::Simulation sim;
  MetricsRegistry reg;
  std::uint64_t n = 0;
  reg.add_counter("c", [&] { return n; });
  TimelineRecorder::Config tc;
  tc.period = usec(1);
  TimelineRecorder tl(sim, reg, tc);
  sim.schedule_at(usec(3), [&] { n = 5; });
  tl.start();
  sim.run();
  tl.finish();

  const auto read_back = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    std::remove(path.c_str());
    return text.str();
  };
  const std::string base = ::testing::TempDir() + "timeline_write_test";
  tl.write(base + ".csv");
  const std::string csv = read_back(base + ".csv");
  EXPECT_EQ(csv, tl.csv());
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "t_ns,dt_ns,c.rate");

  for (const std::string& path : {base + ".jsonl", base + ".csv.jsonl"}) {
    tl.write(path);
    const std::string jsonl = read_back(path);
    EXPECT_EQ(jsonl, tl.jsonl()) << path;
    const json::Value first = json::parse(jsonl.substr(0, jsonl.find('\n')));
    EXPECT_NE(first.find("t_ns"), nullptr) << path;
  }
}

} // namespace
} // namespace switchml
