// The bench artifacts: a BenchReport and a MetricsSidecar parse with the
// strict json::parse and keep every digit of every value.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/stats.hpp"

namespace switchml {
namespace {

using bench::BenchReport;
using bench::MetricsSidecar;

BenchReport make_report(const std::string& path) {
  std::string arg0 = "bench_report_test", fast = "--fast", out = "--report-out";
  std::string out_path = path;
  char* argv[] = {arg0.data(), fast.data(), out.data(), out_path.data()};
  return BenchReport("unit", 4, argv);
}

bool same_bits(double a, double b) { return a == b && std::signbit(a) == std::signbit(b); }

TEST(BenchReport, JsonParsesAndKeepsEveryValueAndTolerance) {
  const std::vector<std::pair<double, double>> values = {
      {1330.259, BenchReport::kSimTol},
      {1.0 / 3.0, 0.0123456},
      {1e-300, BenchReport::kLooseTol},
      {-0.0, 0.0},
      {42.0, 1.0 / 7.0},
      {std::numeric_limits<double>::max(), std::numeric_limits<double>::denorm_min()},
  };
  BenchReport report = make_report("unused_report.json");
  for (std::size_t i = 0; i < values.size(); ++i)
    report.add("m" + std::to_string(i), values[i].first, values[i].second);
  report.info("host", "a \"quoted\"\tname");

  const json::Value doc = json::parse(report.json());
  EXPECT_EQ(doc.find("schema_version")->as_int(), BenchReport::kSchemaVersion);
  EXPECT_EQ(doc.find("bench")->as_string(), "unit");
  EXPECT_EQ(doc.find("mode")->as_string(), "fast");
  const json::Object& metrics = doc.find("metrics")->as_object();
  ASSERT_EQ(metrics.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(metrics[i].first, "m" + std::to_string(i)); // insertion order
    const json::Value& m = metrics[i].second;
    EXPECT_TRUE(same_bits(m.find("value")->as_double(), values[i].first)) << i;
    EXPECT_TRUE(same_bits(m.find("rel_tol")->as_double(), values[i].second)) << i;
  }
  EXPECT_EQ(doc.find("info")->find("host")->as_string(), "a \"quoted\"\tname");
}

TEST(BenchReport, WriteMatchesJsonAndNonFiniteMetricsThrow) {
  const std::string path = ::testing::TempDir() + "bench_report_test_report.json";
  BenchReport report = make_report(path);
  report.add("tat_ms", 2.5);
  ASSERT_EQ(report.write(), path);
  EXPECT_EQ(json::parse_file(path), json::parse(report.json()));
  std::remove(path.c_str());

  // NaN and infinity are not JSON: the report refuses them instead of
  // writing a file no parser accepts.
  report.add("broken", std::numeric_limits<double>::quiet_NaN());
  EXPECT_THROW((void)report.json(), std::runtime_error);
  BenchReport inf = make_report(path);
  inf.add("broken", std::numeric_limits<double>::infinity());
  EXPECT_THROW((void)inf.json(), std::runtime_error);
}

TEST(MetricsSidecar, WritesOneObjectKeyedByLabel) {
  MetricsRegistry first, second;
  first.add_counter("a.count", [] { return std::uint64_t{7}; });
  Summary s;
  for (double x : {1.0, 2.0, 2.0}) s.add(x);
  first.add_summary("a.summary", &s);
  second.add_gauge("b.level", [] { return std::int64_t{-3}; });

  const std::string path = ::testing::TempDir() + "bench_report_test_metrics.json";
  MetricsSidecar sidecar(path);
  sidecar.record("first \"run\"", first);
  sidecar.record("second", second);
  ASSERT_EQ(sidecar.write(), path);
  const json::Value doc = json::parse_file(path);
  std::remove(path.c_str());

  const json::Object& runs = doc.as_object();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].first, "first \"run\"");
  EXPECT_EQ(runs[0].second, first.snapshot().json());
  EXPECT_EQ(runs[1].first, "second");
  EXPECT_EQ(runs[1].second, second.snapshot().json());
  EXPECT_EQ(runs[0].second.find("summaries")->find("a.summary")->find("mean")->as_double(),
            5.0 / 3.0);
}

} // namespace
} // namespace switchml
