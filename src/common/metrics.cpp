#include "common/metrics.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace switchml {

namespace {

bool ends_with(std::string_view name, std::string_view suffix) {
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

} // namespace

void MetricsRegistry::claim_name(const std::string& name) {
  if (!names_.insert(name).second)
    throw std::invalid_argument("MetricsRegistry: duplicate series name '" + name + "'");
}

void MetricsRegistry::add_counter(std::string name, Sampler sample) {
  claim_name(name);
  counters_.emplace_back(std::move(name), std::move(sample));
}

void MetricsRegistry::add_gauge(std::string name, GaugeSampler sample) {
  claim_name(name);
  gauges_.emplace_back(std::move(name), std::move(sample));
}

void MetricsRegistry::add_summary(std::string name, const Summary* summary) {
  claim_name(name);
  summaries_.emplace_back(std::move(name), summary);
}

void MetricsRegistry::add_histogram(std::string name, const Histogram* histogram) {
  claim_name(name);
  histograms_.emplace_back(std::move(name), histogram);
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, sample] : counters_) snap.counters.emplace_back(name, sample());
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, sample] : gauges_) snap.gauges.emplace_back(name, sample());
  snap.summaries.reserve(summaries_.size());
  for (const auto& [name, summary] : summaries_) {
    SummaryStats stats;
    stats.count = summary->count();
    if (!summary->empty()) {
      stats.min = summary->min();
      stats.median = summary->median();
      stats.max = summary->max();
      stats.mean = summary->mean();
    }
    snap.summaries.emplace_back(name, stats);
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramStats stats;
    stats.count = histogram->count();
    stats.overflow = histogram->overflow_count();
    if (!histogram->empty()) {
      stats.min = histogram->min();
      stats.max = histogram->max();
      stats.mean = histogram->mean();
      const Histogram::Quantiles q = histogram->quantiles();
      stats.p50 = q.p50;
      stats.p90 = q.p90;
      stats.p99 = q.p99;
      stats.p999 = q.p999;
    }
    snap.histograms.emplace_back(name, stats);
  }
  auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.summaries.begin(), snap.summaries.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

std::uint64_t MetricsRegistry::Snapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters)
    if (n == name) return v;
  throw std::out_of_range("MetricsRegistry: no counter named '" + std::string(name) + "'");
}

bool MetricsRegistry::Snapshot::has_counter(std::string_view name) const {
  for (const auto& [n, v] : counters)
    if (n == name) return true;
  return false;
}

std::int64_t MetricsRegistry::Snapshot::gauge(std::string_view name) const {
  for (const auto& [n, v] : gauges)
    if (n == name) return v;
  throw std::out_of_range("MetricsRegistry: no gauge named '" + std::string(name) + "'");
}

bool MetricsRegistry::Snapshot::has_gauge(std::string_view name) const {
  for (const auto& [n, v] : gauges)
    if (n == name) return true;
  return false;
}

const MetricsRegistry::HistogramStats& MetricsRegistry::Snapshot::histogram(
    std::string_view name) const {
  for (const auto& [n, v] : histograms)
    if (n == name) return v;
  throw std::out_of_range("MetricsRegistry: no histogram named '" + std::string(name) + "'");
}

bool MetricsRegistry::Snapshot::has_histogram(std::string_view name) const {
  for (const auto& [n, v] : histograms)
    if (n == name) return true;
  return false;
}

std::uint64_t MetricsRegistry::Snapshot::sum(std::string_view suffix) const {
  std::uint64_t total = 0;
  for (const auto& [n, v] : counters)
    if (ends_with(n, suffix)) total += v;
  return total;
}

json::Value MetricsRegistry::Snapshot::json() const {
  json::Value c(json::Object{}), g(json::Object{}), s(json::Object{}), h(json::Object{});
  for (const auto& [name, value] : counters) c.set(name, static_cast<std::int64_t>(value));
  for (const auto& [name, value] : gauges) g.set(name, value);
  for (const auto& [name, st] : summaries)
    s.set(name, json::Object{{"count", static_cast<std::int64_t>(st.count)}, {"min", st.min},
                             {"median", st.median}, {"max", st.max}, {"mean", st.mean}});
  for (const auto& [name, st] : histograms)
    h.set(name, json::Object{{"count", static_cast<std::int64_t>(st.count)}, {"min", st.min},
                             {"max", st.max}, {"mean", st.mean}, {"p50", st.p50},
                             {"p90", st.p90}, {"p99", st.p99}, {"p999", st.p999},
                             {"overflow", static_cast<std::int64_t>(st.overflow)}});
  return json::Object{{"counters", std::move(c)}, {"gauges", std::move(g)},
                      {"summaries", std::move(s)}, {"histograms", std::move(h)}};
}

std::string MetricsRegistry::Snapshot::table() const {
  std::size_t width = 0;
  for (const auto& [name, value] : counters) width = std::max(width, name.size());
  for (const auto& [name, value] : gauges) width = std::max(width, name.size());
  for (const auto& [name, stats] : summaries) width = std::max(width, name.size());
  for (const auto& [name, stats] : histograms) width = std::max(width, name.size());
  std::ostringstream out;
  for (const auto& [name, value] : counters)
    out << std::left << std::setw(static_cast<int>(width) + 2) << name << value << '\n';
  for (const auto& [name, value] : gauges)
    out << std::left << std::setw(static_cast<int>(width) + 2) << name << value << '\n';
  for (const auto& [name, stats] : summaries) {
    out << std::left << std::setw(static_cast<int>(width) + 2) << name << std::setprecision(4)
        << stats.median << " [" << stats.min << ", " << stats.max << "] (n=" << stats.count
        << ")\n";
  }
  for (const auto& [name, stats] : histograms) {
    out << std::left << std::setw(static_cast<int>(width) + 2) << name << stats.p50 << " ["
        << stats.min << ", " << stats.max << "] p99=" << stats.p99 << " (n=" << stats.count
        << ")\n";
  }
  return out.str();
}

} // namespace switchml
