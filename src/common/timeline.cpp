// Sampling, query, and export logic for TimelineRecorder. Everything that
// talks to the Simulation is inline in timeline.hpp; this file is sim-free so
// switchml_common never links against switchml_sim.
#include "common/timeline.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"

namespace switchml {

namespace {

// Sorts (name, sampler) pairs by name so the sidecar's column order is
// independent of component registration order.
template <typename SamplerT>
void capture_sorted(const std::vector<std::pair<std::string, SamplerT>>& src,
                    std::vector<std::string>& names, std::vector<SamplerT>& samplers) {
  std::vector<std::size_t> order(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&src](std::size_t a, std::size_t b) { return src[a].first < src[b].first; });
  names.reserve(src.size());
  samplers.reserve(src.size());
  for (std::size_t i : order) {
    names.push_back(src[i].first);
    samplers.push_back(src[i].second);
  }
}

// Counter rate over one interval, in events per second.
double per_second(std::uint64_t delta, Time dt) {
  return dt > 0 ? static_cast<double>(delta) / to_sec(dt) : 0.0;
}

void format_rate(std::ostringstream& out, double rate) {
  // Fixed formatting keeps CSV sidecars bit-identical across platforms for
  // the integer-valued rates the ns-resolution clock produces.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", rate);
  out << buf;
}

} // namespace

TimelineRecorder::TimelineRecorder(sim::Simulation& sim, const MetricsRegistry& registry,
                                   Config config)
    : sim_(sim), config_(config) {
  if (config_.period <= 0)
    throw std::invalid_argument("TimelineRecorder: period must be positive");
  if (config_.max_samples < 2)
    throw std::invalid_argument("TimelineRecorder: max_samples must be at least 2");
  capture_sorted(registry.counters(), counter_names_, counter_samplers_);
  capture_sorted(registry.gauges(), gauge_names_, gauge_samplers_);
  capture_sorted(registry.histograms(), hist_names_, hist_sources_);
  // Seed the previous-counts baseline so the first interval's delta covers
  // exactly the samples recorded after construction.
  hist_prev_.reserve(hist_sources_.size());
  for (const Histogram* h : hist_sources_) hist_prev_.push_back(h->counts());
}

TimelineRecorder::TimelineRecorder(sim::Simulation& sim, const MetricsRegistry& registry)
    : TimelineRecorder(sim, registry, Config()) {}

void TimelineRecorder::sample_now(Time t) {
  if (samples_.size() >= config_.max_samples) {
    samples_.pop_front();
    ++dropped_;
  }
  Sample s;
  s.t = t;
  s.counters.reserve(counter_samplers_.size());
  for (const auto& sample : counter_samplers_) s.counters.push_back(sample());
  s.gauges.reserve(gauge_samplers_.size());
  for (const auto& sample : gauge_samplers_) s.gauges.push_back(sample());
  s.hists.reserve(hist_sources_.size());
  for (std::size_t i = 0; i < hist_sources_.size(); ++i) {
    const std::vector<std::uint64_t>& cur = hist_sources_[i]->counts();
    std::vector<std::uint64_t>& prev = hist_prev_[i];
    hist_scratch_.resize(cur.size());
    for (std::size_t b = 0; b < cur.size(); ++b) hist_scratch_[b] = cur[b] - prev[b];
    s.hists.push_back(hist_sources_[i]->quantiles_of(hist_scratch_));
    prev = cur; // becomes the baseline of the next interval
  }
  samples_.push_back(std::move(s));
}

std::vector<Time> TimelineRecorder::times() const {
  std::vector<Time> out;
  out.reserve(samples_.size());
  for (const Sample& s : samples_) out.push_back(s.t);
  return out;
}

std::vector<std::uint64_t> TimelineRecorder::deltas(std::string_view counter) const {
  auto it = std::find(counter_names_.begin(), counter_names_.end(), counter);
  if (it == counter_names_.end())
    throw std::out_of_range("TimelineRecorder: no counter named '" + std::string(counter) + "'");
  const std::size_t idx = static_cast<std::size_t>(it - counter_names_.begin());
  std::vector<std::uint64_t> out;
  if (samples_.size() < 2) return out;
  out.reserve(samples_.size() - 1);
  for (std::size_t i = 1; i < samples_.size(); ++i)
    out.push_back(samples_[i].counters[idx] - samples_[i - 1].counters[idx]);
  return out;
}

std::vector<double> TimelineRecorder::rate_per_s(std::string_view counter) const {
  std::vector<std::uint64_t> d = deltas(counter);
  std::vector<double> out;
  out.reserve(d.size());
  for (std::size_t i = 0; i < d.size(); ++i)
    out.push_back(per_second(d[i], samples_[i + 1].t - samples_[i].t));
  return out;
}

std::vector<std::int64_t> TimelineRecorder::levels(std::string_view gauge) const {
  auto it = std::find(gauge_names_.begin(), gauge_names_.end(), gauge);
  if (it == gauge_names_.end())
    throw std::out_of_range("TimelineRecorder: no gauge named '" + std::string(gauge) + "'");
  const std::size_t idx = static_cast<std::size_t>(it - gauge_names_.begin());
  std::vector<std::int64_t> out;
  out.reserve(samples_.size());
  for (const Sample& s : samples_) out.push_back(s.gauges[idx]);
  return out;
}

std::vector<Histogram::Quantiles> TimelineRecorder::interval_quantiles(
    std::string_view histogram) const {
  auto it = std::find(hist_names_.begin(), hist_names_.end(), histogram);
  if (it == hist_names_.end())
    throw std::out_of_range("TimelineRecorder: no histogram named '" + std::string(histogram) +
                            "'");
  const std::size_t idx = static_cast<std::size_t>(it - hist_names_.begin());
  std::vector<Histogram::Quantiles> out;
  if (samples_.size() < 2) return out;
  out.reserve(samples_.size() - 1);
  // The quantiles stored with sample i describe the interval ending at i;
  // the baseline sample's entry (pre-start activity) is skipped, mirroring
  // deltas().
  for (std::size_t i = 1; i < samples_.size(); ++i) out.push_back(samples_[i].hists[idx]);
  return out;
}

std::string TimelineRecorder::jsonl() const {
  std::string out;
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    const Sample& prev = samples_[i - 1];
    const Sample& cur = samples_[i];
    const Time dt = cur.t - prev.t;
    json::Value line(json::Object{{"t_ns", cur.t}, {"dt_ns", dt}});
    json::Value rates(json::Object{}), gauges(json::Object{}), hist(json::Object{});
    for (std::size_t c = 0; c < counter_names_.size(); ++c)
      rates.set(counter_names_[c], per_second(cur.counters[c] - prev.counters[c], dt));
    for (std::size_t g = 0; g < gauge_names_.size(); ++g)
      gauges.set(gauge_names_[g], cur.gauges[g]);
    line.set("rates", std::move(rates));
    line.set("gauges", std::move(gauges));
    for (std::size_t h = 0; h < hist_names_.size(); ++h) {
      const Histogram::Quantiles& q = cur.hists[h];
      hist.set(hist_names_[h], json::Object{{"n", static_cast<std::int64_t>(q.count)},
                                            {"p50", q.p50}, {"p90", q.p90},
                                            {"p99", q.p99}, {"p999", q.p999}});
    }
    if (!hist_names_.empty()) line.set("hist", std::move(hist));
    out += line.dump() + '\n';
  }
  if (dropped_ > 0) {
    const json::Value marker(
        json::Object{{"dropped_samples", static_cast<std::int64_t>(dropped_)}});
    out += marker.dump() + '\n';
  }
  return out;
}

std::string TimelineRecorder::csv() const {
  std::ostringstream out;
  out << "t_ns,dt_ns";
  for (const std::string& name : counter_names_) out << ',' << name << ".rate";
  for (const std::string& name : gauge_names_) out << ',' << name;
  for (const std::string& name : hist_names_)
    out << ',' << name << ".n," << name << ".p50," << name << ".p90," << name << ".p99," << name
        << ".p999";
  out << '\n';
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    const Sample& prev = samples_[i - 1];
    const Sample& cur = samples_[i];
    const Time dt = cur.t - prev.t;
    out << cur.t << ',' << dt;
    for (std::size_t c = 0; c < counter_names_.size(); ++c) {
      out << ',';
      format_rate(out, per_second(cur.counters[c] - prev.counters[c], dt));
    }
    for (std::size_t g = 0; g < gauge_names_.size(); ++g) out << ',' << cur.gauges[g];
    for (std::size_t h = 0; h < hist_names_.size(); ++h) {
      const Histogram::Quantiles& q = cur.hists[h];
      out << ',' << q.count << ',' << q.p50 << ',' << q.p90 << ',' << q.p99 << ',' << q.p999;
    }
    out << '\n';
  }
  return out.str();
}

void TimelineRecorder::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("TimelineRecorder: cannot open '" + path + "' for writing");
  out << (path.ends_with(".csv") ? csv() : jsonl());
}

} // namespace switchml
