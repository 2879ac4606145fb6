// Sim-clock timeline telemetry (tier 1 of the observability layer).
//
// A TimelineRecorder periodically samples every counter, gauge, and
// histogram registered in a MetricsRegistry, driven by the simulation clock:
// counters become per-interval deltas (exported as rates), gauges become
// instantaneous levels, histograms become per-interval percentile series
// (p50/p90/p99/p99.9 of only the samples recorded during that interval,
// computed from bucket-count deltas — no samples are replayed or stored).
// This turns end-of-run snapshot totals into time-resolved series — the view
// the paper's Fig 6 / §5.3 loss analysis needs.
//
// The periodic tick is a *daemon* timer (sim::Simulation::schedule_daemon_timer):
// it re-arms only while the simulation still has live work pending, so
// Simulation::run()'s drain-until-empty semantics are preserved — the
// recorder never keeps a finished run alive.
//
// Storage is a bounded ring: once `max_samples` ticks are held, the oldest
// sample is overwritten and `dropped_samples()` increments, so truncation is
// never silent. Export formats are JSONL (one object per tick) and CSV.
//
// Layering note: this header lives in src/common but includes
// sim/simulation.hpp; all code touching the Simulation is inline here, and
// timeline.cpp stays sim-free, so switchml_common does not link against
// switchml_sim. Users of TimelineRecorder link switchml_sim anyway.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "common/units.hpp"
#include "sim/simulation.hpp"

namespace switchml {

class TimelineRecorder {
public:
  struct Config {
    Time period = msec(1);          // sim-time sampling period
    std::size_t max_samples = 65536; // ring capacity (ticks); oldest dropped first
  };

  // Captures the registry's current counter/gauge samplers (sorted by name);
  // series registered after construction are not sampled. Construct after
  // the topology is wired.
  TimelineRecorder(sim::Simulation& sim, const MetricsRegistry& registry, Config config);
  TimelineRecorder(sim::Simulation& sim, const MetricsRegistry& registry); // default Config

  TimelineRecorder(const TimelineRecorder&) = delete;
  TimelineRecorder& operator=(const TimelineRecorder&) = delete;
  ~TimelineRecorder() { tick_.cancel(); }

  // Records the baseline sample at the current sim time and arms the
  // periodic tick. Call once, before running the simulation.
  void start() {
    sample_now(sim_.now());
    arm();
  }

  // Re-arms the tick that a drained run left unarmed, so that the next run
  // on the same simulation is sampled too. Takes no sample; a no-op while
  // the tick is armed. Call before each run after the first.
  void resume() {
    if (!tick_.armed()) arm();
  }

  // Records a final sample at the current sim time (capturing the partial
  // last interval) and disarms the tick. Idempotent per run.
  void finish() {
    tick_.cancel();
    if (!samples_.empty() && samples_.back().t == sim_.now()) return;
    sample_now(sim_.now());
  }

  // --- recorded data ---------------------------------------------------------

  [[nodiscard]] const std::vector<std::string>& counter_names() const { return counter_names_; }
  [[nodiscard]] const std::vector<std::string>& gauge_names() const { return gauge_names_; }
  [[nodiscard]] const std::vector<std::string>& histogram_names() const { return hist_names_; }

  // Sample timestamps, oldest first. sample_count() includes the baseline.
  [[nodiscard]] std::vector<Time> times() const;
  [[nodiscard]] std::size_t sample_count() const { return samples_.size(); }
  [[nodiscard]] std::uint64_t dropped_samples() const { return dropped_; }

  // Per-interval raw deltas of a counter (size = sample_count() - 1).
  [[nodiscard]] std::vector<std::uint64_t> deltas(std::string_view counter) const;
  // Per-interval counter rate in events/second (deltas / interval length).
  [[nodiscard]] std::vector<double> rate_per_s(std::string_view counter) const;
  // Gauge level at each sample point (size = sample_count()).
  [[nodiscard]] std::vector<std::int64_t> levels(std::string_view gauge) const;
  // Per-interval histogram quantiles (size = sample_count() - 1): element i
  // summarizes only the samples recorded between sample i and sample i+1.
  // Idle intervals report count 0 with zero percentiles.
  [[nodiscard]] std::vector<Histogram::Quantiles> interval_quantiles(
      std::string_view histogram) const;

  // --- export ----------------------------------------------------------------

  // One JSON object per interval:
  //   {"t_ns":<end>,"dt_ns":<len>,"rates":{"<counter>":<per-s>,...},
  //    "gauges":{"<name>":<level-at-end>,...},
  //    "hist":{"<name>":{"n":..,"p50":..,"p90":..,"p99":..,"p999":..},...}}
  // A trailing object reports {"dropped_samples":N} when the ring overflowed.
  [[nodiscard]] std::string jsonl() const;
  // Header "t_ns,dt_ns,<counter>.rate...,<gauge>...,<hist>.n,<hist>.p50...",
  // one row per interval.
  [[nodiscard]] std::string csv() const;

  // Writes csv() when `path` ends in ".csv" and jsonl() otherwise.
  void write(const std::string& path) const;

private:
  struct Sample {
    Time t = 0;
    std::vector<std::uint64_t> counters;         // raw cumulative values
    std::vector<std::int64_t> gauges;            // instantaneous levels
    std::vector<Histogram::Quantiles> hists;     // quantiles of the interval
                                                 // ending at this sample
  };

  void arm() {
    tick_ = sim_.schedule_daemon_timer(config_.period, [this] { on_tick(); });
  }

  void on_tick() {
    sample_now(sim_.now());
    // Re-arm only while the run still has observable work queued; otherwise
    // let the simulation drain. finish() records the closing sample.
    if (sim_.live_pending_events() > 0) arm();
  }

  void sample_now(Time t);

  sim::Simulation& sim_;
  Config config_;
  sim::TimerHandle tick_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> hist_names_;
  std::vector<MetricsRegistry::Sampler> counter_samplers_;
  std::vector<MetricsRegistry::GaugeSampler> gauge_samplers_;
  std::vector<const Histogram*> hist_sources_;
  // Bucket counts of each histogram as of the previous sample; the delta
  // against the live counts yields the current interval's distribution.
  std::vector<std::vector<std::uint64_t>> hist_prev_;
  std::vector<std::uint64_t> hist_scratch_; // reused delta buffer
  std::deque<Sample> samples_; // bounded ring, oldest first
  std::uint64_t dropped_ = 0;
};

} // namespace switchml
