// Cross-layer telemetry registry.
//
// Every component with counters (workers, aggregation switches, links,
// reliable-transport hosts) registers named samplers at construction; a
// snapshot() walks them and produces a uniform, queryable view that the
// benches export as a JSON sidecar and the tests assert against.
//
// Registration is pull-based: a sampler is a closure reading the component's
// live counter, so registering costs one closure and snapshotting costs one
// read — nothing is double-counted on the hot path.
//
// Components discover the registry through an ambient (scoped) pointer so
// that construction-time registration needs no constructor-signature churn:
// a topology builder installs `MetricsRegistry::Scope scope(&registry);`
// while it wires nodes and links, and every component constructed inside the
// scope registers itself. Components constructed outside any scope register
// nowhere and pay nothing.
//
// Lifetime: samplers capture raw component pointers, so the registry must not
// be snapshot after a registered component is destroyed. The cluster/fabric
// classes own both and destroy them together, which makes this automatic.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/histogram.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"

namespace switchml {

class MetricsRegistry {
public:
  using Sampler = std::function<std::uint64_t()>;
  using GaugeSampler = std::function<std::int64_t()>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registers a monotonically increasing counter. Names use dotted paths,
  // "<component>.<field>", e.g. "worker-0.retransmissions". Names are unique
  // across counters, gauges, and summaries; a duplicate registration throws
  // std::invalid_argument instead of silently shadowing the earlier series.
  void add_counter(std::string name, Sampler sample);

  // Registers an instantaneous level (queue depth, in-flight slots, current
  // RTO). Timeline sampling reports gauges as-is, counters as deltas.
  void add_gauge(std::string name, GaugeSampler sample);

  // Registers a distribution (e.g. a worker's per-packet RTT samples). The
  // Summary must outlive the registry's last snapshot().
  void add_summary(std::string name, const Summary* summary);

  // Registers a fixed-memory latency histogram (hot-path spans: packet RTT,
  // link queue wait, slot dwell). The Histogram must outlive the registry's
  // last snapshot().
  void add_histogram(std::string name, const Histogram* histogram);

  struct SummaryStats {
    std::size_t count = 0;
    double min = 0.0, median = 0.0, max = 0.0, mean = 0.0;
  };

  struct HistogramStats {
    std::uint64_t count = 0, overflow = 0;
    std::int64_t min = 0, max = 0, p50 = 0, p90 = 0, p99 = 0, p999 = 0;
    double mean = 0.0;
  };

  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;    // sorted by name
    std::vector<std::pair<std::string, std::int64_t>> gauges;       // sorted by name
    std::vector<std::pair<std::string, SummaryStats>> summaries;    // sorted by name
    std::vector<std::pair<std::string, HistogramStats>> histograms; // sorted by name

    // Exact-name lookup; throws std::out_of_range if absent.
    [[nodiscard]] std::uint64_t counter(std::string_view name) const;
    [[nodiscard]] bool has_counter(std::string_view name) const;
    [[nodiscard]] std::int64_t gauge(std::string_view name) const;
    [[nodiscard]] bool has_gauge(std::string_view name) const;
    [[nodiscard]] const HistogramStats& histogram(std::string_view name) const;
    [[nodiscard]] bool has_histogram(std::string_view name) const;
    // Sum of every counter whose name ends with `suffix` (e.g.
    // ".retransmissions" totals across all workers).
    [[nodiscard]] std::uint64_t sum(std::string_view suffix) const;

    // {"counters": {...}, "gauges": {...}, "summaries": {...},
    //  "histograms": {"name": {"count":..,"p50":..,...}}}
    [[nodiscard]] json::Value json() const;
    // Aligned two-column table for terminal output.
    [[nodiscard]] std::string table() const;
  };

  [[nodiscard]] Snapshot snapshot() const;
  [[nodiscard]] std::size_t size() const {
    return counters_.size() + gauges_.size() + summaries_.size() + histograms_.size();
  }

  // Registered samplers, in registration order. The TimelineRecorder walks
  // these directly each tick so that per-tick sampling does not pay
  // Snapshot's sort + string copies.
  [[nodiscard]] const std::vector<std::pair<std::string, Sampler>>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, GaugeSampler>>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, const Histogram*>>& histograms() const {
    return histograms_;
  }

  // --- ambient registry ------------------------------------------------------
  // The registry components constructed right now should register into, or
  // nullptr when none is installed.
  [[nodiscard]] static MetricsRegistry* current();

  // RAII installer; nests (the previous registry is restored on destruction).
  class Scope {
  public:
    explicit Scope(MetricsRegistry* registry);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    MetricsRegistry* prev_;
  };

private:
  // Records `name`, throwing if any kind already holds it.
  void claim_name(const std::string& name);

  std::unordered_set<std::string> names_; // every series name, of every kind
  std::vector<std::pair<std::string, Sampler>> counters_;
  std::vector<std::pair<std::string, GaugeSampler>> gauges_;
  std::vector<std::pair<std::string, const Summary*>> summaries_;
  std::vector<std::pair<std::string, const Histogram*>> histograms_;
};

} // namespace switchml
