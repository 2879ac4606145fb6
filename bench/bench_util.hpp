// Shared helpers for the per-figure benchmark harnesses: strategy runners
// that measure ATE/s and TAT on the simulated fabric, plus tiny CLI handling
// (--fast shrinks tensors so the whole suite smoke-runs in seconds).
#pragma once

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "collectives/baseline_cluster.hpp"
#include "collectives/bounds.hpp"
#include "collectives/halving_doubling.hpp"
#include "collectives/ring.hpp"
#include "common/attribution.hpp"
#include "common/int_telemetry.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/timeline.hpp"
#include "common/tracing.hpp"
#include "core/allreduce.hpp"
#include "core/cluster.hpp"
#include "core/fault.hpp"
#include "core/profiles.hpp"
#include "framework/training_sim.hpp"
#include "scenario/scenario.hpp"

namespace switchml::bench {

inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return true;
  return false;
}

// Value of "--flag value" or "--flag=value"; empty when absent.
inline std::string arg_value(int argc, char** argv, const char* flag) {
  const std::size_t flag_len = std::strlen(flag);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0)
      return i + 1 < argc ? argv[i + 1] : std::string{};
    if (std::strncmp(argv[i], flag, flag_len) == 0 && argv[i][flag_len] == '=')
      return argv[i] + flag_len + 1;
  }
  return {};
}

// Runtime trace-category mask from `--trace-mask NAMES` (comma-separated
// category names — "switch,worker,link,transport,fault,flow" — or "all");
// `fallback` applies when the flag is absent. An unknown name aborts with the
// parser's message listing the valid categories, so a typo can't silently
// record the wrong (or no) events.
inline unsigned trace_mask_from_args(int argc, char** argv, unsigned fallback = trace::kCatAll) {
  const std::string names = arg_value(argc, argv, "--trace-mask");
  if (names.empty()) return fallback;
  try {
    return trace::parse_mask(names);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "--trace-mask: %s\n", e.what());
    std::exit(2);
  }
}

// Shared handling for the benches' `--timeline-out PREFIX` flag: each labeled
// run writes a TimelineRecorder sidecar to "<PREFIX>_<label>.jsonl" (or .csv
// when PREFIX ends in ".csv"). Empty prefix disables recording entirely.
struct TimelineRequest {
  std::string prefix;
  Time period = msec(1);

  static TimelineRequest from_args(int argc, char** argv, Time period = msec(1)) {
    TimelineRequest req{arg_value(argc, argv, "--timeline-out"), period};
    const std::string us = arg_value(argc, argv, "--timeline-period-us");
    if (!us.empty()) {
      long long parsed = 0;
      try {
        std::size_t consumed = 0;
        parsed = std::stoll(us, &consumed);
        if (consumed != us.size()) parsed = 0;
      } catch (const std::exception&) {
        parsed = 0;
      }
      if (parsed <= 0) {
        std::fprintf(stderr,
                     "--timeline-period-us: '%s' is not a positive integer microsecond "
                     "period (a period of 0 or less would never sample)\n",
                     us.c_str());
        std::exit(2);
      }
      req.period = usec(parsed);
    }
    return req;
  }
  [[nodiscard]] bool enabled() const { return !prefix.empty(); }
};

inline std::string sanitize_label(std::string label) {
  for (char& c : label)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return label;
}

inline std::string timeline_path(const TimelineRequest& req, const std::string& label) {
  const bool csv = req.prefix.size() > 4 && req.prefix.ends_with(".csv");
  std::string path = csv ? req.prefix.substr(0, req.prefix.size() - 4) : req.prefix;
  if (!label.empty()) path.append("_").append(sanitize_label(label));
  return path.append(csv ? ".csv" : ".jsonl");
}

// Collects one labeled MetricsRegistry snapshot per measured configuration
// and writes them as a JSON telemetry sidecar next to the bench's stdout
// table: {"<label>": <MetricsRegistry::Snapshot::json()>, ...}. Pass a
// pointer into the measure_* helpers to capture each run's counters.
class MetricsSidecar {
public:
  explicit MetricsSidecar(std::string path) : path_(std::move(path)) {}

  void record(const std::string& label, const MetricsRegistry& registry) {
    runs_.set(label, registry.snapshot().json());
  }

  // Returns the path written, empty on I/O failure.
  std::string write() const {
    std::ofstream out(path_);
    if (!out) return {};
    out << runs_.dump(true);
    return out ? path_ : std::string{};
  }

private:
  std::string path_;
  json::Value runs_{json::Object{}};
};

// --- machine-readable bench reports ------------------------------------------

// Schema-versioned JSON result emitted by every measured bench next to its
// stdout table, consumed by scripts/bench_baseline.sh / bench_compare.py.
// Each scalar carries its own relative tolerance so the compare tool is
// strict about sim-deterministic numbers (TATs, ATE/s, simulated-clock
// percentiles — bit-identical across runs) and lenient about host-measured
// ones (calibrated per-byte conversion costs). Wall-clock facts belong in
// info(), which is recorded for humans but never compared.
class BenchReport {
public:
  static constexpr int kSchemaVersion = 1;
  static constexpr double kSimTol = 1e-9;   // deterministic simulated values
  static constexpr double kLooseTol = 0.25; // host-measured calibrations

  // Report path: --report-out PATH when given, else "<bench>_report.json".
  BenchReport(std::string bench, int argc, char** argv)
      : bench_(std::move(bench)),
        mode_(has_flag(argc, argv, "--fast") ? "fast" : "full"),
        path_(arg_value(argc, argv, "--report-out")) {
    if (path_.empty()) path_ = bench_ + "_report.json";
  }

  void add(const std::string& name, double value, double rel_tol = kSimTol) {
    metrics_.set(name, json::Object{{"value", value}, {"rel_tol", rel_tol}});
  }
  void info(const std::string& key, const std::string& value) { info_.set(key, value); }

  // The report document. Every value keeps all its digits; a NaN or infinite
  // metric throws (it is not JSON).
  [[nodiscard]] std::string json() const {
    const json::Value doc(json::Object{{"schema_version", kSchemaVersion}, {"bench", bench_},
                                       {"mode", mode_}, {"metrics", metrics_}, {"info", info_}});
    return doc.dump(true);
  }

  // Returns the path written, empty on I/O failure.
  std::string write() const {
    std::ofstream out(path_);
    if (!out) return {};
    out << json();
    return out ? path_ : std::string{};
  }

private:
  std::string bench_, mode_, path_;
  json::Value metrics_{json::Object{}};
  json::Value info_{json::Object{}};
};

// --- critical-path time attribution ------------------------------------------

// Installs a SpanLedger over one measured run so every chunk's completion time
// is decomposed into the attribution components (DESIGN.md "Time
// attribution"). Construct BEFORE the cluster under test: the fabric registers
// its attr.* counters only when a ledger is ambient at construction, which
// keeps untouched runs' metric registries bit-identical.
class ScopedAttribution {
public:
  explicit ScopedAttribution(std::size_t record_capacity = 1u << 16)
      : ledger_(record_capacity), scope_(&ledger_) {}

  [[nodiscard]] const attr::SpanLedger& ledger() const { return ledger_; }

  // Folds the run's component totals into the report as sim-deterministic
  // metrics: "<label>.attr.<component>_ns" for all ten components, the
  // chunk count, and the conservation guard (max_residual_ns, exactly 0 —
  // the components partition each chunk's [open, close] span by
  // construction, and the recorded baselines pin that invariant).
  void report(BenchReport& report, const std::string& label) const {
    const std::string prefix = (label.empty() ? "" : label + ".") + "attr.";
    for (std::size_t c = 0; c < attr::kComponentCount; ++c) {
      const auto comp = static_cast<attr::Component>(c);
      report.add(prefix + attr::to_string(comp) + "_ns",
                 static_cast<double>(ledger_.total(comp)));
    }
    report.add(prefix + "chunks_closed", static_cast<double>(ledger_.chunks_closed()));
    report.add(prefix + "max_residual_ns", static_cast<double>(ledger_.max_residual_ns()));
  }

  // Writes the per-chunk span records (one JSON object per line) for the
  // offline extractor, scripts/critical_path.py.
  void write_jsonl(const std::string& path) const {
    if (!path.empty()) ledger_.write_jsonl(path);
  }

private:
  attr::SpanLedger ledger_;
  attr::SpanLedger::Scope scope_;
};

// Merges every registered histogram whose name ends in `suffix` (e.g.
// ".rtt_ns" across all workers or transport hosts) into one distribution.
// Empty result when nothing matches.
inline Histogram merged_histogram(const MetricsRegistry& registry, std::string_view suffix) {
  Histogram merged;
  for (const auto& [name, h] : registry.histograms())
    if (std::string_view(name).ends_with(suffix)) merged.merge(*h);
  return merged;
}

// Tensor sizes are scaled down from the paper's 100 MB default: ATE/s is
// size-independent (§5.3, verified by tests), and smaller tensors keep the
// discrete-event runs fast.
struct BenchScale {
  std::uint64_t tensor_elems; // per measured aggregation
  int repetitions;
  static BenchScale from_args(int argc, char** argv,
                              std::uint64_t full_elems = 4'000'000, int full_reps = 3) {
    if (has_flag(argc, argv, "--fast")) return {256 * 1024, 1};
    return {full_elems, full_reps};
  }
};

// --- SwitchML ---------------------------------------------------------------

struct RateResult {
  double ate_per_s = 0.0;  // aggregated tensor elements per second
  double tat_ms = 0.0;     // median TAT per aggregation
  double rtt_us = 0.0;     // worker 0's median per-packet RTT (fabric runs)
  // Tail/violin statistics derived from the registry's latency histograms
  // (0 when the protocol records none):
  double rtt_p99_us = 0.0;   // p99 per-packet RTT, merged across hosts
  double dwell_p99_us = 0.0; // p99 switch slot dwell (claim -> complete)
  double tat_p50_ms = 0.0;   // per-worker tensor-completion violin (fig 4)
  double tat_min_ms = 0.0;
  double tat_max_ms = 0.0;
};

// Fills RateResult's histogram-derived fields from the cluster registry.
// Both the SwitchML workers ("worker-N.rtt_ns") and the reliable-transport
// hosts ("hN.transport.rtt_ns") match the ".rtt_ns" suffix. Note the RTT
// samples are Karn-filtered (retransmitted slots excluded), so loss barely
// moves them; RTO stalls show up in the switch's slot-dwell histogram
// (".slot_dwell_ns") instead. Tensor completion spans only exist on SwitchML
// workers (".completion_ns").
inline void fill_tail_stats(RateResult& out, const MetricsRegistry& registry) {
  const Histogram rtts = merged_histogram(registry, ".rtt_ns");
  if (!rtts.empty()) out.rtt_p99_us = static_cast<double>(rtts.percentile(99)) / 1e3;
  const Histogram dwell = merged_histogram(registry, ".slot_dwell_ns");
  if (!dwell.empty()) out.dwell_p99_us = static_cast<double>(dwell.percentile(99)) / 1e3;
  const Histogram comps = merged_histogram(registry, ".completion_ns");
  if (!comps.empty()) {
    out.tat_p50_ms = static_cast<double>(comps.percentile(50)) / 1e6;
    out.tat_min_ms = static_cast<double>(comps.min()) / 1e6;
    out.tat_max_ms = static_cast<double>(comps.max()) / 1e6;
  }
}

// Arms a TimelineRecorder over a measured run when `req` asks for one; the
// measure_* helpers construct it before their rep loops, resume() it at the
// top of each repetition and finish_and_write() it after the last.
class ScopedTimeline {
public:
  ScopedTimeline(const TimelineRequest* req, sim::Simulation& sim, MetricsRegistry& registry,
                 std::string label)
      : req_(req), label_(std::move(label)) {
    if (req_ == nullptr || !req_->enabled()) return;
    TimelineRecorder::Config tc;
    tc.period = req_->period;
    recorder_ = std::make_unique<TimelineRecorder>(sim, registry, tc);
    recorder_->start();
  }

  void resume() {
    if (recorder_) recorder_->resume();
  }

  void finish_and_write() {
    if (!recorder_) return;
    recorder_->finish();
    recorder_->write(timeline_path(*req_, label_));
    recorder_.reset();
  }

private:
  const TimelineRequest* req_;
  std::string label_;
  std::unique_ptr<TimelineRecorder> recorder_;
};

// What one measured run records besides its RateResult: its registry
// snapshot under `label` in `sidecar`, and a timeline sidecar when `timeline`
// asks for one. The default records nothing.
struct Telemetry {
  MetricsSidecar* sidecar = nullptr;
  std::string label;
  const TimelineRequest* timeline = nullptr;
};

// The median TAT over `tat_ms`, the ATE/s it implies, the registry's tail
// statistics, and the run's sidecar snapshot.
inline RateResult rate_result(const Summary& tat_ms, const BenchScale& scale,
                              const MetricsRegistry& registry, const Telemetry& telemetry) {
  RateResult out;
  out.tat_ms = tat_ms.median();
  out.ate_per_s = static_cast<double>(scale.tensor_elems) / (out.tat_ms / 1e3);
  fill_tail_stats(out, registry);
  if (telemetry.sidecar != nullptr) telemetry.sidecar->record(telemetry.label, registry);
  return out;
}

// `scale.repetitions` timing-only reductions on one fabric built from `cfg`.
inline RateResult measure_fabric(core::FabricConfig cfg, const BenchScale& scale,
                                 const Telemetry& telemetry = {}) {
  cfg.timing_only = true;
  core::Fabric cluster(std::move(cfg));
  ScopedTimeline scoped(telemetry.timeline, cluster.simulation(), cluster.metrics(),
                        telemetry.label);

  Summary tat_ms;
  for (int r = 0; r < scale.repetitions; ++r) {
    scoped.resume();
    auto tats = cluster.reduce_timing(scale.tensor_elems);
    for (Time t : tats) tat_ms.add(to_msec(t));
  }
  scoped.finish_and_write();
  RateResult out = rate_result(tat_ms, scale, cluster.metrics(), telemetry);
  const auto& rtt = cluster.worker(0).rtt();
  if (!rtt.empty()) out.rtt_us = rtt.median();
  return out;
}

// SwitchML on a rack built from `cfg`. Callers start from
// ClusterConfig::for_rate and set the knobs under test (pool size, loss, MTU,
// wire width, NIC cost, RTO mode, transport).
inline RateResult measure_switchml(const core::ClusterConfig& cfg, const BenchScale& scale,
                                   const Telemetry& telemetry = {}) {
  return measure_fabric(cfg.fabric(), scale, telemetry);
}

// --- scenario files ----------------------------------------------------------

// What a file-driven run reports (scenario_run, fault_sweep, recovery_sweep):
// scenario::run's TATs and outcome, plus the counters read off the fabric
// after the last reduction.
struct ScenarioResult : scenario::RunResult {
  core::FaultInjector::Counters faults; // zero when the plan is empty
  // Worker links, both directions.
  std::uint64_t dropped_down = 0, dropped_burst = 0, burst_entries = 0;
  // Summed over workers.
  std::uint64_t sync_queries = 0, escalations = 0, epoch_resyncs = 0, rescues_sent = 0;
  // The largest of the workers' own p99 resync latencies.
  double resync_p99_ms = 0.0;
  // Summed over switches.
  std::uint64_t switch_restarts = 0, rescues_applied = 0;
  // INT verdicts, when the fabric runs a fault localizer.
  bool have_int = false;
  std::uint64_t int_verdicts = 0;
  std::array<std::uint64_t, inttel::FaultLocalizer::kKindCount> int_by_kind{};

  // Every worker's TAT of every rep, in ms.
  [[nodiscard]] Summary tat_ms() const {
    Summary ms;
    for (const auto& rep : tats)
      for (Time t : rep) ms.add(to_msec(t));
    return ms;
  }
  [[nodiscard]] Time tat_max() const {
    Time m = 0;
    for (const auto& rep : tats)
      for (Time t : rep) m = std::max(m, t);
    return m;
  }
};

// Runs `s` with a bench's telemetry: a timeline over every rep when
// `telemetry.timeline` asks for one, and the fabric's registry recorded in
// `telemetry.sidecar` after the last rep. The trace sink and the span ledger
// stay with the caller; a ledger ambient here makes the fabric register its
// attr.* counters. Throws what scenario::run throws.
inline ScenarioResult measure_scenario(const scenario::Scenario& s,
                                       const Telemetry& telemetry = {}) {
  ScenarioResult out;
  std::optional<ScopedTimeline> timeline;
  scenario::RunHooks hooks;
  hooks.on_built = [&](core::Fabric& f) {
    timeline.emplace(telemetry.timeline, f.simulation(), f.metrics(), telemetry.label);
  };
  hooks.on_reduction = [&](core::Fabric& f, int rep, const std::vector<Time>&) {
    if (rep + 1 < s.workload.reductions) {
      timeline->resume();
      return;
    }
    timeline->finish_and_write();
    if (telemetry.sidecar != nullptr) telemetry.sidecar->record(telemetry.label, f.metrics());
    if (const core::FaultInjector* inj = f.fault_injector()) out.faults = inj->counters();
    for (int w = 0; w < f.n_workers(); ++w) {
      net::Link& link = f.link(static_cast<std::size_t>(w));
      const net::Node& host = f.worker(w);
      const net::Node& peer = link.peer_of(host);
      for (const net::Node* end : {&host, &peer}) {
        const net::Link::Counters& c = link.counters_from(*end);
        out.dropped_down += c.dropped_down;
        out.dropped_burst += c.dropped_burst;
        out.burst_entries += c.burst_entries;
      }
      const auto& rc = f.worker(w).recovery();
      out.sync_queries += rc.sync_queries;
      out.escalations += rc.escalations;
      out.epoch_resyncs += rc.epoch_resyncs;
      out.rescues_sent += rc.rescues_sent;
      if (const Histogram& h = f.worker(w).resync_hist(); h.count() > 0)
        out.resync_p99_ms = std::max(out.resync_p99_ms, static_cast<double>(h.percentile(99)) / 1e6);
    }
    for (std::size_t i = 0; i < f.n_switches(); ++i) {
      out.switch_restarts += f.switch_at(i).counters().restarts;
      out.rescues_applied += f.switch_at(i).counters().rescues_applied;
    }
    if (const inttel::FaultLocalizer* loc = f.int_localizer()) {
      out.have_int = true;
      out.int_verdicts = loc->verdicts().size();
      for (std::size_t k = 0; k < out.int_by_kind.size(); ++k)
        out.int_by_kind[k] = loc->count(static_cast<inttel::FaultLocalizer::Verdict::Kind>(k));
    }
  };
  static_cast<scenario::RunResult&>(out) = scenario::run(s, hooks);
  return out;
}

// The committed scenario files a sweep runs (scenarios/, DESIGN.md §8). Each
// file defines one run at the --fast scale; a sweep patches only its tensor
// size and the fault times it derives from a measured reference TAT.
struct SweepFiles {
  std::string dir;
  BenchScale scale;
  bool fast = false;

  // DIR/FILE at the bench's tensor size. A file that does not load ends the
  // bench (exit 1) with the loader's message.
  [[nodiscard]] scenario::Scenario load(const std::string& file) const {
    try {
      scenario::Scenario s = scenario::load_file(dir + "/" + file);
      s.workload.tensor_elems = scale.tensor_elems;
      return s;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s/%s: %s\n", dir.c_str(), file.c_str(), e.what());
      std::exit(1);
    }
  }

  // Sets the fault time `at` that FILE holds to `derived`. At --fast the file
  // must hold that time already; if it does not, the file and the sweep
  // describe different runs, and the bench exits 1 naming both times.
  void derive(const std::string& file, Time& at, Time derived) const {
    if (fast && at != derived) {
      std::fprintf(stderr, "%s/%s: the file's fault time is %lld ns, the sweep derives %lld ns\n",
                   dir.c_str(), file.c_str(), static_cast<long long>(at),
                   static_cast<long long>(derived));
      std::exit(1);
    }
    at = derived;
  }
};

// --- baselines ---------------------------------------------------------------

enum class BaselineKind { GlooRing, NcclRing, GlooRdmaRing, HalvingDoubling,
                          DedicatedPs, ColocatedPs, DedicatedPsMtu };

inline const char* baseline_name(BaselineKind k) {
  switch (k) {
    case BaselineKind::GlooRing: return "Gloo";
    case BaselineKind::NcclRing: return "NCCL";
    case BaselineKind::GlooRdmaRing: return "Gloo-RDMA";
    case BaselineKind::HalvingDoubling: return "HalvDoub";
    case BaselineKind::DedicatedPs: return "Dedicated PS";
    case BaselineKind::ColocatedPs: return "Colocated PS";
    case BaselineKind::DedicatedPsMtu: return "Dedicated PS (MTU)";
  }
  return "?";
}

inline RateResult measure_baseline(BaselineKind kind, BitsPerSecond rate, int workers,
                                   const BenchScale& scale, double loss = 0.0,
                                   const Telemetry& telemetry = {}) {
  core::BaselineProfile profile;
  switch (kind) {
    case BaselineKind::GlooRing:
    case BaselineKind::HalvingDoubling: profile = core::gloo_tcp(rate); break;
    case BaselineKind::NcclRing: profile = core::nccl_tcp(rate); break;
    case BaselineKind::GlooRdmaRing: profile = core::gloo_rdma(rate); break;
    case BaselineKind::DedicatedPs:
    case BaselineKind::ColocatedPs:
    case BaselineKind::DedicatedPsMtu: {
      // The PS baselines run the paper's DPDK streaming program (Algorithm 1
      // in host software, SwitchML packet format) on a streaming-PS fabric,
      // so they use the SwitchML worker protocol, not the bulk reliable
      // transport.
      core::FabricConfig cfg(core::ClusterConfig::for_rate(rate),
                             core::StreamingPsSpec{workers, kind == BaselineKind::ColocatedPs
                                                                ? core::PsPlacement::Colocated
                                                                : core::PsPlacement::Dedicated});
      cfg.loss_prob = loss;
      cfg.nic = core::ps_host_nic(rate);
      if (kind == BaselineKind::DedicatedPsMtu) cfg.elems_per_packet = net::kMtuElemsPerPacket;
      return measure_fabric(std::move(cfg), scale, telemetry);
    }
  }

  collectives::BaselineClusterConfig cfg;
  cfg.n_hosts = workers;
  cfg.link_rate = rate;
  cfg.loss_prob = loss;
  cfg.nic = profile.nic;
  collectives::BaselineCluster cluster(cfg);
  ScopedTimeline scoped(telemetry.timeline, cluster.simulation(), cluster.metrics(),
                        telemetry.label);
  const std::int64_t bytes = static_cast<std::int64_t>(scale.tensor_elems) * 4;

  Summary tat_ms;
  for (int r = 0; r < scale.repetitions; ++r) {
    scoped.resume();
    const Time t =
        kind == BaselineKind::HalvingDoubling
            ? collectives::HalvingDoublingAllReduce(cluster, profile.transport).run(bytes)
            : collectives::RingAllReduce(cluster, profile.transport).run(bytes);
    tat_ms.add(to_msec(t));
  }
  scoped.finish_and_write();
  return rate_result(tat_ms, scale, cluster.metrics(), telemetry);
}

// --- framework training sims -------------------------------------------------

// Routes a TrainingSimConfig's observability hooks into the shared bench
// plumbing: one sidecar snapshot per labeled run, plus a timeline sidecar
// when --timeline-out asked for one (fig3/table1 run the framework sims
// instead of the measure_* helpers).
inline void attach_sim_telemetry(framework::TrainingSimConfig& cfg, const Telemetry& telemetry) {
  if (telemetry.timeline != nullptr && telemetry.timeline->enabled()) {
    cfg.timeline_path = timeline_path(*telemetry.timeline, telemetry.label);
    cfg.timeline_period = telemetry.timeline->period;
  }
  if (telemetry.sidecar != nullptr)
    cfg.on_metrics = [sidecar = telemetry.sidecar, label = telemetry.label](
                         const MetricsRegistry& m) { sidecar->record(label, m); };
}

inline std::string mega(double v) { return Table::num(v / 1e6, 1); }

} // namespace switchml::bench
