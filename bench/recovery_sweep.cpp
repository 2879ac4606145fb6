// Recovery sweep: cost of the switch-restart recovery protocol and of the
// graceful degradation to the streaming-PS fallback, on the rack fabric
// (8 workers, 10 Gbps) plus one hierarchy kill point.
//
//   1. Restart under burst loss, restart time swept across {25,50,75}% of
//      the clean TAT: the epoch/resync + sync-query/rescue escalation must
//      converge every placement, including restarts that race in-flight
//      result losses. Reported: TAT inflation, rescues applied, epoch
//      resyncs, sync queries, and worker resync-latency percentiles.
//   2. Switch kill at 50% of the clean TAT on the rack and at the hierarchy
//      root: workers burn the dead_after retry budget, declare the switch
//      dead, and the job replays the remaining chunks on the streaming-PS
//      fallback. Reported: degraded TAT and its honest inflation (retry
//      burn + reprovisioning + PS replay).
//
// Each faulted run builds a fresh fabric (FaultPlan times are absolute).
// All reported values are sim-deterministic (kSimTol).
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "core/fault.hpp"

using namespace switchml;
using namespace switchml::bench;

namespace {

struct RecoveryResult {
  double tat_max_ms = 0.0;
  std::uint64_t rescues_applied = 0;
  std::uint64_t epoch_resyncs = 0;
  std::uint64_t sync_queries = 0;
  std::uint64_t fallbacks = 0;
  double resync_p50_ms = 0.0; // worker-wise max of the per-worker percentile
  double resync_p99_ms = 0.0;
};

RecoveryResult measure_rack(BitsPerSecond rate, int workers, std::uint64_t elems,
                            const core::FaultPlan& plan, MetricsSidecar* sidecar,
                            const std::string& label) {
  core::ClusterConfig cfg = core::ClusterConfig::for_rate(rate, workers);
  cfg.timing_only = true;
  cfg.faults = plan;
  core::Fabric cluster(cfg.fabric());
  const auto tats = cluster.reduce_timing(elems);

  RecoveryResult out;
  Time max_tat = 0;
  for (Time t : tats) max_tat = std::max(max_tat, t);
  out.tat_max_ms = to_msec(max_tat);
  out.rescues_applied = cluster.root().counters().rescues_applied;
  for (int i = 0; i < workers; ++i) {
    const auto& r = cluster.worker(i).recovery();
    out.epoch_resyncs += r.epoch_resyncs;
    out.sync_queries += r.sync_queries;
    const auto& h = cluster.worker(i).resync_hist();
    if (h.count() > 0) {
      out.resync_p50_ms = std::max(out.resync_p50_ms, static_cast<double>(h.percentile(50)) / 1e6);
      out.resync_p99_ms = std::max(out.resync_p99_ms, static_cast<double>(h.percentile(99)) / 1e6);
    }
  }
  out.fallbacks = cluster.fallback_engaged() ? 1 : 0;
  if (sidecar != nullptr) sidecar->record(label, cluster.metrics());
  return out;
}

} // namespace

int main(int argc, char** argv) {
  const BenchScale scale = BenchScale::from_args(argc, argv, 2'000'000, 1);
  const BitsPerSecond rate = gbps(10);
  const int workers = 8;

  std::printf("=== Recovery sweep: restart resync + fallback degradation "
              "(10 Gbps, %d workers) ===\n",
              workers);
  MetricsSidecar sidecar("recovery_sweep_metrics.json");
  BenchReport report("recovery_sweep", argc, argv);

  // The clean, restart-50pct, and kill-rack runs carry the per-chunk span
  // ledger; kill-rack is the interesting one — its attr block shows the
  // recovery/fallback components (retry burn, PS replay) that the honest
  // inflation number folds into one scalar. Each report also pins the
  // conservation invariant (max_residual_ns == 0) in the recorded baseline.
  RecoveryResult clean;
  {
    ScopedAttribution attrib;
    clean = measure_rack(rate, workers, scale.tensor_elems, {}, &sidecar, "clean");
    attrib.report(report, "clean");
  }
  report.add("clean.tat_max_ms", clean.tat_max_ms);
  std::printf("clean TAT: %s\n\n",
              format_duration(static_cast<Time>(clean.tat_max_ms * 1e6)).c_str());
  const Time clean_max = static_cast<Time>(clean.tat_max_ms * 1e6);

  // --- 1. restart placement under burst loss -------------------------------
  // Bursty loss keeps results in flight at risk, so some restart placements
  // race a concurrent result loss — the case only the sync-query/rescue
  // escalation can converge. The burst-only run sets the timescale (the
  // lossy run is RTO-dominated, far longer than the clean TAT); restarts
  // are then swept across fractions of THAT run so the placements actually
  // differ, and inflation is reported against the burst-only reference to
  // isolate the restart's own cost.
  net::BurstLossConfig ge;
  ge.p_enter = 0.005;
  ge.p_exit = 0.25;
  ge.loss_bad = 0.5;
  core::FaultPlan burst_plan;
  burst_plan.bursts.push_back({-1, ge}); // every link
  const RecoveryResult burst_only =
      measure_rack(rate, workers, scale.tensor_elems, burst_plan, &sidecar, "burst-only");
  report.add("burst-only.tat_max_ms", burst_only.tat_max_ms);
  const Time burst_max = static_cast<Time>(burst_only.tat_max_ms * 1e6);
  std::printf("burst-only TAT: %s (%.2fx clean)\n\n",
              format_duration(burst_max).c_str(), burst_only.tat_max_ms / clean.tat_max_ms);

  Table restarts({"restart at", "TAT (max)", "vs burst-only", "rescues", "resyncs",
                  "sync queries", "resync p99", "fallback"});
  for (double frac : {0.25, 0.50, 0.75}) {
    core::FaultPlan plan = burst_plan;
    plan.switch_restarts.push_back({0, static_cast<Time>(frac * static_cast<double>(burst_max))});
    const std::string tag = "restart-" + Table::num(frac * 100, 0) + "pct";
    RecoveryResult r;
    {
      ScopedAttribution attrib;
      r = measure_rack(rate, workers, scale.tensor_elems, plan, &sidecar, tag);
      if (frac == 0.50) attrib.report(report, tag);
    }
    const double inflation = r.tat_max_ms / burst_only.tat_max_ms;
    restarts.add_row({Table::num(frac * 100, 0) + "% of lossy TAT",
                      format_duration(static_cast<Time>(r.tat_max_ms * 1e6)),
                      Table::num(inflation, 2) + "x",
                      Table::num(static_cast<double>(r.rescues_applied), 0),
                      Table::num(static_cast<double>(r.epoch_resyncs), 0),
                      Table::num(static_cast<double>(r.sync_queries), 0),
                      format_duration(static_cast<Time>(r.resync_p99_ms * 1e6)),
                      r.fallbacks ? "engaged" : "no"});
    report.add(tag + ".tat_max_ms", r.tat_max_ms);
    report.add(tag + ".inflation", inflation);
    report.add(tag + ".epoch_resyncs", static_cast<double>(r.epoch_resyncs));
    report.add(tag + ".sync_queries", static_cast<double>(r.sync_queries));
    report.add(tag + ".resync_p99_ms", r.resync_p99_ms);
  }
  std::printf("switch restart under Gilbert-Elliott burst loss (every link):\n%s\n",
              restarts.to_string().c_str());

  // --- 2. kill -> fallback degradation --------------------------------------
  // The kill lands at 50% of the clean TAT; the degraded TAT then pays the
  // backed-off dead_after retry burn, the reprovisioning delay, and the
  // streaming-PS replay of the remaining chunks.
  Table kills({"fabric", "TAT (max)", "inflation", "fallback"});
  {
    core::FaultPlan plan;
    plan.switch_kills.push_back({0, clean_max / 2});
    RecoveryResult r;
    {
      ScopedAttribution attrib;
      r = measure_rack(rate, workers, scale.tensor_elems, plan, &sidecar, "kill-rack");
      attrib.report(report, "kill-rack");
      attrib.write_jsonl("recovery_sweep_attribution.jsonl");
    }
    const double inflation = r.tat_max_ms / clean.tat_max_ms;
    kills.add_row({"rack (8 workers)", format_duration(static_cast<Time>(r.tat_max_ms * 1e6)),
                   Table::num(inflation, 2) + "x", r.fallbacks ? "engaged" : "NO"});
    report.add("kill-rack.tat_max_ms", r.tat_max_ms);
    report.add("kill-rack.inflation", inflation);
    report.add("kill-rack.fallbacks", static_cast<double>(r.fallbacks));
  }
  {
    core::FabricConfig cfg;
    cfg.topology = core::HierarchySpec{.racks = 2, .workers_per_rack = 4};
    cfg.timing_only = true;
    core::Fabric clean_h(cfg);
    const auto clean_tats = clean_h.reduce_timing(scale.tensor_elems);
    const Time clean_h_max = *std::max_element(clean_tats.begin(), clean_tats.end());

    cfg.faults.switch_kills.push_back({0, clean_h_max / 2});
    core::Fabric cluster(cfg);
    const auto tats = cluster.reduce_timing(scale.tensor_elems);
    const Time h_max = *std::max_element(tats.begin(), tats.end());
    const double inflation = static_cast<double>(h_max) / static_cast<double>(clean_h_max);
    const bool engaged = cluster.fallback_engaged();
    kills.add_row({"hierarchy root (2x4)", format_duration(h_max),
                   Table::num(inflation, 2) + "x", engaged ? "engaged" : "NO"});
    sidecar.record("kill-hierarchy-root", cluster.metrics());
    report.add("kill-root.tat_max_ms", to_msec(h_max));
    report.add("kill-root.inflation", inflation);
    report.add("kill-root.fallbacks", engaged ? 1.0 : 0.0);
  }
  std::printf("switch kill at 50%% of clean TAT:\n%s\n", kills.to_string().c_str());

  const std::string written = sidecar.write();
  if (!written.empty()) std::printf("telemetry sidecar: %s\n", written.c_str());
  const std::string rep = report.write();
  if (!rep.empty()) std::printf("bench report: %s\n", rep.c_str());
  return 0;
}
