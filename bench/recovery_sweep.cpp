// Recovery sweep: cost of the switch-restart recovery protocol and of the
// graceful degradation to the streaming-PS fallback, on the rack fabric
// (8 workers, 10 Gbps) plus one hierarchy kill point.
//
//   1. Restart under burst loss, restart time swept across {25,50,75}% of
//      the burst-only TAT: the epoch/resync + sync-query/rescue escalation
//      must converge every placement, including restarts that race in-flight
//      result losses. Reported: TAT inflation, rescues applied, epoch
//      resyncs, sync queries, and worker resync-latency percentiles.
//   2. Switch kill at 50% of the clean TAT on the rack and at the hierarchy
//      root: workers burn the dead_after retry budget, declare the switch
//      dead, and the job replays the remaining chunks on the streaming-PS
//      fallback. Reported: degraded TAT and its honest inflation (retry
//      burn + reprovisioning + PS replay).
//
// Every run is a committed scenario file (scenarios/recovery_*.json and
// fault_clean.json), run by measure_scenario on a fresh fabric (fault times
// are absolute). --fast runs the files as committed; the full scale reduces
// 2,000,000 elements and derives each restart and kill time from its own
// measured reference TAT (at --fast the derived times must equal the
// files'). All reported values are sim-deterministic (kSimTol).
#include <cstdio>
#include <string>
#include <utility>

#include "bench_util.hpp"

using namespace switchml;
using namespace switchml::bench;

int main(int argc, char** argv) {
  const BenchScale scale = BenchScale::from_args(argc, argv, 2'000'000, 1);
  const SweepFiles files{SWITCHML_SCENARIO_DIR, scale, has_flag(argc, argv, "--fast")};

  std::printf("=== Recovery sweep: restart resync + fallback degradation "
              "(10 Gbps, 8 workers) ===\n");
  MetricsSidecar sidecar("recovery_sweep_metrics.json");
  BenchReport report("recovery_sweep", argc, argv);

  // The clean, restart-50pct, and kill-rack runs carry the per-chunk span
  // ledger; kill-rack is the interesting one — its attr block shows the
  // recovery/fallback components (retry burn, PS replay) that the honest
  // inflation number folds into one scalar. Each report also pins the
  // conservation invariant (max_residual_ns == 0) in the recorded baseline.
  // The 25% and 75% restarts carry a ledger as well, so their sidecar
  // entries hold the attr.* counters too.
  double clean_max_ms = 0.0;
  {
    ScopedAttribution attrib;
    clean_max_ms =
        measure_scenario(files.load("fault_clean.json"), {&sidecar, "clean"}).tat_ms().max();
    attrib.report(report, "clean");
  }
  report.add("clean.tat_max_ms", clean_max_ms);
  std::printf("clean TAT: %s\n\n", format_duration(static_cast<Time>(clean_max_ms * 1e6)).c_str());
  const Time clean_max = static_cast<Time>(clean_max_ms * 1e6);

  // --- 1. restart placement under burst loss -------------------------------
  // Bursty loss keeps results in flight at risk, so some restart placements
  // race a concurrent result loss — the case only the sync-query/rescue
  // escalation can converge. The burst-only run sets the timescale (the
  // lossy run is RTO-dominated, far longer than the clean TAT); restarts
  // are then swept across fractions of THAT run so the placements actually
  // differ, and inflation is reported against the burst-only reference to
  // isolate the restart's own cost.
  const double burst_max_ms =
      measure_scenario(files.load("recovery_burst_only.json"), {&sidecar, "burst-only"})
          .tat_ms()
          .max();
  report.add("burst-only.tat_max_ms", burst_max_ms);
  const Time burst_max = static_cast<Time>(burst_max_ms * 1e6);
  std::printf("burst-only TAT: %s (%.2fx clean)\n\n", format_duration(burst_max).c_str(),
              burst_max_ms / clean_max_ms);

  Table restarts({"restart at", "TAT (max)", "vs burst-only", "rescues", "resyncs",
                  "sync queries", "resync p99", "fallback"});
  for (const auto& [file, frac] : {std::pair{"recovery_restart_25pct.json", 0.25},
                                   std::pair{"recovery_restart_50pct.json", 0.50},
                                   std::pair{"recovery_restart_75pct.json", 0.75}}) {
    scenario::Scenario s = files.load(file);
    files.derive(file, s.fabric.faults.switch_restarts.at(0).at,
                 static_cast<Time>(frac * static_cast<double>(burst_max)));
    const std::string tag = "restart-" + Table::num(frac * 100, 0) + "pct";
    ScenarioResult r;
    {
      ScopedAttribution attrib;
      r = measure_scenario(s, {&sidecar, tag});
      if (frac == 0.50) attrib.report(report, tag);
    }
    const double tat_max_ms = r.tat_ms().max();
    const double inflation = tat_max_ms / burst_max_ms;
    restarts.add_row({Table::num(frac * 100, 0) + "% of lossy TAT",
                      format_duration(static_cast<Time>(tat_max_ms * 1e6)),
                      Table::num(inflation, 2) + "x",
                      Table::num(static_cast<double>(r.rescues_applied), 0),
                      Table::num(static_cast<double>(r.epoch_resyncs), 0),
                      Table::num(static_cast<double>(r.sync_queries), 0),
                      format_duration(static_cast<Time>(r.resync_p99_ms * 1e6)),
                      r.fallback_engaged ? "engaged" : "no"});
    report.add(tag + ".tat_max_ms", tat_max_ms);
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
    scenario::Scenario s = files.load("recovery_kill_rack.json");
    files.derive("recovery_kill_rack.json", s.fabric.faults.switch_kills.at(0).at, clean_max / 2);
    ScenarioResult r;
    {
      ScopedAttribution attrib;
      r = measure_scenario(s, {&sidecar, "kill-rack"});
      attrib.report(report, "kill-rack");
      attrib.write_jsonl("recovery_sweep_attribution.jsonl");
    }
    const double tat_max_ms = r.tat_ms().max();
    const double inflation = tat_max_ms / clean_max_ms;
    kills.add_row({"rack (8 workers)", format_duration(static_cast<Time>(tat_max_ms * 1e6)),
                   Table::num(inflation, 2) + "x", r.fallback_engaged ? "engaged" : "NO"});
    report.add("kill-rack.tat_max_ms", tat_max_ms);
    report.add("kill-rack.inflation", inflation);
    report.add("kill-rack.fallbacks", r.fallback_engaged ? 1.0 : 0.0);
  }
  {
    // The reference is the same 2x4 hierarchy without its kill.
    scenario::Scenario s = files.load("recovery_kill_root.json");
    scenario::Scenario reference = s;
    reference.fabric.faults.switch_kills.clear();
    const Time clean_h_max = measure_scenario(reference).tat_max();
    files.derive("recovery_kill_root.json", s.fabric.faults.switch_kills.at(0).at,
                 clean_h_max / 2);
    const ScenarioResult r = measure_scenario(s, {&sidecar, "kill-hierarchy-root"});
    const Time h_max = r.tat_max();
    const double inflation = static_cast<double>(h_max) / static_cast<double>(clean_h_max);
    kills.add_row({"hierarchy root (2x4)", format_duration(h_max), Table::num(inflation, 2) + "x",
                   r.fallback_engaged ? "engaged" : "NO"});
    report.add("kill-root.tat_max_ms", to_msec(h_max));
    report.add("kill-root.inflation", inflation);
    report.add("kill-root.fallbacks", r.fallback_engaged ? 1.0 : 0.0);
  }
  std::printf("switch kill at 50%% of clean TAT:\n%s\n", kills.to_string().c_str());

  const std::string written = sidecar.write();
  if (!written.empty()) std::printf("telemetry sidecar: %s\n", written.c_str());
  const std::string rep = report.write();
  if (!rep.empty()) std::printf("bench report: %s\n", rep.c_str());
  return 0;
}
