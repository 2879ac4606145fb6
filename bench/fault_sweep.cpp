// Fault sweep: TAT inflation under the FaultInjector's four fault classes,
// on the rack fabric (8 workers, 10 Gbps) plus one hierarchy failover point.
//
//   1. Stragglers: one worker's NIC slowed 4x/16x/64x. SwitchML is
//      self-clocked (§6), so everyone drags to the straggler's pace but
//      inflation stays bounded by the slowdown factor itself.
//   2. Link flaps: one worker's link cycles down at 5/10/20% duty. Every
//      down window costs ~1 RTO of stall for the packets it ate, so
//      inflation tracks duty cycle times the RTO/period ratio — bounded,
//      never a livelock.
//   3. Burst loss: Gilbert-Elliott bursts vs a Bernoulli process matched to
//      the same average rate. Bursts stall many slots of one worker at
//      once, so the same average loss costs more than independent drops.
//   4. Failover: a leaf switch of a 2-rack hierarchy restarts mid-reduction
//      (pool + bitmaps + shadow copies wiped); workers re-drive the wiped
//      slots via RTO retransmission.
//
// Every run is a committed scenario file (scenarios/fault_*.json), run by
// measure_scenario on a fresh fabric: fault times are absolute sim time, so
// one reduction per fabric keeps plans meaningful. --fast runs the files as
// committed; the full scale reduces 2,000,000 elements and derives the
// hierarchy restart time from its own measured TAT (at --fast the derived
// time must equal the file's). All reported values are sim-deterministic
// (kSimTol).
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "common/tracing.hpp"

using namespace switchml;
using namespace switchml::bench;

int main(int argc, char** argv) {
  const BenchScale scale = BenchScale::from_args(argc, argv, 2'000'000, 1);
  const bool fast = has_flag(argc, argv, "--fast");
  const SweepFiles files{SWITCHML_SCENARIO_DIR, scale, fast};

  std::printf("=== Fault sweep: TAT inflation under injected faults (10 Gbps, 8 workers) ===\n");
  MetricsSidecar sidecar("fault_sweep_metrics.json");
  const TimelineRequest timeline_req = TimelineRequest::from_args(argc, argv, msec(1));
  BenchReport report("fault_sweep", argc, argv);
  // One run's sidecar entry and timeline, under `label`.
  const auto telemetry = [&](const std::string& label) {
    return Telemetry{&sidecar, label, &timeline_req};
  };

  // Perfetto export of every fault event across all runs. The default runtime
  // mask keeps only kCatFault (link_down/up, straggler_on/off, burst_begin,
  // switch_restart): with all categories on, regular traffic would fill the
  // buffer long before the later fault edges fire. `--trace-mask NAMES`
  // overrides it (e.g. --trace-mask fault,flow to add per-chunk flow arrows).
  auto sink = std::make_unique<trace::TraceSink>(
      fast ? (1u << 16) : (1u << 20), trace_mask_from_args(argc, argv, trace::kCatFault));
  trace::TraceSink::Scope trace_scope(sink.get());

  // The clean and Gilbert-Elliott runs carry the per-chunk span ledger; the
  // report's attr.* blocks decompose completion time (DESIGN.md "Time
  // attribution") and pin max_residual_ns == 0 in the recorded baseline.
  ScenarioResult clean;
  {
    ScopedAttribution attrib;
    clean = measure_scenario(files.load("fault_clean.json"), telemetry("clean"));
    attrib.report(report, "clean");
  }
  const Summary clean_ms = clean.tat_ms();
  report.add("clean.tat_ms", clean_ms.median());
  report.add("clean.tat_max_ms", clean_ms.max());
  std::printf("clean TAT: %s (max %s)\n\n",
              format_duration(static_cast<Time>(clean_ms.median() * 1e6)).c_str(),
              format_duration(static_cast<Time>(clean_ms.max() * 1e6)).c_str());

  // --- 1. straggler severity sweep -----------------------------------------
  // The 10G NIC profile leaves the 4 cores ~8x headroom over the wire
  // (36 ns/packet/direction vs a 576 ns per-core packet interval), so
  // inflation has a knee at 8x and grows ~f/8 past it — the fabric absorbs
  // moderate stragglers entirely.
  Table stragglers({"straggler", "TAT (max)", "inflation", "min/max TAT"});
  for (const char* file :
       {"fault_straggler_4x.json", "fault_straggler_16x.json", "fault_straggler_64x.json"}) {
    const scenario::Scenario s = files.load(file);
    const std::string factor = Table::num(s.fabric.faults.stragglers.at(0).factor, 0);
    const std::string tag = "straggler-" + factor + "x";
    const ScenarioResult r = measure_scenario(s, telemetry(tag));
    const Summary ms = r.tat_ms();
    const double inflation = ms.max() / clean_ms.max();
    // Self-clocking: the fast workers finish within ~an RTT of the laggard.
    stragglers.add_row({factor + "x slower NIC", format_duration(static_cast<Time>(ms.max() * 1e6)),
                        Table::num(inflation, 2) + "x", Table::num(ms.min() / ms.max(), 3)});
    report.add(tag + ".tat_max_ms", ms.max());
    report.add(tag + ".inflation", inflation);
    report.add(tag + ".straggler_windows", static_cast<double>(r.faults.straggler_windows));
  }
  std::printf("one slow worker (worker 0, whole run):\n%s\n", stragglers.to_string().c_str());

  // --- 2. link-flap sweeps ---------------------------------------------------
  // Worker 0's link cycles down for duty*period out of every period. The
  // 700 us period deliberately does not divide the 1 ms RTO, so
  // retransmissions cannot resonate with the down windows. Each row is one
  // file; the 700 us point of the period sweep is the 10% duty file again.
  const auto flap_row = [&](Table& table, const std::string& tag, const std::string& swept,
                            const scenario::Scenario& s, bool report_killed) {
    const ScenarioResult r = measure_scenario(s, telemetry(tag));
    const double tat_max_ms = r.tat_ms().max();
    const double inflation = tat_max_ms / clean_ms.max();
    table.add_row({swept, format_duration(static_cast<Time>(tat_max_ms * 1e6)),
                   Table::num(inflation, 2) + "x",
                   Table::num(static_cast<double>(r.faults.flaps_applied), 0),
                   Table::num(static_cast<double>(r.dropped_down), 0)});
    report.add(tag + ".tat_max_ms", tat_max_ms);
    report.add(tag + ".inflation", inflation);
    report.add(tag + ".flaps_applied", static_cast<double>(r.faults.flaps_applied));
    if (report_killed) report.add(tag + ".dropped_down", static_cast<double>(r.dropped_down));
  };
  Table flaps({"flap duty", "TAT (max)", "inflation", "flaps", "pkts killed"});
  for (const char* file : {"fault_flap_5pct.json", "fault_flap_10pct.json", "fault_flap_20pct.json"}) {
    const scenario::Scenario s = files.load(file);
    const std::string duty = Table::num(s.fabric.faults.flap_cycles.at(0).duty_down * 100, 0);
    flap_row(flaps, "flap-" + duty + "pct", duty + "%", s, true);
  }
  std::printf("link 0 flapping (700 us period, 1 ms RTO):\n%s"
              "(duty-insensitive by design: each down EDGE kills the in-flight window and\n"
              " costs ~1 RTO of stall, during which no new traffic enters later down time —\n"
              " so inflation tracks flap frequency, swept below, not duty.)\n\n",
              flaps.to_string().c_str());

  Table periods({"flap period", "TAT (max)", "inflation", "flaps", "pkts killed"});
  for (const char* file :
       {"fault_flap_period_350us.json", "fault_flap_10pct.json", "fault_flap_period_1400us.json"}) {
    const scenario::Scenario s = files.load(file);
    const Time period = s.fabric.faults.flap_cycles.at(0).period;
    flap_row(periods, "flap-period-" + Table::num(to_usec(period), 0) + "us",
             format_duration(period), s, false);
  }
  std::printf("link 0 flapping at 10%% duty, period swept:\n%s\n", periods.to_string().c_str());

  // --- 3. burstiness at matched average loss --------------------------------
  // Gilbert-Elliott with p_enter=0.002, p_exit=0.1, loss_bad=0.25 has
  // stationary loss 0.25 * 0.002 / 0.102 ~= 0.49% — compared against a
  // Bernoulli process at that rate to isolate the cost of burstiness itself.
  ScenarioResult ge;
  {
    ScopedAttribution attrib;
    ge = measure_scenario(files.load("fault_gilbert_elliott.json"), telemetry("gilbert-elliott"));
    attrib.report(report, "gilbert-elliott");
    attrib.write_jsonl("fault_sweep_attribution.jsonl");
  }
  const scenario::Scenario bern_s = files.load("fault_bernoulli_matched.json");
  const double bern_ms = measure_scenario(bern_s, telemetry("bernoulli-matched")).tat_ms().median();
  const double ge_ms = ge.tat_ms().median();
  std::printf("burst loss (both ~%.2f%% average):\n", bern_s.fabric.loss_prob * 100);
  Table burst({"loss process", "TAT", "inflation"});
  burst.add_row({"Bernoulli", format_duration(static_cast<Time>(bern_ms * 1e6)),
                 Table::num(bern_ms / clean_ms.median(), 2) + "x"});
  burst.add_row({"Gilbert-Elliott (" + Table::num(static_cast<double>(ge.burst_entries), 0) +
                     " bursts)",
                 format_duration(static_cast<Time>(ge_ms * 1e6)),
                 Table::num(ge_ms / clean_ms.median(), 2) + "x"});
  std::printf("%s\n", burst.to_string().c_str());
  report.add("bernoulli-matched.tat_ms", bern_ms);
  report.add("gilbert-elliott.tat_ms", ge_ms);
  report.add("gilbert-elliott.dropped_burst", static_cast<double>(ge.dropped_burst));
  report.add("gilbert-elliott.burst_entries", static_cast<double>(ge.burst_entries));

  // --- 4. hierarchy failover point ------------------------------------------
  // A leaf switch of a 2-rack hierarchy restarts halfway through the run:
  // pool, bitmaps, and shadow copies wiped; the reduction still completes via
  // worker RTO retransmission. One worker straggles 16x in BOTH runs (the
  // comparator isolates the restart's cost): with perfectly synchronized
  // workers every slot aggregates instantaneously and a wipe lands on empty
  // state, so the straggler is what keeps slots partially aggregated — and
  // vulnerable — when the wipe hits. The plan restarts leaf 0 only, so the
  // fabric's restart count is that leaf's.
  const Time clean_max = measure_scenario(files.load("fault_hierarchy_clean.json")).tat_max();
  scenario::Scenario restart_s = files.load("fault_hierarchy_restart.json");
  files.derive("fault_hierarchy_restart.json", restart_s.fabric.faults.switch_restarts.at(0).at,
               clean_max / 2);
  const ScenarioResult restart = measure_scenario(restart_s, telemetry("hierarchy-restart"));
  const Time max_tat = restart.tat_max();
  const double inflation = static_cast<double>(max_tat) / static_cast<double>(clean_max);
  std::printf("hierarchy failover (2 racks x 4 workers, 16x straggler, leaf-0 restart at TAT/2):\n"
              "  no restart %s -> restart %s (%.2fx), restarts=%llu\n\n",
              format_duration(clean_max).c_str(), format_duration(max_tat).c_str(), inflation,
              static_cast<unsigned long long>(restart.switch_restarts));
  report.add("hierarchy-clean.tat_max_ms", to_msec(clean_max));
  report.add("hierarchy-restart.tat_max_ms", to_msec(max_tat));
  report.add("hierarchy-restart.restarts", static_cast<double>(restart.switch_restarts));

  const std::string trace_path = "fault_sweep_trace.json";
  sink->write_chrome_json(trace_path);
  std::printf("fault trace (Perfetto / chrome://tracing): %s (%zu events, %llu dropped)\n",
              trace_path.c_str(), sink->events().size(),
              static_cast<unsigned long long>(sink->total_drops()));
  const std::string written = sidecar.write();
  if (!written.empty()) std::printf("telemetry sidecar: %s\n", written.c_str());
  const std::string rep = report.write();
  if (!rep.empty()) std::printf("bench report: %s\n", rep.c_str());
  return 0;
}
