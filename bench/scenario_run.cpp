// scenario_run: executes one declarative scenario file (scenarios/*.json, or
// anything scenario::load_file accepts) with the full telemetry stack armed —
// BenchReport, metrics sidecar, timeline sampling, Perfetto trace export,
// critical-path attribution, and INT verdict counts when the scenario enables
// telemetry.
//
//   scenario_run FILE.json [--check-only] [--print-json]
//                [--report-out PATH] [--metrics-out PATH]
//                [--timeline-out PREFIX] [--timeline-period-us N]
//                [--trace-out PATH] [--trace-mask NAMES] [--attr-out PATH]
//
// Exit codes: 0 ok, 1 scenario failed to load/validate, 2 usage error.
// --check-only loads and validates (including the eager FaultPlan check)
// without building a fabric — the CI corpus schema check is this flag over
// every committed scenario.

#include <cstdio>
#include <memory>
#include <string>

#include "bench_util.hpp"
#include "scenario/scenario.hpp"

using namespace switchml;
using namespace switchml::bench;

int main(int argc, char** argv) {
  std::string file;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.size() >= 2 && a[0] == '-' && a[1] == '-') {
      // Flags with a value consume the next arg; skip it during the scan.
      if (a == "--report-out" || a == "--metrics-out" || a == "--timeline-out" ||
          a == "--timeline-period-us" || a == "--trace-out" || a == "--trace-mask" ||
          a == "--attr-out")
        ++i;
      continue;
    }
    if (!file.empty()) {
      std::fprintf(stderr, "scenario_run: exactly one scenario file expected (got \"%s\" and \"%s\")\n",
                   file.c_str(), a.c_str());
      return 2;
    }
    file = a;
  }
  if (file.empty()) {
    std::fprintf(stderr,
                 "usage: scenario_run FILE.json [--check-only] [--print-json]\n"
                 "                    [--report-out PATH] [--metrics-out PATH]\n"
                 "                    [--timeline-out PREFIX] [--timeline-period-us N]\n"
                 "                    [--trace-out PATH] [--trace-mask NAMES] [--attr-out PATH]\n");
    return 2;
  }

  scenario::Scenario s;
  try {
    s = scenario::load_file(file);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scenario_run: %s\n", e.what());
    return 1;
  }

  const core::FaultTargets shape = scenario::shape_counts(s.topology);
  std::printf("scenario: %s (%d workers, %zu links, %zu switches; %s mode, %llu elems x %d)\n",
              s.name.c_str(), shape.n_workers, shape.n_links, shape.n_switches,
              s.workload.timing ? "timing" : "data",
              static_cast<unsigned long long>(s.workload.tensor_elems), s.workload.reductions);
  if (!s.description.empty()) std::printf("  %s\n", s.description.c_str());
  if (has_flag(argc, argv, "--print-json"))
    std::printf("%s\n", scenario::to_json(s).dump(true).c_str());
  if (has_flag(argc, argv, "--check-only")) {
    std::printf("OK (loaded and validated; no fabric built)\n");
    return 0;
  }

  BenchReport report(s.name, argc, argv);
  report.info("scenario_file", file);
  const TimelineRequest timeline_req = TimelineRequest::from_args(argc, argv, usec(100));
  const std::string trace_out = arg_value(argc, argv, "--trace-out");
  std::unique_ptr<trace::TraceSink> sink;
  std::unique_ptr<trace::TraceSink::Scope> trace_scope;
  if (!trace_out.empty()) {
    sink = std::make_unique<trace::TraceSink>(1u << 20,
                                              trace_mask_from_args(argc, argv, trace::kCatFault));
    trace_scope = std::make_unique<trace::TraceSink::Scope>(sink.get());
  }
  const std::string metrics_out = arg_value(argc, argv, "--metrics-out");
  MetricsSidecar sidecar(metrics_out);

  // Constructed before the fabric (inside run()) so the ledger is ambient
  // when workers register their attr.* counters.
  ScopedAttribution attrib;

  // The fabric lives inside scenario::run(); everything that needs it — the
  // timeline recorder, the final counter harvest — happens in the hooks.
  std::unique_ptr<ScopedTimeline> timeline;
  struct Harvest {
    std::uint64_t sync_queries = 0, escalations = 0, epoch_resyncs = 0, rescues_sent = 0;
    std::uint64_t switch_restarts = 0, rescues_applied = 0;
    std::uint64_t int_verdicts = 0;
    std::uint64_t int_by_kind[inttel::FaultLocalizer::kKindCount] = {};
    bool have_int = false;
  } harvest;
  scenario::RunHooks hooks;
  hooks.on_built = [&](core::Fabric& f) {
    timeline = std::make_unique<ScopedTimeline>(&timeline_req, f.simulation(), f.metrics(),
                                                sanitize_label(s.name));
  };
  hooks.on_reduction = [&](core::Fabric& f, int rep, const std::vector<Time>& tats) {
    Summary rep_ms;
    for (Time t : tats) rep_ms.add(to_msec(t));
    std::printf("  rep %d: TAT %s\n", rep, rep_ms.str().c_str());
    if (rep != s.workload.reductions - 1) {
      timeline->resume();
      return;
    }
    timeline->finish_and_write();
    if (!metrics_out.empty()) sidecar.record(sanitize_label(s.name), f.metrics());
    for (int w = 0; w < f.n_workers(); ++w) {
      const auto& rc = f.worker(w).recovery();
      harvest.sync_queries += rc.sync_queries;
      harvest.escalations += rc.escalations;
      harvest.epoch_resyncs += rc.epoch_resyncs;
      harvest.rescues_sent += rc.rescues_sent;
    }
    for (std::size_t i = 0; i < f.n_switches(); ++i) {
      harvest.switch_restarts += f.switch_at(i).counters().restarts;
      harvest.rescues_applied += f.switch_at(i).counters().rescues_applied;
    }
    if (auto* loc = f.int_localizer()) {
      harvest.have_int = true;
      harvest.int_verdicts = loc->verdicts().size();
      for (std::size_t k = 0; k < inttel::FaultLocalizer::kKindCount; ++k)
        harvest.int_by_kind[k] =
            loc->count(static_cast<inttel::FaultLocalizer::Verdict::Kind>(k));
    }
  };

  scenario::RunResult result;
  try {
    result = scenario::run(s, hooks);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scenario_run: run failed: %s\n", e.what());
    return 1;
  }

  Summary all_ms;
  for (const auto& rep : result.tats)
    for (Time t : rep) all_ms.add(to_msec(t));
  report.add("tat_median_ms", all_ms.median());
  report.add("tat_max_ms", all_ms.max());
  for (std::size_t r = 0; r < result.tats.size(); ++r) {
    Summary rep_ms;
    for (Time t : result.tats[r]) rep_ms.add(to_msec(t));
    report.add("rep" + std::to_string(r) + ".tat_max_ms", rep_ms.max());
  }
  report.add("fallback_engaged", result.fallback_engaged ? 1.0 : 0.0);
  report.add("dead_declared", static_cast<double>(result.dead_declared));
  if (result.data_checked)
    report.add("data_bit_exact", result.data_bit_exact ? 1.0 : 0.0);
  report.add("recovery.sync_queries", static_cast<double>(harvest.sync_queries));
  report.add("recovery.escalations", static_cast<double>(harvest.escalations));
  report.add("recovery.epoch_resyncs", static_cast<double>(harvest.epoch_resyncs));
  report.add("recovery.rescues_sent", static_cast<double>(harvest.rescues_sent));
  report.add("switch.restarts", static_cast<double>(harvest.switch_restarts));
  report.add("switch.rescues_applied", static_cast<double>(harvest.rescues_applied));
  if (harvest.have_int) {
    report.add("int.verdicts", static_cast<double>(harvest.int_verdicts));
    for (std::size_t k = 0; k < inttel::FaultLocalizer::kKindCount; ++k)
      report.add(std::string("int.") +
                     inttel::FaultLocalizer::to_string(
                         static_cast<inttel::FaultLocalizer::Verdict::Kind>(k)),
                 static_cast<double>(harvest.int_by_kind[k]));
  }
  attrib.report(report, "");
  const std::string attr_out = arg_value(argc, argv, "--attr-out");
  if (!attr_out.empty()) attrib.write_jsonl(attr_out);

  std::printf("TAT: %s ms (max %.3f ms)%s%s\n", all_ms.str().c_str(), all_ms.max(),
              result.fallback_engaged ? " [fallback engaged]" : "",
              result.data_checked ? (result.data_bit_exact ? " [data bit-exact]" : " [DATA MISMATCH]")
                                  : "");
  if (!metrics_out.empty()) {
    const std::string p = sidecar.write();
    if (!p.empty()) std::printf("metrics sidecar: %s\n", p.c_str());
  }
  if (sink) {
    sink->write_chrome_json(trace_out);
    std::printf("trace (Perfetto / chrome://tracing): %s (%zu events)\n", trace_out.c_str(),
                sink->events().size());
  }
  const std::string rp = report.write();
  if (!rp.empty()) std::printf("report: %s\n", rp.c_str());

  // A data-mode scenario that converged without bit-exact results is a
  // protocol bug, not a telemetry detail — fail the invocation.
  if (result.data_checked && !result.data_bit_exact) return 1;
  return 0;
}
