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
// Exit codes: 0 ok, 1 scenario failed to load/validate, 2 usage error (an
// unknown flag, a flag without its value, or not exactly one file).
// --check-only loads and validates (including the eager FaultPlan check)
// without building a fabric — the CI corpus schema check is this flag over
// every committed scenario.

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

#include "bench_util.hpp"
#include "scenario/scenario.hpp"

using namespace switchml;
using namespace switchml::bench;

namespace {

// Every flag scenario_run accepts, in usage order, with the name of the
// value it takes (nullptr for a switch).
struct Flag {
  const char* name;
  const char* value;
};
constexpr Flag kFlags[] = {
    {"--check-only", nullptr},   {"--print-json", nullptr},    {"--report-out", "PATH"},
    {"--metrics-out", "PATH"},   {"--timeline-out", "PREFIX"}, {"--timeline-period-us", "N"},
    {"--trace-out", "PATH"},     {"--trace-mask", "NAMES"},    {"--attr-out", "PATH"},
};

int usage_error(const std::string& what) {
  std::fprintf(stderr, "scenario_run: %s\nusage: scenario_run FILE.json [FLAG...], FLAG one of:\n",
               what.c_str());
  for (const Flag& f : kFlags)
    std::fprintf(stderr, "  %s%s%s\n", f.name, f.value ? " " : "", f.value ? f.value : "");
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  std::string file;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (!a.starts_with("--")) {
      if (!file.empty())
        return usage_error("exactly one scenario file expected (got \"" + file + "\" and \"" + a +
                           "\")");
      file = a;
      continue;
    }
    // A value flag takes the next argument, or its own "=VALUE".
    const std::size_t eq = a.find('=');
    const std::string_view name = std::string_view(a).substr(0, eq);
    const Flag* flag = nullptr;
    for (const Flag& f : kFlags)
      if (f.name == name) flag = &f;
    if (flag == nullptr || (flag->value == nullptr && eq != std::string::npos))
      return usage_error("unknown flag " + a);
    if (flag->value != nullptr && eq == std::string::npos && ++i == argc)
      return usage_error(a + " needs a value (" + flag->value + ")");
  }
  if (file.empty()) return usage_error("no scenario file given");

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

  // Ambient before the fabric is built, so the fabric registers its attr.*
  // counters.
  ScopedAttribution attrib;

  ScenarioResult r;
  try {
    r = measure_scenario(s, {metrics_out.empty() ? nullptr : &sidecar, sanitize_label(s.name),
                             &timeline_req});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scenario_run: run failed: %s\n", e.what());
    return 1;
  }

  const Summary all_ms = r.tat_ms();
  report.add("tat_median_ms", all_ms.median());
  report.add("tat_max_ms", all_ms.max());
  for (std::size_t rep = 0; rep < r.tats.size(); ++rep) {
    Summary rep_ms;
    for (Time t : r.tats[rep]) rep_ms.add(to_msec(t));
    std::printf("  rep %zu: TAT %s\n", rep, rep_ms.str().c_str());
    report.add("rep" + std::to_string(rep) + ".tat_max_ms", rep_ms.max());
  }
  report.add("fallback_engaged", r.fallback_engaged ? 1.0 : 0.0);
  report.add("dead_declared", static_cast<double>(r.dead_declared));
  if (r.data_checked) report.add("data_bit_exact", r.data_bit_exact ? 1.0 : 0.0);
  report.add("recovery.sync_queries", static_cast<double>(r.sync_queries));
  report.add("recovery.escalations", static_cast<double>(r.escalations));
  report.add("recovery.epoch_resyncs", static_cast<double>(r.epoch_resyncs));
  report.add("recovery.rescues_sent", static_cast<double>(r.rescues_sent));
  report.add("switch.restarts", static_cast<double>(r.switch_restarts));
  report.add("switch.rescues_applied", static_cast<double>(r.rescues_applied));
  if (r.have_int) {
    report.add("int.verdicts", static_cast<double>(r.int_verdicts));
    for (std::size_t k = 0; k < r.int_by_kind.size(); ++k)
      report.add(std::string("int.") +
                     inttel::FaultLocalizer::to_string(
                         static_cast<inttel::FaultLocalizer::Verdict::Kind>(k)),
                 static_cast<double>(r.int_by_kind[k]));
  }
  attrib.report(report, "");
  const std::string attr_out = arg_value(argc, argv, "--attr-out");
  if (!attr_out.empty()) attrib.write_jsonl(attr_out);

  std::printf("TAT: %s ms (max %.3f ms)%s%s\n", all_ms.str().c_str(), all_ms.max(),
              r.fallback_engaged ? " [fallback engaged]" : "",
              r.data_checked ? (r.data_bit_exact ? " [data bit-exact]" : " [DATA MISMATCH]") : "");
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
  if (r.data_checked && !r.data_bit_exact) return 1;
  return 0;
}
