// INT sweep: online fault localization from in-band telemetry, scored
// against the injected ground truth (DESIGN.md "In-band telemetry & fault
// localization").
//
// Each scenario builds a fresh rack fabric (8 workers, 10 Gbps, timing-only)
// with telemetry on the wire (int_mode = kModeOnWire) and ONE fault from the
// FaultPlan vocabulary; the fabric's FaultLocalizer watches the INT record
// stream and must name the faulty component:
//
//   control    no fault              -> no verdicts
//   straggler  worker 0's NIC 32x    -> straggler(worker-0)
//   flap       link 0 down 200-400us -> slow_link(worker-0 <-> switch)
//   burst      GE loss on link 0     -> congested_hop(worker-0 <-> switch)
//   restart    switch wipe at 500us  -> switch_restarted(switch, epoch 1)
//
// The sweep reports precision (no verdict names a healthy component), recall
// (every injected fault is named), and per-scenario time-to-detect. All
// values are sim-deterministic (kSimTol), so the recorded baseline pins
// 100% precision and recall. Per-hop latency/queue/drop tables go to the
// int_sweep_hops.jsonl sidecar (scripts/int_report.py renders them).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/int_telemetry.hpp"
#include "common/tracing.hpp"
#include "core/fault.hpp"

using namespace switchml;
using namespace switchml::bench;

namespace {

using Kind = inttel::FaultLocalizer::Verdict::Kind;

struct Scenario {
  std::string name;
  core::FaultPlan plan;
  bool expects_verdict = false;
  Kind kind = Kind::kSlowLink;
  Time fault_at = 0; // activation time, for time-to-detect
};

const char* hop_kind_name(std::uint8_t kind) {
  switch (kind) {
    case inttel::HopKey::kSwitch: return "switch";
    case inttel::HopKey::kL2: return "l2";
    default: return "link";
  }
}

} // namespace

int main(int argc, char** argv) {
  const BenchScale scale = BenchScale::from_args(argc, argv, 2'000'000, 1);
  const bool fast = has_flag(argc, argv, "--fast");
  const BitsPerSecond rate = gbps(10);
  const int workers = 8;

  std::printf("=== INT sweep: fault localization from in-band telemetry "
              "(10 Gbps, %d workers, on-wire mode) ===\n",
              workers);
  MetricsSidecar sidecar("int_sweep_metrics.json");
  const TimelineRequest timeline_req = TimelineRequest::from_args(argc, argv, msec(1));
  BenchReport report("int_sweep", argc, argv);
  auto sink = std::make_unique<trace::TraceSink>(
      fast ? (1u << 16) : (1u << 20), trace_mask_from_args(argc, argv, trace::kCatFault));
  trace::TraceSink::Scope trace_scope(sink.get());
  std::ofstream hops_out("int_sweep_hops.jsonl");

  // Fault times sit inside even the --fast run (TAT ~1 ms at 256k elements).
  std::vector<Scenario> scenarios(5);
  scenarios[0].name = "control";
  scenarios[1].name = "straggler";
  scenarios[1].plan.stragglers.push_back({0, 32.0, 0, -1});
  scenarios[1].expects_verdict = true;
  scenarios[1].kind = Kind::kStraggler;
  scenarios[2].name = "flap";
  scenarios[2].plan.flaps.push_back({0, usec(200), usec(400)});
  scenarios[2].expects_verdict = true;
  scenarios[2].kind = Kind::kSlowLink;
  scenarios[2].fault_at = usec(200);
  scenarios[3].name = "burst";
  scenarios[3].plan.bursts.push_back({0, net::BurstLossConfig{0.002, 0.1, 0.0, 0.25}});
  scenarios[3].expects_verdict = true;
  scenarios[3].kind = Kind::kCongestedHop;
  scenarios[4].name = "restart";
  scenarios[4].plan.switch_restarts.push_back({0, usec(500)});
  scenarios[4].expects_verdict = true;
  scenarios[4].kind = Kind::kSwitchRestarted;
  scenarios[4].fault_at = usec(500);

  std::uint64_t total_verdicts = 0;
  std::uint64_t total_matched = 0;
  std::uint64_t total_expected = 0;
  std::uint64_t total_found = 0;

  Table table({"scenario", "injected fault", "verdicts", "localized as", "TTD"});
  for (const Scenario& sc : scenarios) {
    core::ClusterConfig cfg = core::ClusterConfig::for_rate(rate, workers);
    cfg.timing_only = true;
    cfg.int_mode = inttel::kModeOnWire;
    cfg.faults = sc.plan;
    core::Fabric cluster(cfg.fabric());
    ScopedTimeline scoped(&timeline_req, cluster.simulation(), cluster.metrics(), sc.name);
    const auto tats = cluster.reduce_timing(scale.tensor_elems);
    scoped.finish_and_write();

    Time tat_max = 0;
    for (Time t : tats) tat_max = std::max(tat_max, t);

    const std::uint32_t w0 = cluster.worker(0).id();
    const std::uint32_t sw = cluster.root().id();
    const std::uint32_t lo = std::min(w0, sw);
    const std::uint32_t hi = std::max(w0, sw);
    inttel::FaultLocalizer* loc = cluster.int_localizer();

    // A verdict matches the scenario's ground truth iff it names BOTH the
    // right fault class and the faulted component (fault on worker 0 / its
    // link / the switch in every non-control scenario).
    Time detected_at = -1;
    std::uint64_t matched = 0;
    for (const auto& v : loc->verdicts()) {
      bool ok = sc.expects_verdict && v.kind == sc.kind;
      if (ok) {
        switch (sc.kind) {
          case Kind::kStraggler: ok = v.a == w0; break;
          case Kind::kSlowLink:
          case Kind::kCongestedHop: ok = v.a == lo && v.b == hi; break;
          case Kind::kSwitchRestarted: ok = v.a == sw; break;
        }
      }
      if (ok) {
        ++matched;
        if (detected_at < 0) detected_at = v.at;
      }
      json::Value line = loc->to_json(v);
      line.set("scenario", sc.name);
      line.set("record", "verdict");
      line.set("matched", ok);
      hops_out << line.dump() << '\n';
    }
    const std::uint64_t n_verdicts = loc->verdicts().size();
    total_verdicts += n_verdicts;
    total_matched += matched;
    if (sc.expects_verdict) {
      ++total_expected;
      if (matched > 0) ++total_found;
    }

    // Per-hop tables, one line per (worker, hop): the raw material for
    // scripts/int_report.py.
    for (int i = 0; i < workers; ++i) {
      const inttel::IntCollector* col = cluster.worker(i).int_collector();
      if (col == nullptr) continue;
      for (const auto& h : col->hop_stats()) {
        const json::Value line(json::Object{
            {"scenario", sc.name}, {"record", "hop"}, {"worker", cluster.worker(i).name()},
            {"hop", h.name.empty() ? "discovered" : h.name}, {"kind", hop_kind_name(h.key.kind)},
            {"hop_id", std::int64_t{h.key.hop_id}}, {"next_hop", std::int64_t{h.key.next_hop}},
            {"samples", static_cast<std::int64_t>(h.samples)}, {"latency_p50_ns", h.latency_p50},
            {"latency_p99_ns", h.latency_p99}, {"queue_bytes", h.queue_bytes},
            {"queue_pkts", h.queue_pkts}, {"drops", static_cast<std::int64_t>(h.drops)}});
        hops_out << line.dump() << '\n';
      }
    }
    sidecar.record(sc.name, cluster.metrics());

    const double ttd_us = detected_at >= 0 ? to_usec(detected_at - sc.fault_at) : -1.0;
    std::string localized = "-";
    if (n_verdicts > 0)
      localized = std::string(inttel::FaultLocalizer::to_string(loc->verdicts().front().kind)) +
                  "(" + loc->subject(loc->verdicts().front()) + ")";
    table.add_row({sc.name,
                   sc.expects_verdict ? inttel::FaultLocalizer::to_string(sc.kind) : "none",
                   Table::num(static_cast<double>(n_verdicts), 0), localized,
                   detected_at >= 0 ? format_duration(detected_at - sc.fault_at) : "-"});
    report.add(sc.name + ".verdicts", static_cast<double>(n_verdicts));
    report.add(sc.name + ".matched", static_cast<double>(matched));
    report.add(sc.name + ".tat_max_ms", to_msec(tat_max));
    if (sc.expects_verdict) report.add(sc.name + ".ttd_us", ttd_us);
  }

  const double precision =
      total_verdicts > 0 ? static_cast<double>(total_matched) / static_cast<double>(total_verdicts)
                         : 1.0;
  const double recall =
      total_expected > 0 ? static_cast<double>(total_found) / static_cast<double>(total_expected)
                         : 1.0;
  std::printf("%s\n", table.to_string().c_str());
  std::printf("localization precision %.3f, recall %.3f over %llu verdicts / %llu faults\n",
              precision, recall, static_cast<unsigned long long>(total_verdicts),
              static_cast<unsigned long long>(total_expected));
  report.add("precision", precision);
  report.add("recall", recall);

  const std::string trace_path = "int_sweep_trace.json";
  sink->write_chrome_json(trace_path);
  std::printf("verdict trace (Perfetto / chrome://tracing): %s (%zu events)\n", trace_path.c_str(),
              sink->events().size());
  std::printf("per-hop tables: int_sweep_hops.jsonl (render: scripts/int_report.py)\n");
  const std::string written = sidecar.write();
  if (!written.empty()) std::printf("telemetry sidecar: %s\n", written.c_str());
  const std::string rep = report.write();
  if (!rep.empty()) std::printf("bench report: %s\n", rep.c_str());
  return 0;
}
