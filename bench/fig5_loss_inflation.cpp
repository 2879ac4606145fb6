// Figure 5: TAT inflation under uniform random packet loss (0.01% / 0.1% /
// 1% on every link), SwitchML vs the Gloo and NCCL baselines; retransmission
// timeout 1 ms, 8 workers at 10 Gbps.
//
// Shape to reproduce: at 0.01% everybody is barely affected; at 0.1% and 1%
// SwitchML inflates modestly (selective per-slot retransmission) while the
// TCP-based baselines inflate by an order of magnitude (go-back-N stalls and
// RTO backoff on every lost segment).
#include <cstdio>

#include "bench_util.hpp"

using namespace switchml;
using namespace switchml::bench;

int main(int argc, char** argv) {
  const BenchScale scale = BenchScale::from_args(argc, argv, 2'000'000, 2);
  const BitsPerSecond rate = gbps(10);
  const int workers = 8;

  std::printf("=== Figure 5: TAT inflation vs loss rate (10 Gbps, 8 workers) ===\n");
  MetricsSidecar sidecar("fig5_loss_inflation_metrics.json");
  const TimelineRequest timeline_req = TimelineRequest::from_args(argc, argv, msec(1));
  BenchReport report("fig5_loss_inflation", argc, argv);
  // SwitchML with `loss` on every link and the fixed 1 ms or the adaptive RTO.
  const auto switchml = [&](double loss, bool adaptive_rto, const Telemetry& telemetry) {
    core::ClusterConfig cfg = core::ClusterConfig::for_rate(rate, workers);
    cfg.loss_prob = loss;
    cfg.adaptive_rto = adaptive_rto;
    return measure_switchml(cfg, scale, telemetry);
  };
  const RateResult base_fixed_r =
      switchml(0.0, false, {&sidecar, "loss-0.00pct.switchml-fixed-rto"});
  // The loss-free and 1%-loss adaptive-RTO runs also carry the per-chunk
  // span ledger: the report's attr.* block decomposes completion time into
  // exclusive components (DESIGN.md "Time attribution") and pins the
  // conservation invariant (max_residual_ns == 0) in the recorded baseline.
  RateResult base_adapt_r;
  {
    ScopedAttribution attrib;
    base_adapt_r = switchml(0.0, true, {&sidecar, "loss-0.00pct.switchml-adaptive-rto"});
    attrib.report(report, "loss-0.00pct.switchml-adaptive-rto");
  }
  const double base_fixed = base_fixed_r.tat_ms;
  const double base_adapt = base_adapt_r.tat_ms;
  const double base_gloo = measure_baseline(BaselineKind::GlooRing, rate, workers, scale).tat_ms;
  const double base_nccl = measure_baseline(BaselineKind::NcclRing, rate, workers, scale).tat_ms;
  report.add("loss-0.00pct.switchml-fixed-rto.tat_ms", base_fixed);
  report.add("loss-0.00pct.switchml-adaptive-rto.tat_ms", base_adapt);
  report.add("loss-0.00pct.gloo.tat_ms", base_gloo);
  report.add("loss-0.00pct.nccl.tat_ms", base_nccl);

  // Fig 5's companion tail view from the registry histograms. The RTT
  // columns are Karn-filtered clean exchanges, so loss barely moves them —
  // the inflation lives in the switch's slot dwell (claim -> complete),
  // which absorbs every RTO stall.
  Table tail({"loss rate", "p99 RTT fixed/adaptive [us]", "p99 slot dwell fixed [us]",
              "p99 slot dwell adaptive [us]"});
  auto tail_row = [&tail, &report](const std::string& pct, const std::string& tag,
                                   const RateResult& fixed, const RateResult& adapt) {
    tail.add_row({pct, Table::num(fixed.rtt_p99_us) + " / " + Table::num(adapt.rtt_p99_us),
                  Table::num(fixed.dwell_p99_us), Table::num(adapt.dwell_p99_us)});
    report.add(tag + "switchml-fixed-rto.rtt_p99_us", fixed.rtt_p99_us);
    report.add(tag + "switchml-adaptive-rto.rtt_p99_us", adapt.rtt_p99_us);
    report.add(tag + "switchml-fixed-rto.dwell_p99_us", fixed.dwell_p99_us);
    report.add(tag + "switchml-adaptive-rto.dwell_p99_us", adapt.dwell_p99_us);
  };
  tail_row("0.00%", "loss-0.00pct.", base_fixed_r, base_adapt_r);

  std::printf("loss-free TATs: SwitchML %s (fixed RTO) / %s (adaptive), Gloo %s, NCCL %s\n",
              format_duration(static_cast<Time>(base_fixed * 1e6)).c_str(),
              format_duration(static_cast<Time>(base_adapt * 1e6)).c_str(),
              format_duration(static_cast<Time>(base_gloo * 1e6)).c_str(),
              format_duration(static_cast<Time>(base_nccl * 1e6)).c_str());
  Table table({"loss rate", "SwitchML (1ms RTO)", "SwitchML (adaptive RTO)", "Gloo", "NCCL"});
  for (double loss : {0.0001, 0.001, 0.01}) {
    const std::string tag = "loss-" + Table::num(loss * 100, 2) + "pct.";
    const RateResult fixed_r =
        switchml(loss, false, {&sidecar, tag + "switchml-fixed-rto", &timeline_req});
    RateResult adapt_r;
    {
      ScopedAttribution attrib;
      adapt_r = switchml(loss, true, {&sidecar, tag + "switchml-adaptive-rto", &timeline_req});
      if (loss == 0.01) {
        attrib.report(report, tag + "switchml-adaptive-rto");
        attrib.write_jsonl("fig5_attribution.jsonl");
        const attr::SpanLedger& l = attrib.ledger();
        const double tot = static_cast<double>(l.total_ns());
        std::printf("chunk-time attribution at 1%% loss (adaptive RTO, >=1%% shares): ");
        for (std::size_t c = 0; c < attr::kComponentCount; ++c) {
          const auto comp = static_cast<attr::Component>(c);
          const double share = tot > 0 ? 100.0 * static_cast<double>(l.total(comp)) / tot : 0.0;
          if (share >= 1.0) std::printf("%s %.0f%%  ", attr::to_string(comp), share);
        }
        std::printf("-> fig5_attribution.jsonl\n");
      }
    }
    const double fixed = fixed_r.tat_ms;
    const double adapt = adapt_r.tat_ms;
    const double gloo = measure_baseline(BaselineKind::GlooRing, rate, workers, scale, loss,
                                         {&sidecar, tag + "gloo", &timeline_req})
                            .tat_ms;
    const double nccl = measure_baseline(BaselineKind::NcclRing, rate, workers, scale, loss,
                                         {&sidecar, tag + "nccl", &timeline_req})
                            .tat_ms;
    table.add_row({Table::num(loss * 100, 2) + "%", Table::num(fixed / base_fixed, 2) + "x",
                   Table::num(adapt / base_adapt, 2) + "x",
                   Table::num(gloo / base_gloo, 2) + "x",
                   Table::num(nccl / base_nccl, 2) + "x"});
    tail_row(Table::num(loss * 100, 2) + "%", tag, fixed_r, adapt_r);
    report.add(tag + "switchml-fixed-rto.tat_ms", fixed);
    report.add(tag + "switchml-adaptive-rto.tat_ms", adapt);
    report.add(tag + "gloo.tat_ms", gloo);
    report.add(tag + "nccl.tat_ms", nccl);
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\nSwitchML latency tails vs loss (registry histograms):\n%s",
              tail.to_string().c_str());
  std::printf(
      "(inflation normalized to each strategy's loss-free TAT. With the paper's literal\n"
      " 1 ms RTO, every lost packet stalls its slot for ~50 RTTs, dominating inflation in\n"
      " the simulator; the adaptive RTO of §6 retransmits after ~4 RTTs and reproduces\n"
      " the paper's reported inflation shape — modest for SwitchML, catastrophic for the\n"
      " TCP baselines once AIMD keeps their windows collapsed.)\n");
  const std::string written = sidecar.write();
  if (!written.empty()) std::printf("telemetry sidecar: %s\n", written.c_str());
  const std::string rep = report.write();
  if (!rep.empty()) std::printf("bench report: %s\n", rep.c_str());
  return 0;
}
