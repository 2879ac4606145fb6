// Figure 6: timeline of update packets sent per 10 ms at one representative
// worker during a single tensor aggregation, with 0%, 0.01% and 1% uniform
// loss; the TAT for each case is marked, along with the resent-packet counts.
//
// Shape to reproduce: SwitchML maintains a sending rate close to the ideal
// packet rate and recovers quickly; at 1% loss the tail of the aggregation
// slows down because some slots are unevenly hit by losses (§5.5's
// work-stealing remark).
//
// Observability surfaces exercised here:
//  - the per-10ms buckets are TimelineRecorder deltas of the worker's
//    NIC-level "updates_wired" counter (sampled on the sim clock);
//  - the lossy (1%) run writes a full time-series sidecar
//    (fig6_timeline.jsonl: every counter as a rate, every gauge as a level,
//    including retransmissions/s and in-flight slots) and a Chrome-trace JSON
//    (fig6_trace.json) loadable in Perfetto / chrome://tracing;
//  - `--timeline-out PREFIX` additionally writes a sidecar per loss point.
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "common/tracing.hpp"

using namespace switchml;
using namespace switchml::bench;

int main(int argc, char** argv) {
  const bool fast = has_flag(argc, argv, "--fast");
  const std::uint64_t elems = fast ? 1'000'000 : 12'500'000; // 50 MB default
  const BitsPerSecond rate = gbps(10);
  const TimelineRequest timeline_req = TimelineRequest::from_args(argc, argv, msec(10));
  MetricsSidecar sidecar("fig6_loss_timeline_metrics.json");
  BenchReport report("fig6_loss_timeline", argc, argv);

  // Ideal packet rate: line-rate 180-byte packets.
  const double ideal_pkts_per_10ms = static_cast<double>(rate) / 8.0 / 180.0 / 100.0;
  std::printf("=== Figure 6: packets sent per 10 ms at worker 0 (10 Gbps, 8 workers) ===\n");
  std::printf("tensor: %.1f MB; ideal packet rate: %.0f pkts / 10 ms\n\n",
              static_cast<double>(elems) * 4 / 1e6, ideal_pkts_per_10ms);

  for (double loss : {0.0, 0.0001, 0.01}) {
    core::ClusterConfig cfg = core::ClusterConfig::for_rate(rate, 8);
    cfg.timing_only = true;
    cfg.loss_prob = loss;
    cfg.adaptive_rto = true; // see fig5: recovers in ~4 RTTs like the paper

    // The 1% run doubles as the structured-tracing demo: capture the first
    // chunk of worker/switch/link events for Perfetto. The buffer is bounded;
    // overflow shows up in the drop counters, never silently.
    const bool traced = loss == 0.01;
    std::unique_ptr<trace::TraceSink> sink;
    std::unique_ptr<trace::TraceSink::Scope> scope;
    if (traced) {
      // All categories by default; `--trace-mask NAMES` narrows (e.g.
      // --trace-mask worker,flow keeps the per-chunk flow arrows readable).
      sink = std::make_unique<trace::TraceSink>(
          fast ? (1u << 16) : (1u << 20), trace_mask_from_args(argc, argv, trace::kCatAll));
      scope = std::make_unique<trace::TraceSink::Scope>(sink.get());
    }

    core::Fabric cluster(cfg.fabric());
    TimelineRecorder::Config tc;
    tc.period = msec(10);
    TimelineRecorder timeline(cluster.simulation(), cluster.metrics(), tc);
    timeline.start();
    auto tats = cluster.reduce_timing(elems);
    timeline.finish();

    const auto buckets = timeline.deltas("worker-0.updates_wired");
    // Tail view from the registry histograms. The per-packet RTT is
    // Karn-filtered (clean exchanges only), so loss barely moves it; the
    // switch's slot dwell (claim -> complete) absorbs every RTO stall and is
    // where the 1%-loss tail shows up.
    const Histogram rtts = merged_histogram(cluster.metrics(), ".rtt_ns");
    const Histogram dwell = merged_histogram(cluster.metrics(), ".slot_dwell_ns");
    const double p99_us = static_cast<double>(rtts.percentile(99)) / 1e3;
    const double dwell_p99_us = static_cast<double>(dwell.percentile(99)) / 1e3;
    std::printf("--- loss %.2f%%: TAT %.0f ms, resent %llu packets, p99 RTT %.1f us, "
                "p99 slot dwell %.1f us ---\n",
                loss * 100, to_msec(tats[0]),
                static_cast<unsigned long long>(cluster.worker(0).counters().retransmissions),
                p99_us, dwell_p99_us);
    const std::string label = "loss" + std::to_string(static_cast<int>(loss * 10000));
    sidecar.record(label, cluster.metrics());
    report.add(label + ".tat_ms", to_msec(tats[0]));
    report.add(label + ".resent_packets",
               static_cast<double>(cluster.worker(0).counters().retransmissions));
    report.add(label + ".rtt_p99_us", p99_us);
    report.add(label + ".dwell_p99_us", dwell_p99_us);
    std::printf("t[ms] ");
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      if (b % 16 == 0 && b) std::printf("\n      ");
      std::printf("%6llu", static_cast<unsigned long long>(buckets[b]));
    }
    std::printf("\n\n");

    if (traced) {
      timeline.write("fig6_timeline.jsonl");
      sink->write_chrome_json("fig6_trace.json");
      std::printf("wrote fig6_timeline.jsonl (%zu samples) and fig6_trace.json "
                  "(%zu events, %llu dropped)\n\n",
                  timeline.sample_count(), sink->events().size(),
                  static_cast<unsigned long long>(sink->total_drops()));
    }
    if (timeline_req.enabled()) timeline.write(timeline_path(timeline_req, label));
  }
  const std::string written = sidecar.write();
  if (!written.empty()) std::printf("telemetry sidecar: %s\n", written.c_str());
  const std::string rep = report.write();
  if (!rep.empty()) std::printf("bench report: %s\n", rep.c_str());
  return 0;
}
