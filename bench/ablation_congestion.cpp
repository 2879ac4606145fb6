// §6 "Lack of congestion control": the pool's self-clocking doubles as flow
// control — if one worker's downlink is congested (or the worker is a
// straggler), the rate of aggregation results it can absorb drops, and since
// a slot is only released when EVERY worker contributes, all workers slow
// down together instead of overrunning the congested path.
//
// Second half: §6 warns that the RTO must follow the end-to-end RTT, and
// the table compares a fixed 1 ms RTO with the Jacobson/Karels adaptive RTO
// (our implementation of the paper's suggestion). This model does not show
// the expected storm. At full scale no run reaches the 2 s cap, at 64x both
// RTOs finish at the same TAT with ~249k retransmissions each, and at 16x
// the adaptive RTO retransmits ~249k packets and takes twice the fixed
// RTO's time.
#include <cstdio>

#include "bench_util.hpp"

using namespace switchml;
using namespace switchml::bench;

namespace {

struct Run {
  bool finished = true;
  double tat_ms = 0;
  std::uint64_t retransmissions = 0;
  double rto_ms = 0;
};

Run run_congested(double slowdown, bool adaptive, std::uint64_t elems) {
  core::ClusterConfig cfg = core::ClusterConfig::for_rate(gbps(10), 8);
  cfg.timing_only = true;
  cfg.adaptive_rto = adaptive;
  core::Fabric cluster(cfg.fabric());
  // Congest worker 0's downlink: the switch->worker0 direction runs at
  // rate/slowdown. (set_rate applies to both directions of the link; the
  // upstream direction is not the bottleneck here.)
  cluster.link(0).set_rate(static_cast<BitsPerSecond>(gbps(10) / slowdown));

  auto& sim = cluster.simulation();
  std::vector<Time> tat(8, -1);
  int done = 0;
  for (int w = 0; w < 8; ++w)
    cluster.worker(w).start_reduction(elems, [&, w] {
      tat[static_cast<std::size_t>(w)] = sim.now();
      ++done;
    });
  // A melted-down fixed RTO retransmits every packet hundreds of times; cap
  // the run at 2 simulated seconds and report DNF.
  sim.run_until(sec(2));

  Run r;
  r.finished = done == 8;
  if (r.finished) r.tat_ms = to_msec(*std::max_element(tat.begin(), tat.end()));
  for (int w = 0; w < 8; ++w) r.retransmissions += cluster.worker(w).counters().retransmissions;
  r.rto_ms = to_msec(cluster.worker(0).current_rto());
  return r;
}

} // namespace

int main(int argc, char** argv) {
  const BenchScale scale = BenchScale::from_args(argc, argv, 1'000'000, 1);

  std::printf("=== Congestion / straggler: self-clocking + adaptive RTO (§6) ===\n");
  std::printf("worker 0's downlink degraded by a factor; all 8 workers self-clock down.\n\n");
  Table table({"slowdown", "TAT fixed-RTO [ms]", "retx (fixed)", "TAT adaptive [ms]",
               "retx (adaptive)", "final RTO [ms]"});
  for (double slowdown : {1.0, 4.0, 16.0, 64.0}) {
    const Run fixed = run_congested(slowdown, false, scale.tensor_elems);
    const Run adaptive = run_congested(slowdown, true, scale.tensor_elems);
    table.add_row({Table::num(slowdown, 0) + "x",
                   fixed.finished ? Table::num(fixed.tat_ms) : "DNF (>2000)",
                   std::to_string(fixed.retransmissions),
                   adaptive.finished ? Table::num(adaptive.tat_ms) : "DNF (>2000)",
                   std::to_string(adaptive.retransmissions), Table::num(adaptive.rto_ms, 3)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("(TAT scales with the slowest path for every worker — the self-clocking\n"
              " property. The RTO rows do not show the storm §6 warns of: no run hits the\n"
              " 2 s cap, and where the retransmission counts differ the adaptive RTO sends\n"
              " more, not fewer.)\n");
  return 0;
}
