// Loss-recovery walkthrough: replays the Appendix A execution — three
// workers, a model-update packet lost on the way up, a result packet lost on
// the way down — and narrates how the seen bitmap, the mod-n counter, and
// the shadow copy repair both without any switch-side timers.
#include <cstdio>

#include "core/cluster.hpp"

using namespace switchml;

int main() {
  core::ClusterConfig cfg;
  cfg.n_workers = 3;
  cfg.pool_size = 4;
  cfg.retransmit_timeout = msec(1);
  core::Fabric cluster(cfg.fabric());

  // Scripted losses on slot 1's first phase (offset k*1 = 32):
  //  t3: worker 2's update for slot 1 never reaches the switch;
  //  t7: the multicast result for slot 1 never reaches worker 0.
  bool dropped_up = false, dropped_down = false;
  cluster.link(2).set_drop_filter([&](const net::Node& sender, const net::Packet& p) {
    if (!dropped_up && p.kind == net::PacketKind::SmlUpdate && p.idx == 1 && sender.id() == 2) {
      dropped_up = true;
      std::printf("[%8.1f us] X upstream loss: worker 2's update (slot 1, off %llu)\n",
                  to_usec(cluster.simulation().now()), static_cast<unsigned long long>(p.off));
      return true;
    }
    return false;
  });
  cluster.link(0).set_drop_filter([&](const net::Node& sender, const net::Packet& p) {
    if (!dropped_down && p.kind == net::PacketKind::SmlResult && p.idx == 1 &&
        sender.id() >= 100) {
      dropped_down = true;
      std::printf("[%8.1f us] X downstream loss: result for worker 0 (slot 1, off %llu)\n",
                  to_usec(cluster.simulation().now()), static_cast<unsigned long long>(p.off));
      return true;
    }
    return false;
  });

  // Aggregate a small tensor: 4 slots x 32 elements x 3 phases.
  const std::size_t d = 32 * 4 * 3;
  std::vector<std::vector<std::int32_t>> updates(3, std::vector<std::int32_t>(d));
  std::vector<std::int32_t> expected(d);
  for (int w = 0; w < 3; ++w)
    for (std::size_t i = 0; i < d; ++i) {
      updates[static_cast<std::size_t>(w)][i] = static_cast<std::int32_t>(100 * (w + 1) + i);
      expected[i] += updates[static_cast<std::size_t>(w)][i];
    }

  std::printf("aggregating %zu elements on 3 workers with 1 ms RTO...\n\n", d);
  auto result = cluster.reduce_i32(updates);

  std::printf("\nrecovery postmortem:\n");
  const auto& sw = cluster.root().counters();
  std::printf("  switch ignored %llu duplicate updates via the seen bitmap\n",
              static_cast<unsigned long long>(sw.duplicate_updates));
  std::printf("  switch answered %llu retransmissions from the shadow copy (unicast)\n",
              static_cast<unsigned long long>(sw.unicast_replies));
  for (int w = 0; w < 3; ++w) {
    const auto& c = cluster.worker(w).counters();
    std::printf("  worker %d: %llu timeouts, %llu retransmissions, %llu duplicate results\n", w,
                static_cast<unsigned long long>(c.timeouts),
                static_cast<unsigned long long>(c.retransmissions),
                static_cast<unsigned long long>(c.duplicate_results));
  }

  bool correct = true;
  for (int w = 0; w < 3; ++w)
    if (result.outputs[static_cast<std::size_t>(w)] != expected) correct = false;
  std::printf("\nall workers hold the exact aggregate: %s\n", correct ? "YES" : "NO");
  std::printf("TAT with the two losses: %.2f ms — the two ~1 ms RTOs in series; self-clocking\n"
              "stalled ALL workers on the affected slot, never more than one phase apart.\n",
              to_msec(result.tat[0]));
  return correct ? 0 : 1;
}
