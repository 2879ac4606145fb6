// Ablation: why Algorithm 3 needs BOTH the seen bitmap and the shadow copy
// (§3.5). We disable each in turn and run a lossy data-mode aggregation:
//
//  * no seen bitmap  -> §3.5 expects retransmitted duplicates to be
//    re-aggregated into wrong sums (we count wrong elements); in this model
//    the run stalls instead, and the table prints it as a deadlock;
//  * no shadow copy  -> a lost result packet can never be recovered, so the
//    aggregation deadlocks (we report completion within a deadline);
//  * full protocol   -> exact and complete under the same loss pattern.
#include <cstdio>

#include "bench_util.hpp"
#include "sim/rng.hpp"

using namespace switchml;
using namespace switchml::bench;

namespace {

struct Outcome {
  bool completed = false;
  std::size_t wrong_elems = 0;
  double tat_ms = 0;
};

Outcome run_case(bool ablate_seen, bool ablate_shadow, double loss, std::uint64_t elems) {
  core::ClusterConfig cfg;
  cfg.n_workers = 4;
  cfg.pool_size = 16;
  cfg.loss_prob = loss;
  cfg.ablate_seen_bitmap = ablate_seen;
  cfg.ablate_shadow_copy = ablate_shadow;
  core::Fabric cluster(cfg.fabric());

  sim::Rng rng = sim::Rng::stream(77, "ablation");
  std::vector<std::vector<std::int32_t>> updates(4, std::vector<std::int32_t>(elems));
  std::vector<std::int32_t> expect(elems, 0);
  for (auto& u : updates)
    for (std::size_t i = 0; i < elems; ++i) {
      u[i] = static_cast<std::int32_t>(rng.uniform_int(-1'000'000, 1'000'000));
      expect[i] += u[i];
    }

  std::vector<std::vector<std::int32_t>> outputs(4, std::vector<std::int32_t>(elems, 0));
  int done = 0;
  const Time t0 = cluster.simulation().now();
  Time finish = 0;
  for (int w = 0; w < 4; ++w)
    cluster.worker(w).start_reduction(updates[static_cast<std::size_t>(w)],
                                      outputs[static_cast<std::size_t>(w)], [&] {
                                        if (++done == 4) finish = cluster.simulation().now();
                                      });
  // A broken protocol may retransmit forever; cap the run.
  cluster.simulation().run_until(t0 + sec(2));

  Outcome o;
  o.completed = done == 4;
  o.tat_ms = o.completed ? to_msec(finish - t0) : -1;
  if (o.completed)
    for (std::size_t i = 0; i < elems; ++i)
      if (outputs[0][i] != expect[i]) ++o.wrong_elems;
  return o;
}

} // namespace

int main(int argc, char** argv) {
  const bool fast = has_flag(argc, argv, "--fast");
  const std::uint64_t elems = fast ? 64 * 1024 : 256 * 1024;
  const double loss = 0.01;

  std::printf("=== Ablation: Algorithm 3's loss-recovery state (4 workers, 1%% loss) ===\n");
  Table table({"variant", "completed", "corrupted elements", "TAT [ms]"});
  auto report = [&](const char* name, Outcome o) {
    table.add_row({name, o.completed ? "yes" : "NO (deadlock)",
                   o.completed ? std::to_string(o.wrong_elems) : "-",
                   o.completed ? Table::num(o.tat_ms) : "-"});
  };
  report("full protocol", run_case(false, false, loss, elems));
  report("no seen bitmap", run_case(true, false, loss, elems));
  report("no shadow copy", run_case(false, true, loss, elems));
  std::printf("%s", table.to_string().c_str());
  return 0;
}
