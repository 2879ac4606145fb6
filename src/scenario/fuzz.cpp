#include "scenario/fuzz.hpp"

#include <algorithm>
#include <string>

namespace switchml::scenario {

namespace {

// splitmix64: tiny, seedable, and identical on every platform (std::mt19937
// would work, but a libstdc++/libc++ distribution mismatch must never change
// what a soak seed means).
class Rng {
public:
  explicit Rng(std::uint64_t seed) : x_(seed) {}

  std::uint64_t next() {
    x_ += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n); modulo bias is irrelevant at these ranges.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  int range(int lo, int hi) { return lo + static_cast<int>(below(static_cast<std::uint64_t>(hi - lo + 1))); }
  Time time_in(Time lo, Time hi) {
    return lo + static_cast<Time>(below(static_cast<std::uint64_t>(hi - lo + 1)));
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  bool chance(double p) { return unit() < p; }

private:
  std::uint64_t x_;
};

core::IrregularSpec fuzz_irregular(Rng& rng) {
  core::IrregularSpec spec;
  const int m = rng.range(1, 3);
  spec.switch_parent.assign(1, -1);
  for (int i = 1; i < m; ++i)
    spec.switch_parent.push_back(static_cast<int>(rng.below(static_cast<std::uint64_t>(i))));
  // Workers go on the leaves only (a switch's children must be all-workers or
  // all-switches), visited in index order so worker_switch is non-decreasing.
  std::vector<bool> has_switch_child(static_cast<std::size_t>(m), false);
  for (int i = 1; i < m; ++i)
    has_switch_child[static_cast<std::size_t>(spec.switch_parent[static_cast<std::size_t>(i)])] = true;
  spec.worker_switch.clear();
  for (int i = 0; i < m; ++i) {
    if (has_switch_child[static_cast<std::size_t>(i)]) continue;
    const int at_leaf = rng.range(1, 2);
    for (int w = 0; w < at_leaf; ++w) spec.worker_switch.push_back(i);
  }
  // At least two workers total, or the "reduction" is a no-op echo.
  while (spec.worker_switch.size() < 2) spec.worker_switch.push_back(spec.worker_switch.back());
  return spec;
}

} // namespace

Scenario fuzz_scenario(std::uint64_t seed) {
  Rng rng(seed * 0x2545F4914F6CDD1Dull + 1);
  Scenario s;
  s.name = "fuzz-" + std::to_string(seed);
  s.description = "generated by scenario::fuzz_scenario";

  switch (seed % 5) {
  case 0: s.topology = core::RackSpec{rng.range(2, 4)}; break;
  case 1: s.topology = core::MultiJobSpec{2, 2}; break;
  case 2: s.topology = core::HierarchySpec{2, 2}; break;
  case 3: s.topology = core::TreeSpec{rng.range(2, 3), 2, 2}; break;
  default: s.topology = fuzz_irregular(rng); break;
  }
  const bool multi_job = std::holds_alternative<core::MultiJobSpec>(s.topology);

  core::FabricParams& p = s.fabric;
  p.seed = seed ^ 0xA5A5A5A5u;
  static constexpr std::uint32_t kPools[] = {1, 2, 8};
  p.pool_size = kPools[rng.below(3)];
  p.retransmit_timeout = usec(100);
  p.adaptive_rto = rng.chance(0.5);
  p.loss_prob = rng.chance(0.25) ? 0.005 : 0.0;
  p.sync_after = 2;
  // collect_fallback_plan throws on multi-job fabrics by design: the fallback
  // collective replays ONE job's chunks. Disable the dead stage there.
  p.dead_after = multi_job ? 0 : 12;
  p.fallback_reprovision = usec(200);
  p.nic = core::switchml_worker_nic(p.link_rate, s.nic_selection.cores);

  s.workload.timing = false; // the soak asserts bit-exact data convergence
  s.workload.tensor_elems = static_cast<std::uint64_t>(rng.range(1, 4)) * 1024;
  s.workload.reductions = rng.chance(0.3) ? 2 : 1;
  s.workload.data_seed = seed + 1;
  return s;
}

void fuzz_faults(Scenario& s, std::uint64_t seed, Time horizon) {
  Rng rng(seed * 0xDA942042E4DD58B5ull + 7);
  const core::FaultTargets t = shape_counts(s.topology);
  const bool multi_job = std::holds_alternative<core::MultiJobSpec>(s.topology);
  // The soak reduces job 0; faulting an idle job's worker or link would test
  // nothing. Link w is worker w's uplink on every fabric, so job 0's links
  // are the first workers_per_job.
  const int fw = multi_job ? std::get<core::MultiJobSpec>(s.topology).workers_per_job : t.n_workers;
  const std::size_t fl = multi_job ? static_cast<std::size_t>(fw) : t.n_links;
  const Time h = std::max<Time>(horizon, usec(10));
  core::FaultPlan& plan = s.fabric.faults;

  if (rng.chance(0.5)) {
    const int n = rng.range(1, 2);
    for (int i = 0; i < n; ++i) {
      static constexpr double kFactors[] = {4.0, 16.0, 64.0};
      core::StragglerSpec spec;
      spec.worker = static_cast<int>(rng.below(static_cast<std::uint64_t>(fw)));
      spec.factor = kFactors[rng.below(3)];
      spec.start = rng.time_in(0, h / 2);
      spec.stop = rng.chance(0.5) ? -1 : spec.start + h / 2;
      plan.stragglers.push_back(spec);
    }
  }

  // One flap spec per link, one-shot XOR cycle: windows compose trivially,
  // and the soak's "zero deliveries while down" assertion stays meaningful.
  std::vector<std::size_t> links(fl);
  for (std::size_t i = 0; i < fl; ++i) links[i] = i;
  for (std::size_t i = fl; i > 1; --i) std::swap(links[i - 1], links[rng.below(i)]);
  std::size_t next_link = 0;
  if (rng.chance(0.5)) {
    const std::size_t n = std::min<std::size_t>(1 + rng.below(2), fl - next_link);
    for (std::size_t i = 0; i < n; ++i) {
      core::LinkFlapSpec spec;
      spec.link = links[next_link++];
      spec.down_at = rng.time_in(0, h / 2);
      spec.up_at = spec.down_at + rng.time_in(h / 20 + 1, h / 2);
      plan.flaps.push_back(spec);
    }
  }
  if (rng.chance(0.4) && next_link < fl) {
    core::LinkFlapCycleSpec spec;
    spec.link = links[next_link++];
    spec.period = std::max<Time>(h / rng.range(4, 10), 1000);
    spec.duty_down = 0.05 + 0.25 * rng.unit();
    spec.start = rng.time_in(0, h / 4);
    spec.cycles = rng.range(1, 4); // bounded: the soak must terminate
    plan.flap_cycles.push_back(spec);
  }

  if (rng.chance(0.4)) {
    core::BurstLossSpec spec;
    spec.link = rng.chance(0.5) ? -1 : static_cast<int>(rng.below(static_cast<std::uint64_t>(fl)));
    spec.gilbert.p_enter = 0.002 + 0.018 * rng.unit();
    spec.gilbert.p_exit = 0.2 + 0.3 * rng.unit(); // >= 0.2: bursts end, runs finish
    spec.gilbert.loss_good = 0.0;
    spec.gilbert.loss_bad = 0.25 + 0.5 * rng.unit();
    plan.bursts.push_back(spec);
  }

  // A streaming-PS fabric has no aggregation switch to restart or kill.
  if (t.n_switches > 0 && rng.chance(0.35)) {
    core::SwitchRestartSpec spec;
    spec.switch_index = rng.below(t.n_switches);
    spec.at = rng.time_in(h / 5, h / 2);
    plan.switch_restarts.push_back(spec);
  }

  // A kill commits the run to the streaming-PS fallback; only generate one
  // where that path is armed and single-shot.
  if (t.n_switches > 0 && s.fabric.dead_after > 0 && s.workload.reductions == 1 &&
      rng.chance(0.25)) {
    core::SwitchKillSpec spec;
    spec.switch_index = rng.below(t.n_switches);
    spec.at = rng.time_in(h / 5, h / 2);
    plan.switch_kills.push_back(spec);
  }

  // An all-clean plan tests nothing; fall back to the one class that is
  // always safe.
  if (plan.empty()) {
    core::StragglerSpec spec;
    spec.worker = static_cast<int>(rng.below(static_cast<std::uint64_t>(fw)));
    spec.factor = 16.0;
    spec.start = 0;
    spec.stop = -1;
    plan.stragglers.push_back(spec);
  }
}

} // namespace switchml::scenario
