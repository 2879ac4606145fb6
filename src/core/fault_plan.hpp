// Declarative fault schedules for the unified fabric (core/fault.hpp runs
// them). A FaultPlan lives on FabricParams, so every cluster shape — rack,
// multi-job, hierarchy, tree, irregular — gets fault injection through the
// one fabric build path.
//
// All times are ABSOLUTE sim times (nanoseconds since fabric construction):
// one Fabric owns one Simulation whose clock never resets, so a plan is laid
// out against the cumulative timeline. When a fabric runs several reductions
// back to back, the plan spans all of them; the fault benches therefore
// measure one reduction per fabric instance.
#pragma once

#include <cstddef>
#include <vector>

#include "common/units.hpp"
#include "net/link.hpp" // BurstLossConfig

namespace switchml::core {

// Stretches one worker's NIC/compute per-packet costs by `factor` (straggler
// emulation). factor 1.0 is exactly cost-neutral.
struct StragglerSpec {
  int worker = 0;
  double factor = 2.0; // CPU-cost multiplier; > 1 slows the worker down
  Time start = 0;
  Time stop = -1; // -1: slow for the rest of the run
};

// One-shot link flap: down at `down_at`, back up at `up_at`. The down
// interval delivers zero packets (Link::set_down semantics).
struct LinkFlapSpec {
  std::size_t link = 0; // Fabric::link index
  Time down_at = 0;
  Time up_at = 0; // must be > down_at
};

// Periodic flap: starting at `start`, each period opens with the link down
// for duty_down * period. With cycles == 0 the flapping continues as long as
// live (non-daemon) work remains in the simulator, then stops with the link
// up, so a run always quiesces.
struct LinkFlapCycleSpec {
  std::size_t link = 0;
  Time period = msec(5);
  double duty_down = 0.1; // fraction of each period spent down, in (0, 1)
  Time start = 0;
  int cycles = 0; // 0: repeat while live work remains
};

// Gilbert-Elliott burst loss on one link (or all of them), active for the
// whole run, on top of any Bernoulli loss.
struct BurstLossSpec {
  int link = -1; // Fabric::link index; -1 applies to every link
  net::BurstLossConfig gilbert;
};

// Mid-run dataplane wipe of one switch (AggregationSwitch::restart): pool
// values, counters, seen bitmaps and shadow copies all reset. Exercises the
// workers' retransmission machinery end to end.
struct SwitchRestartSpec {
  std::size_t switch_index = 0; // Fabric::switch_at index ([0] = root)
  Time at = 0;
};

// Permanent switch death (AggregationSwitch::kill): from `at` on, the switch
// drops every packet. Unlike a restart there is nothing the retransmission
// machinery can do; workers burn their dead_after retry budget, declare the
// switch dead, and the fabric degrades the job to the streaming-PS fallback
// collective (with honest completion-time inflation).
struct SwitchKillSpec {
  std::size_t switch_index = 0; // Fabric::switch_at index ([0] = root)
  Time at = 0;
};

struct FaultPlan {
  std::vector<StragglerSpec> stragglers;
  std::vector<LinkFlapSpec> flaps;
  std::vector<LinkFlapCycleSpec> flap_cycles;
  std::vector<BurstLossSpec> bursts;
  std::vector<SwitchRestartSpec> switch_restarts;
  std::vector<SwitchKillSpec> switch_kills;

  [[nodiscard]] bool empty() const {
    return stragglers.empty() && flaps.empty() && flap_cycles.empty() && bursts.empty() &&
           switch_restarts.empty() && switch_kills.empty();
  }
};

} // namespace switchml::core
