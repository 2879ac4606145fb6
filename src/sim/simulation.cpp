#include "sim/simulation.hpp"

#include <stdexcept>

namespace switchml::sim {

void Simulation::check_not_past(Time at) const {
  if (at < now_) throw std::invalid_argument("Simulation::schedule_at: time in the past");
}

bool Simulation::dispatch_one() {
  // Cancelled timers and the stale keys of re-armed ones are skipped without
  // advancing the clock: nothing observable happens at their time. Live
  // closures run in place in the slab (no relocation) and stream entries
  // run their stream's handler; the clock advances just before the call.
  const bool ran = queue_.pop_and_run([this](Time at, bool daemon) {
    now_ = at;
    if (!daemon) last_live_at_ = at;
  });
  executed_ += static_cast<std::uint64_t>(ran);
  return ran;
}

std::uint64_t Simulation::run() {
  std::uint64_t n = 0;
  stopped_ = false;
  while (!queue_.empty() && !stopped_) {
    if (dispatch_one()) ++n;
  }
  return n;
}

std::uint64_t Simulation::run_until(Time deadline) {
  std::uint64_t n = 0;
  stopped_ = false;
  while (!queue_.empty() && !stopped_ && queue_.next_time() <= deadline) {
    if (dispatch_one()) ++n;
  }
  if (now_ < deadline && !stopped_) now_ = deadline;
  return n;
}

} // namespace switchml::sim
