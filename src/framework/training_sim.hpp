// Event-driven training simulation (§4): iterations of synchronous
// data-parallel SGD where compute (forward + per-layer backward) advances on
// the simulated clock and every layer's gradient tensor enters the
// communication substrate the moment its backward step finishes — so
// compute/communication overlap, per-tensor launch costs, and the tail drain
// after backward all EMERGE from the protocol dynamics instead of being
// closed-form knobs (contrast perf::estimate_training).
//
// Two backends:
//   * SwitchML — each layer tensor is one reduction through the stream
//     manager (core/stream_manager.hpp), submitted and flushed on every
//     worker as its backward step finishes and run in backward order;
//   * Horovod-style ring — tensors accumulate in a fusion buffer (Horovod's
//     64 MB default) and drain one ring all-reduce at a time over the
//     TCP-like fabric, which is how real deployments bound the per-tensor
//     latency of 2(n-1) sequential rounds.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/timeline.hpp"
#include "core/cluster.hpp"
#include "framework/layer_model.hpp"

namespace switchml::framework {

struct TrainingSimConfig {
  int n_workers = 8;
  BitsPerSecond rate = gbps(10);
  int batch = 0;     // 0 = spec default
  int iterations = 4; // the first iteration is warmup and is not measured
  // compute split: backward is roughly twice the forward cost.
  double forward_fraction = 1.0 / 3.0;
  std::int64_t fusion_bytes = 64ll << 20; // Horovod fusion buffer (ring only)
  // Proportional down-scaling of the simulation: gradient sizes, compute
  // times and the fusion buffer all shrink by this factor and the reported
  // iteration time is scaled back up, so bandwidth-driven behaviour is
  // preserved while the event count drops. Fixed per-packet latencies do NOT
  // scale, so small scales slightly overstate per-tensor launch costs.
  double size_scale = 0.25;

  // Observability hooks, so the framework sims go through the same
  // sidecar/timeline path as the cluster benches (fig3/table1):
  //  * timeline_path non-empty => a TimelineRecorder samples the cluster's
  //    registry every timeline_period and writes JSONL (or CSV when the path
  //    ends in ".csv") after the run;
  //  * on_metrics, when set, receives the cluster's registry after the run
  //    completes and before teardown (MetricsSidecar snapshots).
  std::string timeline_path;
  Time timeline_period = msec(1);
  std::function<void(const MetricsRegistry&)> on_metrics;
};

struct TrainingSimResult {
  double images_per_s = 0.0;
  double iteration_ms = 0.0;
  double compute_ms = 0.0;      // pure fwd+bwd time per iteration
  double exposed_comm_ms = 0.0; // iteration_ms - compute_ms
};

// End-to-end iteration timing with SwitchML aggregation.
TrainingSimResult simulate_switchml_training(const perf::ModelSpec& spec,
                                             const TrainingSimConfig& config);

// End-to-end iteration timing with fused ring all-reduce over `profile`'s
// host/transport stack (use core::nccl_tcp / core::gloo_tcp).
TrainingSimResult simulate_ring_training(const perf::ModelSpec& spec,
                                         const TrainingSimConfig& config,
                                         const core::BaselineProfile& profile);

} // namespace switchml::framework
