#include "framework/training_sim.hpp"

#include <deque>
#include <memory>
#include <stdexcept>

#include "collectives/ring.hpp"
#include "core/profiles.hpp"
#include "core/stream_manager.hpp"

namespace switchml::framework {

namespace {

Time seconds_to_time(double s) { return static_cast<Time>(s * kSecond); }

struct ComputePlan {
  Time fwd;                      // forward pass duration
  std::vector<Time> bwd;         // per-layer backward durations (reverse order applies)
  std::vector<std::uint64_t> grads; // per-layer gradient elements
  Time compute_total;
};

ComputePlan make_plan(const perf::ModelSpec& spec, const TrainingSimConfig& cfg) {
  if (cfg.size_scale <= 0 || cfg.size_scale > 1)
    throw std::invalid_argument("TrainingSimConfig: size_scale must be in (0, 1]");
  const int batch = cfg.batch > 0 ? cfg.batch : spec.batch_size;
  const double t_iter =
      static_cast<double>(batch) / spec.single_gpu_images_per_s * cfg.size_scale;
  const auto layers = synthesize_layers(spec);

  ComputePlan plan;
  plan.fwd = seconds_to_time(t_iter * cfg.forward_fraction);
  const double bwd_total = t_iter * (1.0 - cfg.forward_fraction);
  for (const auto& l : layers) {
    plan.bwd.push_back(seconds_to_time(bwd_total * l.bwd_share));
    plan.grads.push_back(std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(l.params) * cfg.size_scale)));
  }
  plan.compute_total = plan.fwd;
  for (Time t : plan.bwd) plan.compute_total += t;
  return plan;
}

// Drives iterations on any communication backend exposing submit/idle.
// Backward emits gradients for layers L-1 .. 0 (output side first).
class IterationDriver {
public:
  using SubmitFn = std::function<void(std::uint64_t elems, std::function<void()> done)>;

  IterationDriver(sim::Simulation& sim, const ComputePlan& plan, int iterations,
                  SubmitFn submit)
      : sim_(sim), plan_(plan), iterations_(iterations), submit_(std::move(submit)) {}

  // Runs all iterations; returns per-iteration durations.
  std::vector<Time> run() {
    begin_iteration();
    sim_.run();
    if (durations_.size() != static_cast<std::size_t>(iterations_))
      throw std::runtime_error("training simulation did not complete");
    return durations_;
  }

private:
  void begin_iteration() {
    iter_start_ = sim_.now();
    tensors_outstanding_ = 0;
    compute_done_ = false;
    sim_.schedule_after(plan_.fwd, [this] { backward(static_cast<int>(plan_.bwd.size()) - 1); });
  }

  void backward(int layer) {
    if (layer < 0) {
      compute_done_ = true;
      maybe_finish();
      return;
    }
    sim_.schedule_after(plan_.bwd[static_cast<std::size_t>(layer)], [this, layer] {
      ++tensors_outstanding_;
      submit_(plan_.grads[static_cast<std::size_t>(layer)], [this] {
        --tensors_outstanding_;
        maybe_finish();
      });
      backward(layer - 1);
    });
  }

  void maybe_finish() {
    if (!compute_done_ || tensors_outstanding_ != 0) return;
    durations_.push_back(sim_.now() - iter_start_);
    if (static_cast<int>(durations_.size()) < iterations_) begin_iteration();
  }

  sim::Simulation& sim_;
  const ComputePlan& plan_;
  int iterations_;
  SubmitFn submit_;
  Time iter_start_ = 0;
  int tensors_outstanding_ = 0;
  bool compute_done_ = false;
  std::vector<Time> durations_;
};

// RAII for the config's observability hooks: arms an optional
// TimelineRecorder before the run; the caller invokes end() after the run
// (finish + export + on_metrics) while the cluster is still alive.
class SimTelemetry {
public:
  SimTelemetry(const TrainingSimConfig& cfg, sim::Simulation& sim, MetricsRegistry& registry)
      : cfg_(cfg), registry_(registry) {
    if (!cfg.timeline_path.empty()) {
      TimelineRecorder::Config tc;
      tc.period = cfg.timeline_period;
      recorder_ = std::make_unique<TimelineRecorder>(sim, registry, tc);
      recorder_->start();
    }
  }

  void end() {
    if (recorder_) {
      recorder_->finish();
      recorder_->write(cfg_.timeline_path);
      recorder_.reset();
    }
    if (cfg_.on_metrics) cfg_.on_metrics(registry_);
  }

private:
  const TrainingSimConfig& cfg_;
  MetricsRegistry& registry_;
  std::unique_ptr<TimelineRecorder> recorder_;
};

TrainingSimResult summarize(const ComputePlan& plan, const TrainingSimConfig& cfg,
                            const perf::ModelSpec& spec, const std::vector<Time>& durations) {
  const int batch = cfg.batch > 0 ? cfg.batch : spec.batch_size;
  // Skip the warmup iteration (pipelines fill, NIC/cwnd state settles).
  Time total = 0;
  int counted = 0;
  for (std::size_t i = 1; i < durations.size(); ++i) {
    total += durations[i];
    ++counted;
  }
  if (counted == 0) {
    total = durations.front();
    counted = 1;
  }
  TrainingSimResult r;
  // Scale the measured iteration back up to full model size.
  r.iteration_ms = to_msec(total / counted) / cfg.size_scale;
  r.compute_ms = to_msec(plan.compute_total) / cfg.size_scale;
  r.exposed_comm_ms = r.iteration_ms - r.compute_ms;
  r.images_per_s = static_cast<double>(cfg.n_workers) * batch / (r.iteration_ms / 1e3);
  return r;
}

} // namespace

TrainingSimResult simulate_switchml_training(const perf::ModelSpec& spec,
                                             const TrainingSimConfig& cfg) {
  const ComputePlan plan = make_plan(spec, cfg);

  core::ClusterConfig ccfg = core::ClusterConfig::for_rate(cfg.rate, cfg.n_workers);
  ccfg.timing_only = true;
  core::Fabric cluster(ccfg.fabric());

  std::vector<std::unique_ptr<core::StreamManager>> managers;
  for (int w = 0; w < cfg.n_workers; ++w)
    managers.push_back(std::make_unique<core::StreamManager>(cluster.worker(w)));

  // Every (identical) worker submits and flushes each layer tensor at the
  // same simulated instant, so each tensor is one reduction; the driver's
  // completion callback counts worker 0's completions.
  IterationDriver driver(cluster.simulation(), plan, cfg.iterations,
                         [&managers](std::uint64_t elems, std::function<void()> done) {
                           for (std::size_t w = 0; w < managers.size(); ++w) {
                             managers[w]->submit(elems, w == 0 ? done : nullptr);
                             managers[w]->flush();
                           }
                         });
  SimTelemetry telemetry(cfg, cluster.simulation(), cluster.metrics());
  const std::vector<Time> durations = driver.run();
  telemetry.end();
  return summarize(plan, cfg, spec, durations);
}

TrainingSimResult simulate_ring_training(const perf::ModelSpec& spec,
                                         const TrainingSimConfig& cfg,
                                         const core::BaselineProfile& profile) {
  const ComputePlan plan = make_plan(spec, cfg);

  collectives::BaselineClusterConfig bcfg;
  bcfg.n_hosts = cfg.n_workers;
  bcfg.link_rate = cfg.rate;
  bcfg.nic = profile.nic;
  collectives::BaselineCluster cluster(bcfg);
  collectives::RingAllReduce ring(cluster, profile.transport);

  // Horovod-style tensor fusion: gradients queue in a fusion buffer; one
  // fused all-reduce runs at a time, taking up to fusion_bytes per launch.
  struct Fusion {
    collectives::RingAllReduce& ring;
    std::int64_t fusion_bytes;
    std::deque<std::pair<std::int64_t, std::function<void()>>> pending; // (bytes, done)
    bool running = false;

    void submit(std::int64_t bytes, std::function<void()> done) {
      pending.emplace_back(bytes, std::move(done));
      maybe_launch();
    }
    void maybe_launch() {
      if (running || pending.empty()) return;
      running = true;
      std::int64_t bytes = 0;
      auto dones = std::make_shared<std::vector<std::function<void()>>>();
      while (!pending.empty() && bytes < fusion_bytes) {
        bytes += pending.front().first;
        dones->push_back(std::move(pending.front().second));
        pending.pop_front();
      }
      ring.start_async(bytes, [this, dones] {
        running = false;
        for (auto& d : *dones)
          if (d) d();
        maybe_launch();
      });
    }
  } fusion{ring,
           std::max<std::int64_t>(
               4, static_cast<std::int64_t>(static_cast<double>(cfg.fusion_bytes) *
                                            cfg.size_scale)),
           {},
           false};

  IterationDriver driver(cluster.simulation(), plan, cfg.iterations,
                         [&fusion](std::uint64_t elems, std::function<void()> done) {
                           fusion.submit(static_cast<std::int64_t>(elems) * 4,
                                         std::move(done));
                         });
  SimTelemetry telemetry(cfg, cluster.simulation(), cluster.metrics());
  const std::vector<Time> durations = driver.run();
  telemetry.end();
  return summarize(plan, cfg, spec, durations);
}

} // namespace switchml::framework
