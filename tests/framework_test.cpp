// Framework-substrate tests: layer synthesis invariants and the event-driven
// training simulation's emergent properties (overlap, fusion, orderings).
#include <gtest/gtest.h>

#include <numeric>

#include "core/profiles.hpp"
#include "framework/training_sim.hpp"

namespace switchml::framework {
namespace {

TEST(LayerModel, ParamsAndSharesSumExactly) {
  for (const auto& spec : perf::model_zoo()) {
    const auto layers = synthesize_layers(spec);
    EXPECT_EQ(layers.size(), static_cast<std::size_t>(spec.n_tensors)) << spec.name;
    std::uint64_t params = 0;
    double share = 0;
    for (const auto& l : layers) {
      params += l.params;
      share += l.bwd_share;
    }
    EXPECT_EQ(params, spec.parameters) << spec.name;
    EXPECT_NEAR(share, 1.0, 1e-9) << spec.name;
  }
}

TEST(LayerModel, VggConcentratesParamsInClassifier) {
  const auto layers = synthesize_layers(perf::model("vgg16"));
  std::uint64_t tail = 0, total = 0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    total += layers[i].params;
    if (i >= layers.size() - 3) tail += layers[i].params;
  }
  EXPECT_GT(static_cast<double>(tail) / static_cast<double>(total), 0.8);
}

TEST(LayerModel, ResnetSpreadsParams) {
  const auto layers = synthesize_layers(perf::model("resnet50"));
  std::uint64_t tail = 0, total = 0;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    total += layers[i].params;
    if (i >= layers.size() - 3) tail += layers[i].params;
  }
  EXPECT_LT(static_cast<double>(tail) / static_cast<double>(total), 0.2);
}

// ------------------------------------------------------------ training sim

TrainingSimConfig quick_cfg(BitsPerSecond rate = gbps(10)) {
  TrainingSimConfig cfg;
  cfg.rate = rate;
  cfg.batch = 64; // Table 1's setting: halves compute, keeps comm constant
  cfg.iterations = 2;
  cfg.size_scale = 1.0 / 64;
  return cfg;
}

TEST(TrainingSim, IterationNeverFasterThanCompute) {
  const auto r = simulate_switchml_training(perf::model("googlenet"), quick_cfg());
  EXPECT_GE(r.iteration_ms, r.compute_ms * 0.999);
  EXPECT_GE(r.exposed_comm_ms, -1e-6);
  EXPECT_GT(r.images_per_s, 0);
}

TEST(TrainingSim, ComputeBoundModelHidesCommunicationOnSwitchMl) {
  // inception4: tiny comm relative to compute; SwitchML hides nearly all.
  const auto r = simulate_switchml_training(perf::model("inception4"), quick_cfg());
  EXPECT_LT(r.exposed_comm_ms / r.iteration_ms, 0.10);
}

TEST(TrainingSim, VggIsCommunicationBoundEvenOnSwitchMl) {
  const auto r = simulate_switchml_training(perf::model("vgg16"), quick_cfg());
  EXPECT_GT(r.exposed_comm_ms / r.iteration_ms, 0.30);
}

TEST(TrainingSim, SwitchMlBeatsNcclForEveryModel) {
  for (const char* name : {"googlenet", "resnet50", "vgg16"}) {
    const auto& spec = perf::model(name);
    const auto sml = simulate_switchml_training(spec, quick_cfg());
    const auto nccl = simulate_ring_training(spec, quick_cfg(), core::nccl_tcp(gbps(10)));
    EXPECT_GE(sml.images_per_s, nccl.images_per_s * 0.999) << name;
  }
}

TEST(TrainingSim, SpeedupOrderingMatchesFig3) {
  // vgg16 (comm-bound) must gain much more than googlenet (compute-bound).
  // Use the bench's 1/16 scale: at tiny scales the unscaled per-round ring
  // latency dominates small models and distorts the comparison.
  auto speedup = [&](const char* name) {
    TrainingSimConfig cfg = quick_cfg();
    cfg.size_scale = 1.0 / 16;
    const auto& spec = perf::model(name);
    const auto sml = simulate_switchml_training(spec, cfg);
    const auto nccl = simulate_ring_training(spec, cfg, core::nccl_tcp(gbps(10)));
    return sml.images_per_s / nccl.images_per_s;
  };
  EXPECT_GT(speedup("vgg16"), speedup("googlenet") + 0.3);
}

TEST(TrainingSim, FasterNetworkHelpsCommBoundModels) {
  const auto& spec = perf::model("vgg16");
  const auto g10 = simulate_switchml_training(spec, quick_cfg(gbps(10)));
  const auto g100 = simulate_switchml_training(spec, quick_cfg(gbps(100)));
  EXPECT_GT(g100.images_per_s, g10.images_per_s * 1.3);
}

TEST(TrainingSim, FusionReducesRingLaunchLatency) {
  // With a tiny fusion buffer every tensor pays the 2(n-1)-round launch
  // latency; the 64 MB default amortizes it. resnet101 has 314 tensors,
  // so the difference is large.
  const auto& spec = perf::model("resnet101");
  TrainingSimConfig small = quick_cfg();
  small.fusion_bytes = 1; // effectively one tensor per launch
  TrainingSimConfig fused = quick_cfg();
  const auto unfused = simulate_ring_training(spec, small, core::nccl_tcp(gbps(10)));
  const auto with_fusion = simulate_ring_training(spec, fused, core::nccl_tcp(gbps(10)));
  EXPECT_GT(with_fusion.images_per_s, unfused.images_per_s * 1.5);
}

TEST(TrainingSim, InvalidScaleThrows) {
  TrainingSimConfig cfg = quick_cfg();
  cfg.size_scale = 0.0;
  EXPECT_THROW(simulate_switchml_training(perf::model("vgg16"), cfg), std::invalid_argument);
}

} // namespace
} // namespace switchml::framework
