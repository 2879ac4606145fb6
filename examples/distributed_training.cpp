// End-to-end distributed training demo: synchronous data-parallel SGD on a
// synthetic classification task where EVERY gradient exchange travels
// through the simulated SwitchML fabric — quantization, 180-byte packets,
// in-switch integer aggregation, dequantization — via the stream buffer
// manager, exactly like the Horovod/Gloo integration of §4.
//
// Compares against exact (float) aggregation to show the quantized path
// reaches the same accuracy, and reports the communication statistics.
#include <cstdio>

#include "core/cluster.hpp"
#include "core/stream_manager.hpp"
#include "ml/trainer.hpp"
#include "quant/fixed_point.hpp"

using namespace switchml;

namespace {

// Aggregator that routes gradients through the simulated SwitchML fabric.
class InNetworkAggregator final : public ml::Aggregator {
public:
  explicit InNetworkAggregator(core::Fabric& fabric) : fabric_(fabric) {}

  void aggregate(const std::vector<std::vector<float>>& grads,
                 std::vector<float>& out) override {
    // Profile the gradients and pick f per Appendix C (2x headroom).
    float max_abs = 0.0f;
    for (const auto& g : grads)
      for (float v : g) max_abs = std::max(max_abs, std::abs(v));
    const double f =
        quant::max_safe_scaling_factor(fabric_.n_workers(), (max_abs + 1e-6f) * 2.0);

    const int n = fabric_.n_workers();
    std::vector<std::vector<float>> outputs(static_cast<std::size_t>(n),
                                            std::vector<float>(grads.front().size()));
    std::vector<std::unique_ptr<core::StreamManager>> mgrs;
    for (int w = 0; w < n; ++w) {
      auto m = std::make_unique<core::StreamManager>(fabric_.worker(w));
      m->submit(grads[static_cast<std::size_t>(w)], outputs[static_cast<std::size_t>(w)], f,
                nullptr);
      m->flush();
      mgrs.push_back(std::move(m));
    }
    fabric_.simulation().run();
    out = std::move(outputs.front());
    comm_time_ms_ += 0; // timing detail printed from worker counters below
  }

  [[nodiscard]] const char* name() const override { return "switchml"; }

private:
  core::Fabric& fabric_;
  double comm_time_ms_ = 0;
};

} // namespace

int main() {
  const int n_workers = 8;
  const int iterations = 400;

  sim::Rng data_rng = sim::Rng::stream(2024, "train-data");
  const auto full = ml::make_blobs(4000, 32, 10, 3.0, 1.0, data_rng);
  auto [train, test] = ml::split(full, 0.8);

  ml::TrainerConfig tc;
  tc.n_workers = n_workers;
  tc.hidden_dim = 64;
  tc.batch_per_worker = 16;
  tc.lr = 0.1;

  std::printf("distributed training: %d workers, %zu train / %zu test samples, %d iters\n\n",
              n_workers, train.size(), test.size(), iterations);

  // Baseline: exact float aggregation.
  {
    ml::DataParallelTrainer trainer(train, test, tc);
    ml::ExactAggregator exact;
    const auto r = trainer.train(iterations, exact);
    std::printf("exact float aggregation:    train %.1f%%  test %.1f%%  (max|g| = %.3f)\n",
                r.final_train_accuracy * 100, r.final_test_accuracy * 100,
                r.max_abs_gradient);
  }

  // SwitchML: every iteration's gradients cross the simulated network.
  {
    core::ClusterConfig cc = core::ClusterConfig::for_rate(gbps(10), n_workers);
    cc.pool_size = 64;
    core::Fabric cluster(cc.fabric());
    ml::DataParallelTrainer trainer(train, test, tc);
    InNetworkAggregator agg(cluster);
    const auto r = trainer.train(iterations, agg);
    std::printf("in-network (quantized):     train %.1f%%  test %.1f%%\n",
                r.final_train_accuracy * 100, r.final_test_accuracy * 100);

    const auto& w0 = cluster.worker(0).counters();
    const auto& sw = cluster.root().counters();
    std::printf("\ncommunication totals over %d iterations:\n", iterations);
    std::printf("  per worker: %llu update packets sent (%llu retransmitted)\n",
                static_cast<unsigned long long>(w0.updates_sent),
                static_cast<unsigned long long>(w0.retransmissions));
    std::printf("  switch: %llu slot completions, %llu multicasts, %.1f us simulated time\n",
                static_cast<unsigned long long>(sw.completions),
                static_cast<unsigned long long>(sw.results_multicast),
                to_usec(cluster.simulation().now()));
  }
  return 0;
}
