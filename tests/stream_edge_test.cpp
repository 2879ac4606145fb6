// Additional edge-case coverage for the stream buffer manager and the
// multi-tensor pipeline: error paths, tiny/huge tensor mixes, averaging,
// and repeated flush cycles with loss.
#include <gtest/gtest.h>

#include <iterator>

#include "core/cluster.hpp"
#include "core/stream_manager.hpp"
#include "sim/rng.hpp"

namespace switchml::core {
namespace {

ClusterConfig cfg(int n, double loss = 0.0) {
  ClusterConfig c;
  c.n_workers = n;
  c.pool_size = 8;
  c.loss_prob = loss;
  return c;
}

TEST(StreamManagerEdge, RejectsBadSubmissions) {
  Fabric cluster(cfg(2).fabric());
  StreamManager m(cluster.worker(0));
  std::vector<float> in(8), out(4);
  EXPECT_THROW(m.submit(in, out, 1.0, nullptr), std::invalid_argument);
  std::vector<float> out8(8);
  EXPECT_THROW(m.submit(in, out8, 0.0, nullptr), std::invalid_argument);
  EXPECT_THROW(m.submit(in, out8, -2.0, nullptr), std::invalid_argument);
}

TEST(StreamManagerEdge, FlushWithNothingQueuedIsANoop) {
  Fabric cluster(cfg(2).fabric());
  StreamManager m(cluster.worker(0));
  m.flush();
  EXPECT_TRUE(m.idle());
}

TEST(StreamManagerEdge, SingleElementTensors) {
  Fabric cluster(cfg(2).fabric());
  std::vector<float> a = {3.0f}, b = {4.0f}, oa(1), ob(1);
  StreamManager m0(cluster.worker(0)), m1(cluster.worker(1));
  m0.submit(a, oa, 1e6, nullptr);
  m1.submit(b, ob, 1e6, nullptr);
  m0.flush();
  m1.flush();
  cluster.simulation().run();
  EXPECT_NEAR(oa[0], 7.0f, 1e-4f);
  EXPECT_NEAR(ob[0], 7.0f, 1e-4f);
}

TEST(StreamManagerEdge, AveragingOption) {
  // The mean is over the job, not over the worker's rack: on every shape,
  // job 0's workers all submit 8.0 and must all read back 8.0.
  const TopologySpec shapes[] = {
      RackSpec{4},
      MultiJobSpec{2, 4},
      HierarchySpec{2, 2},
      TreeSpec{2, 2, 2},
      TreeSpec{3, 2, 2},
      IrregularSpec{{-1, 0, 0}, {1, 1, 2, 2}},
  };
  FabricParams params;
  params.pool_size = 8;
  for (std::size_t s = 0; s < std::size(shapes); ++s) {
    Fabric fabric(FabricConfig(params, shapes[s]));
    const auto n = static_cast<std::size_t>(fabric.workers_per_job());
    std::vector<std::vector<float>> in(n, std::vector<float>(64, 8.0f));
    std::vector<std::vector<float>> out(n, std::vector<float>(64));
    std::vector<std::unique_ptr<StreamManager>> ms;
    for (std::size_t w = 0; w < n; ++w) {
      StreamOptions opt;
      opt.average = true;
      auto m = std::make_unique<StreamManager>(fabric.worker(static_cast<int>(w)), opt);
      m->submit(in[w], out[w], 1e5, nullptr);
      m->flush();
      ms.push_back(std::move(m));
    }
    fabric.simulation().run();
    for (std::size_t w = 0; w < n; ++w)
      for (float v : out[w]) ASSERT_NEAR(v, 8.0f, 1e-3f) << "shape " << s << " worker " << w;
  }
}

TEST(StreamManagerEdge, InPlaceAliasedBuffers) {
  // out may alias in: the framework overwrites gradients with aggregates.
  Fabric cluster(cfg(2).fabric());
  std::vector<float> a(128, 1.5f), b(128, 2.5f);
  StreamManager m0(cluster.worker(0)), m1(cluster.worker(1));
  m0.submit(a, a, 1e6, nullptr);
  m1.submit(b, b, 1e6, nullptr);
  m0.flush();
  m1.flush();
  cluster.simulation().run();
  for (float v : a) EXPECT_NEAR(v, 4.0f, 1e-4f);
  for (float v : b) EXPECT_NEAR(v, 4.0f, 1e-4f);
}

TEST(StreamManagerEdge, ManyTensorsUnderLoss) {
  Fabric cluster(cfg(3, 0.01).fabric());
  const int tensors = 12;
  sim::Rng rng = sim::Rng::stream(9, "many");
  std::vector<std::vector<std::vector<float>>> in(3), out(3);
  std::vector<std::unique_ptr<StreamManager>> ms;
  int completions = 0;
  for (int w = 0; w < 3; ++w) {
    in[static_cast<std::size_t>(w)].resize(tensors);
    out[static_cast<std::size_t>(w)].resize(tensors);
    auto m = std::make_unique<StreamManager>(cluster.worker(w));
    for (int t = 0; t < tensors; ++t) {
      auto& v = in[static_cast<std::size_t>(w)][static_cast<std::size_t>(t)];
      v.resize(97 + 31 * t);
      for (auto& e : v) e = static_cast<float>(rng.uniform_int(-100, 100));
      out[static_cast<std::size_t>(w)][static_cast<std::size_t>(t)].resize(v.size());
      m->submit(v, out[static_cast<std::size_t>(w)][static_cast<std::size_t>(t)], 1e5,
                [&completions] { ++completions; });
    }
    m->flush();
    ms.push_back(std::move(m));
  }
  cluster.simulation().run();
  EXPECT_EQ(completions, 3 * tensors);
  for (int t = 0; t < tensors; ++t) {
    for (std::size_t i = 0; i < out[0][static_cast<std::size_t>(t)].size(); ++i) {
      const float ref = in[0][static_cast<std::size_t>(t)][i] +
                        in[1][static_cast<std::size_t>(t)][i] +
                        in[2][static_cast<std::size_t>(t)][i];
      ASSERT_NEAR(out[2][static_cast<std::size_t>(t)][i], ref, 0.01f) << "t=" << t;
    }
  }
}

TEST(StreamManagerEdge, ChunkAlignedTensorBoundaries) {
  // Padding guarantees no packet spans two tensors: a 1-element tensor
  // followed by a large one must still produce exact per-tensor sums.
  Fabric cluster(cfg(2).fabric());
  std::vector<float> tiny0 = {1.0f}, tiny1 = {2.0f}, big0(1000, 3.0f), big1(1000, 4.0f);
  std::vector<float> to0(1), to1(1), bo0(1000), bo1(1000);
  StreamManager m0(cluster.worker(0)), m1(cluster.worker(1));
  m0.submit(tiny0, to0, 1e6, nullptr);
  m0.submit(big0, bo0, 1e6, nullptr);
  m1.submit(tiny1, to1, 1e6, nullptr);
  m1.submit(big1, bo1, 1e6, nullptr);
  m0.flush();
  m1.flush();
  cluster.simulation().run();
  EXPECT_NEAR(to0[0], 3.0f, 1e-4f);
  for (float v : bo0) ASSERT_NEAR(v, 7.0f, 1e-4f);
}

} // namespace
} // namespace switchml::core
