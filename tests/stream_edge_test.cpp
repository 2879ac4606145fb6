// Additional edge-case coverage for the stream buffer manager and the
// multi-tensor pipeline: error paths, tiny/huge tensor mixes, averaging,
// repeated flush cycles with loss, size-only batches, and batches that stay
// the same on every worker whatever its timing.
#include <gtest/gtest.h>

#include <iterator>
#include <memory>

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

TEST(StreamManagerEdge, RejectsMixedBatch) {
  Fabric cluster(cfg(2).fabric());
  StreamManager m(cluster.worker(0));
  std::vector<float> in(8), out(8);
  m.submit(in, out, 1.0, nullptr);
  EXPECT_THROW(m.submit(64, nullptr), std::invalid_argument);
  m.flush(); // a flush closes the batch: the next one may be of the other kind
  m.submit(64, nullptr);
  EXPECT_THROW(m.submit(in, out, 1.0, nullptr), std::invalid_argument);
}

TEST(StreamManagerEdge, ZeroElementTensorCompletesWithItsBatch) {
  Fabric cluster(cfg(2).fabric());
  std::vector<float> empty;
  std::vector<float> a0(40, 1.0f), a1(40, 2.0f), o0(40), o1(40);
  StreamManager m0(cluster.worker(0)), m1(cluster.worker(1));
  int alone = 0, beside = 0;
  // Alone in its batch, then first in a batch with a non-empty tensor.
  m0.submit(empty, empty, 1.0, [&] { ++alone; });
  m0.flush();
  m0.submit(empty, empty, 1.0, [&] { ++beside; });
  m0.submit(a0, o0, 1.0, nullptr);
  m0.flush();
  m1.submit(empty, empty, 1.0, nullptr);
  m1.flush();
  m1.submit(empty, empty, 1.0, nullptr);
  m1.submit(a1, o1, 1.0, nullptr);
  m1.flush();
  cluster.simulation().run();
  EXPECT_EQ(alone, 1);
  EXPECT_EQ(beside, 1);
  EXPECT_EQ(m0.tensors_completed(), 3u);
  EXPECT_TRUE(m0.idle());
  for (float v : o0) ASSERT_EQ(v, 3.0f);
}

TEST(StreamManagerEdge, RunsSizeOnlyTensorsBackToBackInOrder) {
  ClusterConfig c = cfg(2);
  c.timing_only = true;
  Fabric cluster(c.fabric());
  StreamManager m0(cluster.worker(0)), m1(cluster.worker(1));
  std::vector<int> order;
  for (int t = 0; t < 3; ++t) {
    m0.submit(1000, [&order, t] { order.push_back(t); });
    m0.flush();
    m1.submit(1000, nullptr);
    m1.flush();
  }
  cluster.simulation().run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(m0.idle());
  EXPECT_EQ(m0.tensors_completed(), 3u);
}

TEST(StreamManagerEdge, OneTensorSizeOnlyBatchIsOneReductionOfItsSize) {
  // 1000 elements is not a whole number of packets: the lone tensor is not
  // padded, so its batch is exactly Worker::start_reduction(1000).
  const std::uint64_t elems = 1000;
  ClusterConfig c = cfg(3);
  c.timing_only = true;
  std::vector<Time> direct(3), streamed(3);
  {
    Fabric cluster(c.fabric());
    for (int w = 0; w < 3; ++w)
      cluster.worker(w).start_reduction(elems, [&direct, &cluster, w] {
        direct[static_cast<std::size_t>(w)] = cluster.simulation().now();
      });
    cluster.simulation().run();
  }
  {
    Fabric cluster(c.fabric());
    std::vector<std::unique_ptr<StreamManager>> ms;
    for (int w = 0; w < 3; ++w) {
      ms.push_back(std::make_unique<StreamManager>(cluster.worker(w)));
      ms.back()->submit(elems, [&streamed, &cluster, w] {
        streamed[static_cast<std::size_t>(w)] = cluster.simulation().now();
      });
      ms.back()->flush();
    }
    cluster.simulation().run();
    EXPECT_EQ(cluster.worker(0).counters().updates_sent, (elems + 31) / 32);
  }
  EXPECT_EQ(streamed, direct);
}

TEST(StreamManagerEdge, LateWorkerFormsTheSameBatches) {
  // Worker 1 loses its first result and finishes its first batch one RTO
  // late, after both workers flushed a second and a third tensor. Batches
  // are flushes, so it still reduces the second and third tensors as two
  // reductions, like worker 0; joining them into one would leave the two
  // workers' slots at different phases (2,049 chunks over a pool of 2) and
  // the switch would add different chunks of the third tensor together.
  ClusterConfig c = cfg(2);
  c.pool_size = 2;
  Fabric cluster(c.fabric());
  const auto& sw = cluster.root();
  bool dropped = false;
  cluster.link(1).set_drop_filter([&](const net::Node& sender, const net::Packet& p) {
    if (&sender != &sw || p.kind != net::PacketKind::SmlResult || dropped) return false;
    dropped = true;
    return true;
  });

  const std::size_t sizes[] = {64, 65'568, 4'096};
  const Time at[] = {0, usec(100), usec(150)};
  std::vector<std::vector<float>> in[2], out[2];
  for (std::size_t w = 0; w < 2; ++w) {
    for (std::size_t n : sizes) {
      std::vector<float> v(n);
      for (std::size_t j = 0; j < n; ++j) v[j] = static_cast<float>((w + 1) * (j % 512));
      in[w].push_back(std::move(v));
      out[w].emplace_back(n, -1.0f);
    }
  }
  StreamManager m0(cluster.worker(0)), m1(cluster.worker(1));
  StreamManager* ms[] = {&m0, &m1};
  for (std::size_t t = 0; t < 3; ++t) {
    cluster.simulation().schedule_at(at[t], [&, t] {
      for (std::size_t w = 0; w < 2; ++w) {
        ms[w]->submit(in[w][t], out[w][t], 1.0, nullptr);
        ms[w]->flush();
      }
    });
  }
  cluster.simulation().run();

  ASSERT_TRUE(dropped);
  for (std::size_t w = 0; w < 2; ++w) {
    EXPECT_EQ(ms[w]->tensors_completed(), 3u) << "worker " << w;
    for (std::size_t t = 0; t < 3; ++t)
      for (std::size_t j = 0; j < sizes[t]; ++j)
        ASSERT_EQ(out[w][t][j], static_cast<float>(3 * (j % 512)))
            << "worker " << w << " tensor " << t << " element " << j;
  }
  // Only worker 1's lost result timed out; nothing stalled on a mismatch.
  EXPECT_EQ(cluster.worker(0).counters().timeouts + cluster.worker(1).counters().timeouts, 1u);
}

TEST(StreamManagerEdge, DestroyedManagerLeavesNoChunkHandler) {
  // A manager installs itself as its worker's chunk handler; once it is
  // gone, a reduction on that worker must not call into it (ASan checks).
  ClusterConfig c = cfg(2);
  c.timing_only = true;
  Fabric cluster(c.fabric());
  auto m = std::make_unique<StreamManager>(cluster.worker(0));
  m.reset();
  const std::vector<Time> tat = cluster.reduce_timing(1024);
  EXPECT_GT(tat[0], 0);
}

} // namespace
} // namespace switchml::core
