// Executable versions of the paper's headline experimental claims, at
// reduced scale so they run in CI time. Each test asserts the SHAPE of a
// table/figure (orderings, ratios, crossovers) — the full bench binaries
// print the complete series.
#include <gtest/gtest.h>

#include "collectives/baseline_cluster.hpp"
#include "collectives/bounds.hpp"
#include "collectives/ring.hpp"
#include "core/cluster.hpp"
#include "core/profiles.hpp"

namespace switchml {
namespace {

constexpr std::uint64_t kElems = 256 * 1024; // 1 MB tensor

double switchml_ate(BitsPerSecond rate, int workers, std::uint32_t pool = 0,
                    double loss = 0.0, std::uint8_t elem_bytes = 4, bool mtu = false,
                    bool adaptive_rto = false) {
  core::ClusterConfig cfg = core::ClusterConfig::for_rate(rate, workers);
  // These shapes are calibrated against the paper's DPDK/UDP datapath, so
  // the suite names it.
  cfg.transport = net::TransportKind::kUdp;
  cfg.timing_only = true;
  cfg.loss_prob = loss;
  cfg.wire_elem_bytes = elem_bytes;
  cfg.adaptive_rto = adaptive_rto;
  if (pool) cfg.pool_size = pool;
  if (mtu) {
    cfg.elems_per_packet = net::kMtuElemsPerPacket;
    cfg.mtu_emulation = true;
  }
  core::Fabric cluster(cfg.fabric());
  auto tats = cluster.reduce_timing(kElems);
  return static_cast<double>(kElems) / to_sec(tats[static_cast<std::size_t>(workers / 2)]);
}

double ring_ate(const core::BaselineProfile& profile, BitsPerSecond rate, int workers,
                double loss = 0.0) {
  collectives::BaselineClusterConfig cfg;
  cfg.n_hosts = workers;
  cfg.link_rate = rate;
  cfg.loss_prob = loss;
  cfg.nic = profile.nic;
  collectives::BaselineCluster cluster(cfg);
  collectives::RingAllReduce ring(cluster, profile.transport);
  const Time t = ring.run(static_cast<std::int64_t>(kElems) * 4);
  return static_cast<double>(kElems) / to_sec(t);
}

double ps_ate(core::PsPlacement placement, BitsPerSecond rate, int workers) {
  core::FabricConfig cfg(core::ClusterConfig::for_rate(rate),
                         core::StreamingPsSpec{workers, placement});
  cfg.nic = core::ps_host_nic(rate);
  cfg.timing_only = true;
  core::Fabric cluster(cfg);
  auto tats = cluster.reduce_timing(kElems);
  return static_cast<double>(kElems) / to_sec(tats[0]);
}

// ---- Fig 4 ------------------------------------------------------------------

TEST(PaperShapes, Fig4SwitchMlSaturates10GbpsWithFourCores) {
  const double line = collectives::switchml_ate_rate(gbps(10), 32);
  EXPECT_GT(switchml_ate(gbps(10), 8), 0.97 * line);
}

TEST(PaperShapes, Fig4SwitchMlBelowLineAt100GbpsIsTheFourCoreBound) {
  // §5.1: 4 cores cannot sustain 100 Gbps line rate; the paper calls its
  // 100G numbers a lower bound. We land at 70-90% of line.
  const double line = collectives::switchml_ate_rate(gbps(100), 32);
  const double ate = switchml_ate(gbps(100), 8);
  EXPECT_GT(ate, 0.65 * line);
  EXPECT_LT(ate, 0.95 * line);
}

TEST(PaperShapes, Fig4SwitchMlRateIndependentOfWorkerCount) {
  const double a4 = switchml_ate(gbps(10), 4);
  const double a16 = switchml_ate(gbps(10), 16);
  EXPECT_NEAR(a16 / a4, 1.0, 0.02);
}

TEST(PaperShapes, Fig4StrategyOrderingAt10Gbps) {
  const double sml = switchml_ate(gbps(10), 8);
  const double nccl = ring_ate(core::nccl_tcp(gbps(10)), gbps(10), 8);
  const double gloo = ring_ate(core::gloo_tcp(gbps(10)), gbps(10), 8);
  EXPECT_GT(sml, 1.5 * nccl); // SwitchML well ahead of the best baseline
  EXPECT_GT(nccl, 1.3 * gloo);
}

TEST(PaperShapes, Fig4DedicatedPsMatchesSwitchMlColocatedHalves) {
  const double sml = switchml_ate(gbps(10), 8);
  const double dedicated = ps_ate(core::PsPlacement::Dedicated, gbps(10), 8);
  const double colocated = ps_ate(core::PsPlacement::Colocated, gbps(10), 8);
  EXPECT_GT(dedicated, 0.85 * sml); // "matches, with 2x the machines"
  EXPECT_LT(colocated, 0.65 * dedicated);
  EXPECT_GT(colocated, 0.40 * dedicated);
}

TEST(PaperShapes, Sec54RdmaSpeedsUpGlooSeveralFold) {
  const double tcp = ring_ate(core::gloo_tcp(gbps(100)), gbps(100), 8);
  const double rdma = ring_ate(core::gloo_rdma(gbps(100)), gbps(100), 8);
  EXPECT_GT(rdma / tcp, 3.0);
  EXPECT_LT(rdma / tcp, 10.0);
}

// ---- Fig 2 ------------------------------------------------------------------

TEST(PaperShapes, Fig2TatDropsUntilBdpThenFlat) {
  const double tiny_pool = switchml_ate(gbps(10), 8, 32);
  const double paper_pool = switchml_ate(gbps(10), 8, 128);
  const double big_pool = switchml_ate(gbps(10), 8, 1024);
  EXPECT_GT(paper_pool, 1.5 * tiny_pool);          // below BDP: starved
  EXPECT_NEAR(big_pool / paper_pool, 1.0, 0.03);   // beyond BDP: flat
}

TEST(PaperShapes, Fig2RttGrowsWithPoolSizeBeyondBdp) {
  auto rtt_at = [](std::uint32_t pool) {
    core::ClusterConfig cfg = core::ClusterConfig::for_rate(gbps(10), 8);
    cfg.timing_only = true;
    cfg.pool_size = pool;
    core::Fabric cluster(cfg.fabric());
    cluster.reduce_timing(kElems);
    return cluster.worker(0).rtt().median();
  };
  EXPECT_GT(rtt_at(1024), 3.0 * rtt_at(64));
}

TEST(PaperShapes, Sec36RecommendedPoolSizeMatchesDeployment) {
  // The paper uses 128 at 10 Gbps and 512 at 100 Gbps.
  EXPECT_EQ(core::recommended_pool_size(gbps(10), usec(10), 180), 128u);
  EXPECT_EQ(core::recommended_pool_size(gbps(100), nsec(6'700), 180), 512u);
}

// ---- Fig 5 ------------------------------------------------------------------

TEST(PaperShapes, Fig5SwitchMlInflatesLessThanGlooUnderLoss) {
  // SwitchML with the §6 adaptive RTO (recovery in ~4 RTTs per slot) vs the
  // TCP baseline whose AIMD window collapses under random loss.
  const double loss = 0.005;
  const double sml_inflation = switchml_ate(gbps(10), 4, 0, 0.0, 4, false, true) /
                               switchml_ate(gbps(10), 4, 0, loss, 4, false, true);
  const double gloo_clean = ring_ate(core::gloo_tcp(gbps(10)), gbps(10), 4);
  const double gloo_lossy = ring_ate(core::gloo_tcp(gbps(10)), gbps(10), 4, loss);
  const double gloo_inflation = gloo_clean / gloo_lossy;
  EXPECT_GT(gloo_inflation, 1.5 * sml_inflation);
  EXPECT_LT(sml_inflation, 2.0); // SwitchML barely notices 0.5% loss
}

// ---- Fig 7 ------------------------------------------------------------------

TEST(PaperShapes, Fig7MtuPacketsImproveTatByHeaderRatio) {
  const double small_pkt = switchml_ate(gbps(10), 8);
  const double mtu = switchml_ate(gbps(10), 8, 0, 0.0, 4, /*mtu=*/true);
  // §5.5: the MTU variant cuts header overhead 28.9% -> 3.4%, improving TAT
  // by ~31.6% (i.e., rate by ~1.36x).
  EXPECT_NEAR(mtu / small_pkt, 1.36, 0.05);
}

// ---- Fig 8 ------------------------------------------------------------------

// ---- §6 ----------------------------------------------------------------

TEST(PaperShapes, Sec6HierarchyHoldsLineRateAcrossRacks) {
  core::FabricConfig cfg;
  cfg.topology = core::HierarchySpec{.racks = 2, .workers_per_rack = 8};
  cfg.transport = net::TransportKind::kUdp; // line-rate claim is UDP-calibrated
  cfg.timing_only = true;
  cfg.nic = core::switchml_worker_nic_10g();
  core::Fabric h(cfg);
  auto tats = h.reduce_timing(kElems);
  const double ate = static_cast<double>(kElems) / to_sec(tats[0]);
  EXPECT_GT(ate, 0.97 * collectives::switchml_ate_rate(gbps(10), 32));
}

TEST(PaperShapes, Sec6ConcurrentJobsKeepFullRate) {
  core::FabricConfig cfg;
  cfg.topology = core::MultiJobSpec{.n_jobs = 4, .workers_per_job = 4};
  cfg.transport = net::TransportKind::kUdp; // line-rate claim is UDP-calibrated
  cfg.timing_only = true;
  core::Fabric cluster(cfg);
  auto tats = cluster.reduce_timing_all(kElems);
  for (const auto& job : tats)
    for (Time t : job) {
      const double ate = static_cast<double>(kElems) / to_sec(t);
      EXPECT_GT(ate, 0.97 * collectives::switchml_ate_rate(gbps(10), 32));
    }
}

// ---- Fig 8 -----------------------------------------------------------------

TEST(PaperShapes, Fig8Float16CutsWireTimeByThePayloadRatio) {
  const double f32 = switchml_ate(gbps(10), 8);
  const double f16 = switchml_ate(gbps(10), 8, 0, 0.0, /*elem_bytes=*/2);
  // 32 elements travel in 180 B (f32) vs 116 B (f16): rate ratio 180/116.
  EXPECT_NEAR(f16 / f32, 180.0 / 116.0, 0.05);
}

} // namespace
} // namespace switchml
