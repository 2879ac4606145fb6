// AggregationSwitch unit tests: configuration validation, dataplane
// constraint compliance, resource accounting, and the ablation flags.
#include <gtest/gtest.h>

#include "core/cluster.hpp"
#include "switchml_switch/aggregation_switch.hpp"

namespace switchml::swprog {
namespace {

TEST(SwitchConfig, RejectsTooManyWorkersPerPipeline) {
  sim::Simulation sim;
  AggregationConfig cfg;
  cfg.n_workers = 33; // one pipeline handles at most 32 directly-attached workers
  EXPECT_THROW(AggregationSwitch(sim, 1, "sw", cfg), std::invalid_argument);
  cfg.n_workers = 0;
  EXPECT_THROW(AggregationSwitch(sim, 1, "sw", cfg), std::invalid_argument);
}

TEST(SwitchConfig, RejectsZeroPool) {
  sim::Simulation sim;
  AggregationConfig cfg;
  cfg.pool_size = 0;
  EXPECT_THROW(AggregationSwitch(sim, 1, "sw", cfg), std::invalid_argument);
}

TEST(SwitchConfig, RejectsOversizedPacketsWithoutMtuEmulation) {
  sim::Simulation sim;
  AggregationConfig cfg;
  cfg.elems_per_packet = 366; // beyond the 32-element ASIC budget (§3.4)
  EXPECT_THROW(AggregationSwitch(sim, 1, "sw", cfg), std::invalid_argument);
  cfg.mtu_emulation = true;
  EXPECT_NO_THROW(AggregationSwitch(sim, 1, "sw", cfg));
}

TEST(SwitchConfig, LeafRequiresParentPort) {
  sim::Simulation sim;
  AggregationConfig cfg;
  EXPECT_THROW(AggregationSwitch(sim, 1, "leaf", cfg, SwitchRole::Leaf), std::invalid_argument);
}

TEST(SwitchResources, RegisterBytesScaleWithPool) {
  sim::Simulation sim;
  AggregationConfig a;
  a.pool_size = 128;
  AggregationConfig b = a;
  b.pool_size = 512;
  AggregationSwitch sa(sim, 1, "a", a);
  AggregationSwitch sb(sim, 2, "b", b);
  EXPECT_EQ(sb.register_bytes(), 4 * sa.register_bytes());
  // §3.6: 128 slots at 10 Gbps -> 32 KB of pool value registers (the paper
  // counts 32-bit slots; both versions of one element share a 64-bit word).
  EXPECT_EQ(sa.register_bytes(), (32u + 2u) * 128u * 8u);
}

TEST(SwitchResources, TimingOnlySkipsValueRegisters) {
  sim::Simulation sim;
  AggregationConfig cfg;
  cfg.timing_only = true;
  AggregationSwitch sw(sim, 1, "sw", cfg);
  EXPECT_EQ(sw.register_bytes(), 2u * cfg.pool_size * 8u); // seen + count only
}

TEST(SwitchDataplane, AccessCountsMatchProtocol) {
  // Every fresh update touches seen + count + 32 pool arrays = 34 accesses.
  core::ClusterConfig cfg;
  cfg.n_workers = 2;
  cfg.pool_size = 4;
  core::Fabric cluster(cfg.fabric());
  std::vector<std::vector<std::int32_t>> updates(2, std::vector<std::int32_t>(32 * 4));
  cluster.reduce_i32(updates);
  const auto& pipe = cluster.root().pipeline();
  EXPECT_EQ(pipe.packets_processed(), 8u); // 2 workers x 4 chunks
  EXPECT_EQ(pipe.register_accesses(), 8u * 34u);
}

// --------------------------------------------------------------- ablations

TEST(Ablation, NoSeenBitmapCorruptsUnderAsymmetricDuplicates) {
  // §3.5's motivating hazard: a worker that missed a (lost) result
  // retransmits an update the switch already aggregated. Without the seen
  // bitmap the duplicate is applied AGAIN — here worker 0's retransmissions
  // restart the slot and produce 1+1=2 instead of the true 1+5=6.
  core::ClusterConfig cfg;
  cfg.n_workers = 2;
  cfg.pool_size = 4;
  cfg.ablate_seen_bitmap = true;
  core::Fabric cluster(cfg.fabric());
  bool dropped = false;
  cluster.link(0).set_drop_filter([&](const net::Node& sender, const net::Packet& p) {
    if (!dropped && p.kind == net::PacketKind::SmlResult && sender.id() >= 100) {
      dropped = true;
      return true;
    }
    return false;
  });
  // Distinct per-worker values so double-counted duplicates are detectable.
  std::vector<std::vector<std::int32_t>> updates = {
      std::vector<std::int32_t>(32 * 8, 1), std::vector<std::int32_t>(32 * 8, 5)};

  std::vector<std::vector<std::int32_t>> outputs(2, std::vector<std::int32_t>(32 * 8, 0));
  int done = 0;
  for (int w = 0; w < 2; ++w)
    cluster.worker(w).start_reduction(updates[static_cast<std::size_t>(w)],
                                      outputs[static_cast<std::size_t>(w)],
                                      [&] { ++done; });
  cluster.simulation().run_until(msec(100));
  EXPECT_TRUE(dropped);
  if (done >= 1) {
    bool corrupted = false;
    for (int w = 0; w < 2; ++w)
      for (auto v : outputs[static_cast<std::size_t>(w)])
        if (v != 0 && v != 6) corrupted = true;
    EXPECT_TRUE(corrupted);
  } else {
    SUCCEED(); // protocol livelock is also a valid failure demonstration
  }
}

TEST(Ablation, NoShadowCopyDeadlocksOnResultLoss) {
  core::ClusterConfig cfg;
  cfg.n_workers = 2;
  cfg.pool_size = 2;
  cfg.ablate_shadow_copy = true;
  core::Fabric cluster(cfg.fabric());
  // Lose the first result packet toward worker 0 permanently.
  bool dropped = false;
  cluster.link(0).set_drop_filter([&](const net::Node& sender, const net::Packet& p) {
    if (!dropped && p.kind == net::PacketKind::SmlResult && sender.id() >= 100) {
      dropped = true;
      return true;
    }
    return false;
  });
  std::vector<std::int32_t> u(32 * 2, 1), out(32 * 2, 0);
  std::vector<std::int32_t> u2(32 * 2, 1), out2(32 * 2, 0);
  int done = 0;
  cluster.worker(0).start_reduction(u, out, [&] { ++done; });
  cluster.worker(1).start_reduction(u2, out2, [&] { ++done; });
  cluster.simulation().run_until(msec(50));
  EXPECT_LT(done, 2); // worker 0 can never recover the lost result
  EXPECT_TRUE(dropped);
}

TEST(Ablation, FullProtocolHandlesTheSameLoss) {
  core::ClusterConfig cfg;
  cfg.n_workers = 2;
  cfg.pool_size = 2;
  core::Fabric cluster(cfg.fabric());
  bool dropped = false;
  cluster.link(0).set_drop_filter([&](const net::Node& sender, const net::Packet& p) {
    if (!dropped && p.kind == net::PacketKind::SmlResult && sender.id() >= 100) {
      dropped = true;
      return true;
    }
    return false;
  });
  std::vector<std::int32_t> u(32 * 2, 1), out(32 * 2, 0);
  std::vector<std::int32_t> u2(32 * 2, 1), out2(32 * 2, 0);
  int done = 0;
  cluster.worker(0).start_reduction(u, out, [&] { ++done; });
  cluster.worker(1).start_reduction(u2, out2, [&] { ++done; });
  cluster.simulation().run_until(msec(50));
  EXPECT_EQ(done, 2);
  for (auto v : out) EXPECT_EQ(v, 2);
}

} // namespace
} // namespace switchml::swprog
