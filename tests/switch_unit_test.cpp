// AggregationSwitch unit tests: configuration validation, dataplane
// constraint compliance, resource accounting, the slot-packet exits that
// only a hand-made packet reaches, and the ablation flags.
#include <gtest/gtest.h>

#include <memory>

#include "core/cluster.hpp"
#include "quant/float16.hpp"
#include "switchml_switch/aggregation_switch.hpp"

namespace switchml::swprog {
namespace {

TEST(SwitchConfig, RejectsTooManyWorkersPerPipeline) {
  sim::Simulation sim;
  AggregationSwitch sw(sim, 1, "sw", AggregationConfig{});
  JobParams job;
  job.n_workers = 33; // one pipeline handles at most 32 directly-attached workers
  EXPECT_THROW(sw.admit_job(0, job), std::invalid_argument);
  job.n_workers = 0;
  EXPECT_THROW(sw.admit_job(0, job), std::invalid_argument);
}

TEST(SwitchConfig, RejectsZeroPool) {
  sim::Simulation sim;
  AggregationSwitch sw(sim, 1, "sw", AggregationConfig{});
  JobParams job;
  job.pool_size = 0;
  EXPECT_THROW(sw.admit_job(0, job), std::invalid_argument);
}

TEST(SwitchConfig, RejectsOversizedPacketsWithoutMtuEmulation) {
  sim::Simulation sim;
  AggregationConfig cfg;
  cfg.elems_per_packet = 366; // beyond the 32-element ASIC budget (§3.4)
  EXPECT_THROW(AggregationSwitch(sim, 1, "sw", cfg), std::invalid_argument);
  cfg.mtu_emulation = true;
  EXPECT_NO_THROW(AggregationSwitch(sim, 1, "sw", cfg));
}

TEST(SwitchResources, RegisterBytesScaleWithPool) {
  sim::Simulation sim;
  JobParams a;
  a.pool_size = 128;
  JobParams b = a;
  b.pool_size = 512;
  AggregationSwitch sa(sim, 1, "a", AggregationConfig{});
  AggregationSwitch sb(sim, 2, "b", AggregationConfig{});
  ASSERT_TRUE(sa.admit_job(0, a));
  ASSERT_TRUE(sb.admit_job(0, b));
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
  const JobParams job;
  ASSERT_TRUE(sw.admit_job(0, job));
  EXPECT_EQ(sw.register_bytes(), 2u * job.pool_size * 8u); // seen + count only
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

// ------------------------------------------------ packets injected at the root

// A 3-worker data-mode rack whose switch receives hand-made sealed packets
// for slot 0, version 0. Whatever the switch sends toward worker 0 is
// recorded and kept off the wire.
class InjectedRack {
public:
  explicit InjectedRack(std::uint8_t elem_bytes = 4, bool mtu = false, bool lossless = false)
      : elem_bytes_(elem_bytes) {
    core::ClusterConfig cfg;
    cfg.n_workers = 3;
    cfg.pool_size = 4;
    cfg.wire_elem_bytes = elem_bytes;
    cfg.mtu_emulation = mtu;
    if (mtu) cfg.elems_per_packet = net::kMtuElemsPerPacket;
    cfg.lossless = lossless;
    fabric_ = std::make_unique<core::Fabric>(cfg.fabric());
    fabric_->link(0).set_drop_filter([this](const net::Node& sender, const net::Packet& p) {
      if (sender.id() == sw().id()) to_worker0.push_back(p);
      return true;
    });
  }

  AggregationSwitch& sw() { return fabric_->root(); }

  net::Packet packet(net::PacketKind kind, int wid, const std::vector<std::int32_t>& values,
                     std::uint64_t off = 0, std::uint8_t job = 0) const {
    net::Packet p;
    p.kind = kind;
    p.src = static_cast<net::NodeId>(wid);
    p.dst = fabric_->root().id();
    p.job = job;
    p.wid = static_cast<std::uint16_t>(wid);
    p.off = off;
    p.elem_count = static_cast<std::uint32_t>(values.size());
    p.elem_bytes = elem_bytes_;
    p.values = values;
    p.seal();
    return p;
  }

  void inject(net::Packet p) {
    const int port = p.wid;
    sw().receive(std::move(p), port);
  }

  // Injects `p` and expects it to raise rescues_ignored and nothing else.
  void expect_ignored(net::Packet p) {
    AggregationSwitch::Counters want = sw().counters();
    ++want.rescues_ignored;
    const std::size_t sent = to_worker0.size();
    inject(std::move(p));
    EXPECT_EQ(counter_values(sw().counters()), counter_values(want));
    EXPECT_EQ(to_worker0.size(), sent);
  }

  static std::vector<std::uint64_t> counter_values(const AggregationSwitch::Counters& c) {
    return {c.updates_received, c.duplicate_updates, c.completions,    c.results_multicast,
            c.unicast_replies,  c.upstream_partials, c.results_from_parent,
            c.unknown_job_drops, c.checksum_drops,   c.restarts,       c.sync_replies,
            c.rescues_applied,  c.rescues_ignored,   c.dead_drops};
  }

  std::vector<net::Packet> to_worker0;

private:
  std::uint8_t elem_bytes_;
  std::unique_ptr<core::Fabric> fabric_;
};

// Slot 0's result for `values` (one vector per worker) completed by three
// updates, and completed by two updates plus worker 2's rescue.
std::pair<std::vector<std::int32_t>, std::vector<std::int32_t>> results_with_and_without_rescue(
    const std::vector<std::vector<std::int32_t>>& values, std::uint8_t elem_bytes, bool mtu) {
  std::vector<std::int32_t> out[2];
  for (const bool rescue : {false, true}) {
    InjectedRack rack(elem_bytes, mtu);
    rack.inject(rack.packet(net::PacketKind::SmlUpdate, 0, values[0]));
    rack.inject(rack.packet(net::PacketKind::SmlUpdate, 1, values[1]));
    rack.inject(rack.packet(rescue ? net::PacketKind::SmlRescue : net::PacketKind::SmlUpdate, 2,
                            values[2]));
    const auto& c = rack.sw().counters();
    EXPECT_EQ(c.completions, 1u);
    EXPECT_EQ(c.rescues_applied, rescue ? 1u : 0u);
    EXPECT_EQ(c.updates_received, rescue ? 2u : 3u);
    EXPECT_EQ(rack.to_worker0.size(), 1u);
    if (rack.to_worker0.empty()) continue;
    EXPECT_EQ(rack.to_worker0[0].kind, net::PacketKind::SmlResult);
    EXPECT_TRUE(rack.to_worker0[0].verify());
    out[rescue] = rack.to_worker0[0].values;
  }
  return {out[0], out[1]};
}

TEST(SwitchRescue, CompletesLikeAThirdUpdateInt32) {
  const std::vector<std::vector<std::int32_t>> values = {
      std::vector<std::int32_t>(32, 7), std::vector<std::int32_t>(32, -300),
      std::vector<std::int32_t>(32, 1 << 20)};
  const auto [updates, rescued] = results_with_and_without_rescue(values, 4, false);
  EXPECT_EQ(rescued, updates);
  EXPECT_EQ(updates, std::vector<std::int32_t>(32, 7 - 300 + (1 << 20)));
}

TEST(SwitchRescue, CompletesLikeAThirdUpdateFp16) {
  const auto half = [](float f) {
    return std::vector<std::int32_t>(32, static_cast<std::int32_t>(quant::float_to_half(f)));
  };
  const auto [updates, rescued] =
      results_with_and_without_rescue({half(1.5f), half(2.25f), half(-0.5f)}, 2, false);
  EXPECT_EQ(rescued, updates);
  EXPECT_EQ(updates, half(3.25f)); // ingress to fixed point, egress back to binary16
}

TEST(SwitchRescue, CompletesLikeAThirdUpdateWithMtuEmulation) {
  std::vector<std::vector<std::int32_t>> values(3, std::vector<std::int32_t>(366));
  for (int w = 0; w < 3; ++w)
    for (int j = 0; j < 366; ++j) values[w][j] = 1000 * w + j;
  const auto [updates, rescued] = results_with_and_without_rescue(values, 4, true);
  EXPECT_EQ(rescued, updates);
  ASSERT_EQ(updates.size(), 366u);
  // The first kHwElemsLimit elements are aggregated; the rest pass through
  // from the completing packet (worker 2's).
  for (int j = 0; j < 366; ++j)
    EXPECT_EQ(updates[j], j < 32 ? 3 * j + 3000 : values[2][j]) << "element " << j;
}

TEST(SwitchRescue, StaleAndRepeatedRescuesAreIgnored) {
  InjectedRack rack;
  const std::vector<std::int32_t> ones(32, 1), tens(32, 10), hundreds(32, 100);
  rack.inject(rack.packet(net::PacketKind::SmlUpdate, 0, ones)); // claims offset 0
  rack.inject(rack.packet(net::PacketKind::SmlRescue, 1, tens));
  ASSERT_EQ(rack.sw().counters().rescues_applied, 1u);
  // Repeated: worker 1's rescue bit is already set for this phase.
  rack.expect_ignored(rack.packet(net::PacketKind::SmlRescue, 1, tens));
  // Wrong offset: the version is aggregating offset 0, not 32.
  rack.expect_ignored(rack.packet(net::PacketKind::SmlRescue, 2, hundreds, 32));
  rack.inject(rack.packet(net::PacketKind::SmlUpdate, 2, hundreds));
  ASSERT_EQ(rack.to_worker0.size(), 1u);
  // Worker 1 contributed exactly once.
  EXPECT_EQ(rack.to_worker0[0].values, std::vector<std::int32_t>(32, 111));
  // After completion: another worker's rescue meets a count of 0.
  rack.expect_ignored(rack.packet(net::PacketKind::SmlRescue, 0, ones));
}

TEST(SwitchRescue, LosslessSwitchIgnoresRescues) {
  InjectedRack rack(4, false, /*lossless=*/true);
  const std::vector<std::int32_t> ones(32, 1);
  rack.inject(rack.packet(net::PacketKind::SmlUpdate, 0, ones));
  rack.expect_ignored(rack.packet(net::PacketKind::SmlRescue, 1, ones));
}

TEST(SwitchSlotPackets, UnknownJobAndCorruptedQueriesAndRescuesAreDropped) {
  InjectedRack rack;
  for (const auto kind : {net::PacketKind::SmlSyncQuery, net::PacketKind::SmlRescue}) {
    const std::vector<std::int32_t> values =
        kind == net::PacketKind::SmlRescue ? std::vector<std::int32_t>(32, 1)
                                           : std::vector<std::int32_t>{};
    AggregationSwitch::Counters want = rack.sw().counters();
    ++want.unknown_job_drops;
    rack.inject(rack.packet(kind, 0, values, 0, /*job=*/5));
    EXPECT_EQ(InjectedRack::counter_values(rack.sw().counters()),
              InjectedRack::counter_values(want));

    ++want.checksum_drops;
    net::Packet corrupted = rack.packet(kind, 0, values);
    corrupted.off ^= 1; // flipped on the wire after the sender sealed it
    rack.inject(std::move(corrupted));
    EXPECT_EQ(InjectedRack::counter_values(rack.sw().counters()),
              InjectedRack::counter_values(want));
  }
  EXPECT_TRUE(rack.to_worker0.empty());
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
