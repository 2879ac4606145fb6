// §3.2 lossless mode: literal Algorithms 1/2 for Infiniband/RoCE fabrics.
// No bitmaps, shadow copies, version bits or timers — and about half the
// dataplane SRAM — but only correct when the network never drops.
#include <gtest/gtest.h>

#include <string>

#include "core/cluster.hpp"
#include "sim/rng.hpp"

namespace switchml::core {
namespace {

// §3.2's lossless fabrics are Infiniband and lossless RoCE, which is RDMA:
// every test runs over UDP and over RDMA UC.
constexpr net::TransportKind kTransports[] = {net::TransportKind::kUdp,
                                              net::TransportKind::kRdmaUc};

std::string transport_name(net::TransportKind t) {
  return t == net::TransportKind::kUdp ? "UDP" : "RDMA UC";
}

ClusterConfig lossless_cfg(int n, net::TransportKind transport) {
  ClusterConfig c;
  c.n_workers = n;
  c.pool_size = 16;
  c.lossless = true;
  c.transport = transport;
  return c;
}

std::vector<std::vector<std::int32_t>> updates_for(int n, std::size_t d) {
  sim::Rng rng = sim::Rng::stream(555, "lossless");
  std::vector<std::vector<std::int32_t>> u(static_cast<std::size_t>(n),
                                           std::vector<std::int32_t>(d));
  for (auto& v : u)
    for (auto& e : v) e = static_cast<std::int32_t>(rng.uniform_int(-10000, 10000));
  return u;
}

TEST(Lossless, Algorithm1AggregatesExactly) {
  for (net::TransportKind t : kTransports) {
    SCOPED_TRACE(transport_name(t));
    Fabric cluster(lossless_cfg(4, t).fabric());
    auto updates = updates_for(4, 8192);
    auto result = cluster.reduce_i32(updates);
    std::vector<std::int32_t> expect(8192, 0);
    for (const auto& v : updates)
      for (std::size_t i = 0; i < v.size(); ++i) expect[i] += v[i];
    for (int w = 0; w < 4; ++w) EXPECT_EQ(result.outputs[static_cast<std::size_t>(w)], expect);
    // Algorithm 2 sends exactly one packet per chunk: no timers ever fire.
    EXPECT_EQ(cluster.worker(0).counters().timeouts, 0u);
    EXPECT_EQ(cluster.worker(0).counters().retransmissions, 0u);
  }
}

TEST(Lossless, ConsecutiveReductionsReuseSlots) {
  for (net::TransportKind t : kTransports) {
    SCOPED_TRACE(transport_name(t));
    Fabric cluster(lossless_cfg(3, t).fabric());
    for (int round = 0; round < 3; ++round) {
      auto updates = updates_for(3, 2048 + 32 * round);
      auto result = cluster.reduce_i32(updates);
      std::vector<std::int32_t> expect(updates[0].size(), 0);
      for (const auto& v : updates)
        for (std::size_t i = 0; i < v.size(); ++i) expect[i] += v[i];
      ASSERT_EQ(result.outputs[0], expect) << "round " << round;
    }
  }
}

TEST(Lossless, UsesRoughlyHalfTheSram) {
  for (net::TransportKind t : kTransports) {
    SCOPED_TRACE(transport_name(t));
    ClusterConfig full_cfg = lossless_cfg(8, t);
    full_cfg.lossless = false;
    Fabric full(full_cfg.fabric());
    Fabric lossless(lossless_cfg(8, t).fabric());
    const auto full_bytes = full.root().register_bytes();
    const auto ll_bytes = lossless.root().register_bytes();
    // (2 + k) 64-bit words vs (1 + k) 32-bit words per slot.
    EXPECT_LT(ll_bytes * 2, full_bytes);
    EXPECT_GT(ll_bytes * 3, full_bytes);
  }
}

TEST(Lossless, MatchesLossTolerantThroughput) {
  for (net::TransportKind t : kTransports) {
    SCOPED_TRACE(transport_name(t));
    ClusterConfig a = lossless_cfg(8, t);
    a.timing_only = true;
    a.pool_size = 128;
    ClusterConfig b = a;
    b.lossless = false;
    Time ta, tb;
    {
      Fabric c(a.fabric());
      ta = c.reduce_timing(256 * 1024)[0];
    }
    {
      Fabric c(b.fabric());
      tb = c.reduce_timing(256 * 1024)[0];
    }
    // The recovery state costs SRAM, not throughput (§3.5).
    EXPECT_NEAR(static_cast<double>(ta) / static_cast<double>(tb), 1.0, 0.01);
  }
}

TEST(Lossless, RefusesLossyConfiguration) {
  for (net::TransportKind t : kTransports) {
    SCOPED_TRACE(transport_name(t));
    ClusterConfig cfg = lossless_cfg(2, t);
    cfg.loss_prob = 0.01;
    EXPECT_THROW(Fabric{cfg.fabric()}, std::invalid_argument);
  }
}

TEST(Lossless, DeadlocksIfTheFabricLiesAboutLosslessness) {
  // Motivation for Algorithm 3: inject one drop into a "lossless" run and
  // the aggregation can never complete (no timers to repair it).
  for (net::TransportKind t : kTransports) {
    SCOPED_TRACE(transport_name(t));
    Fabric cluster(lossless_cfg(2, t).fabric());
    bool dropped = false;
    cluster.link(1).set_drop_filter([&](const net::Node& sender, const net::Packet& p) {
      if (!dropped && p.kind == net::PacketKind::SmlUpdate && sender.id() == 1) {
        dropped = true;
        return true;
      }
      return false;
    });
    std::vector<std::int32_t> u0(64, 1), u1(64, 2), o0(64), o1(64);
    int done = 0;
    cluster.worker(0).start_reduction(u0, o0, [&] { ++done; });
    cluster.worker(1).start_reduction(u1, o1, [&] { ++done; });
    cluster.simulation().run_until(msec(100));
    EXPECT_TRUE(dropped);
    EXPECT_EQ(done, 0);
  }
}

} // namespace
} // namespace switchml::core
