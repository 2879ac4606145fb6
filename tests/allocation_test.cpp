// Heap allocations on the steady-state packet path. A counting global
// operator new (this binary's own, because the replacement is global)
// measures a warm second reduction: the first one grows the event slab, the
// heaps, the streams' rings and the pipes' chunk maps to their working size.
// Each test bounds the allocations per SwitchML update, or per
// reliable-transport segment on the NCCL ring, from above, at the counts
// measured with its bound. A link direction or NIC lane that rolls recycles
// its chunks (net/pipe_fifo.hpp) and allocates nothing, as
// RollingPipesAllocateNothing pins; what is left is the chunks a pipe opens
// past its two spares when a reduction's first window bursts in, plus data
// mode's payload vectors. The transport is pinned to UDP, the bounds' own.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "collectives/baseline_cluster.hpp"
#include "collectives/ring.hpp"
#include "core/cluster.hpp"
#include "core/profiles.hpp"
#include "net/link.hpp"
#include "net/nic.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace switchml {
namespace {

// Allocations per unit of work in the second of two runs of `reduce`;
// `work` reads the cumulative unit count.
template <typename Reduce, typename Work>
double per_unit_when_warm(Reduce&& reduce, Work&& work) {
  reduce();
  const std::uint64_t allocs = g_allocations.load();
  const std::uint64_t units = work();
  reduce();
  const std::uint64_t spent = g_allocations.load() - allocs;
  return static_cast<double>(spent) / static_cast<double>(work() - units);
}

core::FabricConfig rack_100g(bool timing) {
  core::ClusterConfig cfg = core::ClusterConfig::for_rate(gbps(100), 8);
  cfg.timing_only = timing;
  cfg.transport = net::TransportKind::kUdp;
  return cfg.fabric();
}

std::uint64_t updates_sent(core::Fabric& f) {
  std::uint64_t n = 0;
  for (int i = 0; i < f.n_workers(); ++i) n += f.worker(i).counters().updates_sent;
  return n;
}

TEST(Allocations, TimingRackPerUpdate) {
  core::Fabric f(rack_100g(true));
  const double per_update =
      per_unit_when_warm([&] { f.reduce_timing(1 << 18); }, [&] { return updates_sent(f); });
  EXPECT_LE(per_update, 0.0065); // 0.0064: window bursts past the pipes' spares
}

TEST(Allocations, DataRackPerUpdate) {
  core::Fabric f(rack_100g(false));
  const std::vector<std::vector<std::int32_t>> updates(8, std::vector<std::int32_t>(1 << 16, 3));
  const double per_update =
      per_unit_when_warm([&] { (void)f.reduce_i32(updates); }, [&] { return updates_sent(f); });
  EXPECT_LE(per_update, 2.152); // 2.1511: plus 2.125 payload vectors per update
}

TEST(Allocations, NcclRingPerSegment) {
  const core::BaselineProfile profile = core::nccl_tcp(gbps(100));
  collectives::BaselineClusterConfig cfg;
  cfg.n_hosts = 8;
  cfg.link_rate = gbps(100);
  cfg.nic = profile.nic;
  collectives::BaselineCluster cluster(cfg);
  collectives::RingAllReduce ring(cluster, profile.transport);
  const auto segments = [&] {
    std::uint64_t n = 0;
    for (int i = 0; i < cluster.n_hosts(); ++i)
      n += cluster.host(i).transport_counters().segments_sent;
    return n;
  };
  const double per_segment = per_unit_when_warm([&] { ring.run(4 * kMiB); }, segments);
  EXPECT_LE(per_segment, 0.131); // 0.1300
}

class SinkNode : public net::Node {
public:
  using Node::Node;
  void receive(net::Packet&&, int) override { ++received; }
  std::uint64_t received = 0;
};

net::Packet timing_update() {
  net::Packet p;
  p.kind = net::PacketKind::SmlUpdate;
  p.elem_count = net::kDefaultElemsPerPacket;
  return p;
}

// Allocations made by `batches` batches of 16 timing packets, each batch
// run until the simulation is quiet, after as many batches of warm-up.
template <typename Send>
std::uint64_t allocations_rolling(sim::Simulation& sim, Send&& send, int batches) {
  const auto run = [&] {
    for (int b = 0; b < batches; ++b) {
      for (int i = 0; i < 16; ++i) send();
      sim.run();
    }
  };
  run();
  const std::uint64_t allocs = g_allocations.load();
  run();
  return g_allocations.load() - allocs;
}

TEST(Allocations, RollingPipesAllocateNothing) {
  sim::Simulation sim;
  SinkNode a{sim, 0, "a"};
  SinkNode b{sim, 1, "b"};
  net::Link link(sim, net::LinkConfig{}, a, 0, b, 0, 1);
  net::NicConfig nic_cfg;
  nic_cfg.cores = 1;
  std::uint64_t consumed = 0;
  net::HostNic nic(sim, nic_cfg, [&](net::Packet&&, Time) { ++consumed; });

  EXPECT_EQ(allocations_rolling(sim, [&] { link.send_from(a, timing_update()); }, 1000), 0u);
  EXPECT_EQ(b.received, 32'000u);
  EXPECT_EQ(allocations_rolling(sim, [&] { nic.receive(0, timing_update()); }, 1000), 0u);
  EXPECT_EQ(consumed, 32'000u);
}

} // namespace
} // namespace switchml
