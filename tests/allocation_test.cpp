// Heap allocations on the steady-state packet path. A counting global
// operator new (this binary's own, because the replacement is global)
// measures a warm second reduction: the first one grows the event slab, the
// heaps, the streams' rings and the pipes' ledgers to their working size.
// Each test bounds the allocations per SwitchML update, or per
// reliable-transport segment on the NCCL ring, from above. What is left is
// one deque node per two records of each link direction's ledger and each
// NIC lane, plus data mode's payload vectors. The transport is pinned to
// UDP, the bounds' own.
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
  EXPECT_LE(per_update, 1.501); // 1.5004: two link hops and one NIC lane
}

TEST(Allocations, DataRackPerUpdate) {
  core::Fabric f(rack_100g(false));
  const std::vector<std::vector<std::int32_t>> updates(8, std::vector<std::int32_t>(1 << 16, 3));
  const double per_update =
      per_unit_when_warm([&] { (void)f.reduce_i32(updates); }, [&] { return updates_sent(f); });
  EXPECT_LE(per_update, 3.628); // 3.6271: plus one payload per packet
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
  EXPECT_LE(per_segment, 3.012); // 3.0111
}

} // namespace
} // namespace switchml
