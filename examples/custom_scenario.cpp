// Scenario driver: run any aggregation strategy on a custom cluster from the
// command line and get the paper's metrics (TAT, ATE/s, RTT, retransmission
// counts) for it.
//
//   ./custom_scenario --strategy switchml --workers 8 --rate-gbps 10
//       --tensor-mb 16 --loss 0.001 --pool 128 --adaptive-rto
//   ./custom_scenario --strategy hierarchical --racks 4 --workers 16
//   ./custom_scenario --strategy gloo|nccl|dedicated-ps|colocated-ps ...
#include <cstdio>
#include <cstring>
#include <string>

#include "collectives/bounds.hpp"
#include "collectives/ring.hpp"
#include "core/cluster.hpp"
#include "core/profiles.hpp"

using namespace switchml;

namespace {

struct Args {
  std::string strategy = "switchml";
  int workers = 8;
  long long rate_gbps = 10;
  double tensor_mb = 16.0;
  double loss = 0.0;
  std::uint32_t pool = 0; // 0 = paper default for the rate
  int racks = 2;
  bool adaptive_rto = false;
  bool mtu = false;

  static Args parse(int argc, char** argv) {
    Args a;
    auto next = [&](int& i) -> const char* {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for flag");
      return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
      const std::string f = argv[i];
      if (f == "--strategy") a.strategy = next(i);
      else if (f == "--workers") a.workers = std::atoi(next(i));
      else if (f == "--rate-gbps") a.rate_gbps = std::atoll(next(i));
      else if (f == "--tensor-mb") a.tensor_mb = std::atof(next(i));
      else if (f == "--loss") a.loss = std::atof(next(i));
      else if (f == "--pool") a.pool = static_cast<std::uint32_t>(std::atoi(next(i)));
      else if (f == "--racks") a.racks = std::atoi(next(i));
      else if (f == "--adaptive-rto") a.adaptive_rto = true;
      else if (f == "--mtu") a.mtu = true;
      else if (f == "--help") {
        std::printf("flags: --strategy switchml|hierarchical|gloo|nccl|dedicated-ps|"
                    "colocated-ps  --workers N  --rate-gbps G  --tensor-mb M  --loss P\n"
                    "       --pool S  --racks R  --adaptive-rto  --mtu\n");
        std::exit(0);
      } else {
        throw std::invalid_argument("unknown flag: " + f);
      }
    }
    return a;
  }
};

void report(const char* name, double tat_ms, std::uint64_t elems, double line_rate_elems) {
  const double ate = static_cast<double>(elems) / (tat_ms / 1e3);
  std::printf("%-14s TAT %10.3f ms   ATE/s %8.1f M   (%.1f%% of line rate)\n", name, tat_ms,
              ate / 1e6, ate / line_rate_elems * 100.0);
}

} // namespace

int main(int argc, char** argv) try {
  const Args args = Args::parse(argc, argv);
  const BitsPerSecond rate = gbps(args.rate_gbps);
  const auto elems = static_cast<std::uint64_t>(args.tensor_mb * 1e6 / 4);
  const double line = collectives::switchml_ate_rate(
      rate, args.mtu ? net::kMtuElemsPerPacket : net::kDefaultElemsPerPacket);

  std::printf("scenario: %s, %d workers @ %lld Gbps, %.1f MB tensor, loss %.3f%%\n\n",
              args.strategy.c_str(), args.workers, args.rate_gbps, args.tensor_mb,
              args.loss * 100);

  if (args.strategy == "switchml") {
    core::ClusterConfig cfg = core::ClusterConfig::for_rate(rate, args.workers);
    cfg.timing_only = true;
    cfg.loss_prob = args.loss;
    cfg.adaptive_rto = args.adaptive_rto;
    if (args.pool) cfg.pool_size = args.pool;
    if (args.mtu) {
      cfg.elems_per_packet = net::kMtuElemsPerPacket;
      cfg.mtu_emulation = true;
    }
    core::Fabric cluster(cfg.fabric());
    auto tats = cluster.reduce_timing(elems);
    report("SwitchML", to_msec(tats[static_cast<std::size_t>(args.workers / 2)]), elems, line);
    const auto& w = cluster.worker(0).counters();
    std::printf("worker 0: rtt %s us, %llu retransmissions, pool s=%u\n",
                cluster.worker(0).rtt().str().c_str(),
                static_cast<unsigned long long>(w.retransmissions), cfg.pool_size);
    std::printf("switch: %zu B registers (%.2f%% of a 4 MiB budget)\n",
                cluster.root().register_bytes(),
                100.0 * static_cast<double>(cluster.root().register_bytes()) /
                    static_cast<double>(4 * kMiB));
  } else if (args.strategy == "hierarchical") {
    if (args.racks < 1) throw std::invalid_argument("--racks must be >= 1");
    core::FabricConfig cfg;
    cfg.topology =
        core::HierarchySpec{.racks = args.racks, .workers_per_rack = args.workers / args.racks};
    cfg.link_rate = rate;
    cfg.uplink_rate = rate;
    cfg.loss_prob = args.loss;
    cfg.timing_only = true;
    cfg.nic = core::switchml_worker_nic(rate);
    if (args.pool) cfg.pool_size = args.pool;
    core::Fabric cluster(cfg);
    auto tats = cluster.reduce_timing(elems);
    report("Hierarchical", to_msec(tats[0]), elems, line);
    std::printf("leaf 0 reduction ratio: %llu updates in -> %llu partials up\n",
                static_cast<unsigned long long>(cluster.switch_at(1).counters().updates_received),
                static_cast<unsigned long long>(cluster.switch_at(1).counters().upstream_partials));
  } else if (args.strategy == "gloo" || args.strategy == "nccl") {
    const auto profile = args.strategy == "gloo" ? core::gloo_tcp(rate) : core::nccl_tcp(rate);
    collectives::BaselineClusterConfig cfg;
    cfg.n_hosts = args.workers;
    cfg.link_rate = rate;
    cfg.loss_prob = args.loss;
    cfg.nic = profile.nic;
    collectives::BaselineCluster cluster(cfg);
    collectives::RingAllReduce ring(cluster, profile.transport);
    const Time t = ring.run(static_cast<std::int64_t>(elems) * 4);
    report(args.strategy == "gloo" ? "Gloo (ring)" : "NCCL (ring)", to_msec(t), elems,
           collectives::ring_ate_rate(rate, args.workers));
    std::uint64_t segments = 0, retransmissions = 0;
    for (int h = 0; h < cluster.n_hosts(); ++h) {
      segments += cluster.host(h).transport_counters().segments_sent;
      retransmissions += cluster.host(h).transport_counters().retransmissions;
    }
    std::printf("transport: %llu segments, %llu retransmissions\n",
                static_cast<unsigned long long>(segments),
                static_cast<unsigned long long>(retransmissions));
  } else if (args.strategy == "dedicated-ps" || args.strategy == "colocated-ps") {
    core::FabricConfig cfg;
    cfg.topology = core::StreamingPsSpec{args.workers, args.strategy == "dedicated-ps"
                                                           ? core::PsPlacement::Dedicated
                                                           : core::PsPlacement::Colocated};
    cfg.link_rate = rate;
    cfg.loss_prob = args.loss;
    cfg.nic = core::ps_host_nic(rate);
    cfg.timing_only = true;
    if (args.pool) cfg.pool_size = args.pool;
    core::Fabric cluster(cfg);
    auto tats = cluster.reduce_timing(elems);
    report(args.strategy.c_str(), to_msec(tats[0]), elems, line);
  } else {
    std::fprintf(stderr, "unknown strategy '%s' (see --help)\n", args.strategy.c_str());
    return 2;
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
