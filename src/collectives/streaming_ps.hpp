// Streaming parameter-server baseline (§5.3): "a multi-core DPDK-based
// program that implements the logic of Algorithm 1", sharded uniformly over
// n PS processes so no single server's bandwidth is oversubscribed.
//
// Workers run the unmodified SwitchML worker protocol (same 180-byte update
// packets, same self-clocked slot pool, same retransmission timers); the only
// difference is where the packets go: slot idx is served by PS process
// idx % n_ps instead of the switch. A PS process aggregates in host software
// (full Algorithm 3 state — seen bitmaps and shadow copies — so it is loss-
// tolerant like the switch) and answers a completed slot with one unicast
// result per worker.
//
// Two placements, as in Fig 4:
//   * Dedicated: n extra machines run the PS processes (2n hosts total);
//   * Colocated: worker i's host also runs PS shard i, sharing its NIC cores
//     and link bandwidth — which is precisely why it tops out at half the
//     rate of SwitchML/dedicated.
// core::Fabric wires both as its StreamingPsSpec shape (core/fabric.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/nic.hpp"
#include "worker/worker.hpp"

namespace switchml::collectives {

// Host-software implementation of the switch's aggregation state machine
// (Algorithm 3 without the dataplane register constraints). An update
// without values (a size-only reduction) moves only the protocol state.
class SoftwareAggregator {
public:
  SoftwareAggregator(int n_workers, std::uint32_t pool_size);

  struct Outcome {
    enum class Kind { Absorbed, Completed, ReplyStored, Ignored };
    Kind kind = Kind::Absorbed;
    std::vector<std::int32_t> values; // result payload for Completed/ReplyStored
  };
  Outcome process(const net::Packet& p);

  struct Counters {
    std::uint64_t updates = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t completions = 0;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

private:
  struct Slot {
    std::uint32_t count[2] = {0, 0};
    std::uint64_t seen[2] = {0, 0};
    std::vector<std::int32_t> pool[2];
  };
  int n_;
  std::vector<Slot> slots_;
  Counters counters_;
};

// One PS process's shard, run on `host`: it serves the slots idx with
// idx % n == its host's shard index (n = worker_ids.size(); all n shards
// exist in both placements). Each update is RX-processed on lane_of(idx) of
// the host's NIC, then handled: verified, aggregated and attributed; a
// completed slot is answered with one unicast result per worker (software PS
// has no traffic manager), a duplicate of a completed slot with one result
// to its sender. The two placements differ only in local delivery: a result
// addressed to the host itself skips the wire and goes to `deliver_local`.
class PsShard {
public:
  // Registers <prefix>{updates,duplicates,completions}.
  PsShard(net::Node& host, net::HostNic& nic, std::vector<net::NodeId> worker_ids,
          std::uint32_t pool_size, const std::string& prefix,
          std::function<void(net::Packet&&)> deliver_local = nullptr);
  PsShard(const PsShard&) = delete;
  PsShard& operator=(const PsShard&) = delete;

  // Flow Director spreads this shard's slots over the cores by the QUOTIENT
  // so consecutive served slots hit different cores (idx % cores would pin
  // one core per shard).
  [[nodiscard]] int lane_of(std::uint32_t idx) const {
    return static_cast<int>((idx / static_cast<std::uint32_t>(worker_ids_.size())) %
                            static_cast<std::uint32_t>(nic_.cores()));
  }

  // An update its NIC lane has processed. Results leave over `uplink`, the
  // host's link to the L2 switch.
  void handle(net::Packet&& p, net::Link& uplink);

private:
  void reply(const net::Packet& update, net::NodeId dst, const std::vector<std::int32_t>& values,
             net::Link& uplink);

  net::Node& host_;
  net::HostNic& nic_;
  std::vector<net::NodeId> worker_ids_;
  SoftwareAggregator aggregator_;
  std::function<void(net::Packet&&)> deliver_local_;
};

// A dedicated PS machine: NIC-cost-modelled host running one shard. It is
// never a result's destination, so it needs no local delivery.
class PsShardNode : public net::Node {
public:
  PsShardNode(sim::Simulation& simulation, net::NodeId id, std::string name,
              const net::NicConfig& nic, net::TransportKind transport,
              const net::RdmaUcParams& rdma, std::vector<net::NodeId> worker_ids,
              std::uint32_t pool_size);

  void set_uplink(net::Link& link) { uplink_ = &link; }
  void receive(net::Packet&& p, int /*port*/) override {
    nic_.receive(shard_.lane_of(p.idx), std::move(p));
  }

private:
  net::HostNic nic_;
  net::Link* uplink_ = nullptr;
  PsShard shard_;
};

// A colocated host: the SwitchML worker protocol plus a PS shard sharing the
// same NIC lanes and link.
class PsColocatedHost : public worker::Worker {
public:
  PsColocatedHost(sim::Simulation& simulation, net::NodeId id, std::string name,
                  const worker::WorkerConfig& wc, std::vector<net::NodeId> worker_ids);

  void receive(net::Packet&& p, int port) override;

protected:
  void consume(net::Packet&& p, Time arrived) override;

private:
  PsShard shard_;
};

} // namespace switchml::collectives
