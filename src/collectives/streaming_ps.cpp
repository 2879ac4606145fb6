#include "collectives/streaming_ps.hpp"

#include <stdexcept>

#include "common/attribution.hpp"
#include "common/metrics.hpp"

namespace switchml::collectives {

// ---------------------------------------------------------- SoftwareAggregator

SoftwareAggregator::SoftwareAggregator(int n_workers, std::uint32_t pool_size)
    : n_(n_workers), slots_(pool_size) {
  if (n_workers < 1 || n_workers > 64)
    throw std::invalid_argument("SoftwareAggregator: 1..64 workers");
}

SoftwareAggregator::Outcome SoftwareAggregator::process(const net::Packet& p) {
  ++counters_.updates;
  if (p.idx >= slots_.size()) throw std::runtime_error("SoftwareAggregator: slot out of range");
  Slot& slot = slots_[p.idx];
  const int ver = p.ver & 1;
  const std::uint64_t bit = 1ull << p.wid;

  Outcome out;
  if ((slot.seen[ver] & bit) == 0) {
    slot.seen[ver] |= bit;
    slot.seen[1 - ver] &= ~bit;
    slot.count[ver] = (slot.count[ver] + 1) % static_cast<std::uint32_t>(n_);
    const bool first = slot.count[ver] == 1 || n_ == 1;
    const bool complete = slot.count[ver] == 0;
    if (!p.values.empty()) {
      auto& pool = slot.pool[ver];
      if (first) {
        pool = p.values;
      } else {
        if (pool.size() < p.values.size()) pool.resize(p.values.size(), 0);
        for (std::size_t j = 0; j < p.values.size(); ++j)
          pool[j] = static_cast<std::int32_t>(static_cast<std::uint32_t>(pool[j]) +
                                              static_cast<std::uint32_t>(p.values[j]));
      }
      if (complete) out.values = pool;
    }
    if (complete) {
      ++counters_.completions;
      out.kind = Outcome::Kind::Completed;
    } else {
      out.kind = Outcome::Kind::Absorbed;
    }
  } else {
    ++counters_.duplicates;
    if (slot.count[ver] == 0) {
      out.kind = Outcome::Kind::ReplyStored;
      if (!p.values.empty()) out.values = slot.pool[ver];
    } else {
      out.kind = Outcome::Kind::Ignored;
    }
  }
  return out;
}

namespace {

// PS shards attribute slot dwell exactly like the hardware switch does:
// contributions enter kSwitchWait, completion moves every contributor to
// kSwitchReady, duplicates re-enter the phase the slot is actually in.
void attribute_outcome(net::NodeId shard, const net::Packet& p,
                       SoftwareAggregator::Outcome::Kind kind, Time now) {
  if (!attr::enabled()) return;
  using Kind = SoftwareAggregator::Outcome::Kind;
  switch (kind) {
    case Kind::Absorbed:
      attr::contribute(shard, p.job, p.ver & 1u, p.idx, p.src, p.off, now);
      break;
    case Kind::Completed:
      attr::contribute(shard, p.job, p.ver & 1u, p.idx, p.src, p.off, now);
      attr::complete_slot(shard, p.job, p.ver & 1u, p.idx, p.off, now);
      break;
    case Kind::ReplyStored:
      attr::transition_matching(p.src, p.idx, p.off, attr::Component::kSwitchReady, now);
      break;
    case Kind::Ignored:
      attr::transition_matching(p.src, p.idx, p.off, attr::Component::kSwitchWait, now);
      break;
  }
}

} // namespace

// ---------------------------------------------------------------------- PsShard

PsShard::PsShard(net::Node& host, net::HostNic& nic, std::vector<net::NodeId> worker_ids,
                 std::uint32_t pool_size, const std::string& prefix,
                 std::function<void(net::Packet&&)> deliver_local)
    : host_(host),
      nic_(nic),
      worker_ids_(std::move(worker_ids)),
      aggregator_(static_cast<int>(worker_ids_.size()), pool_size),
      deliver_local_(std::move(deliver_local)) {
  if (auto* reg = MetricsRegistry::current()) {
    reg->add_counter(prefix + "updates", [this] { return aggregator_.counters().updates; });
    reg->add_counter(prefix + "duplicates", [this] { return aggregator_.counters().duplicates; });
    reg->add_counter(prefix + "completions", [this] { return aggregator_.counters().completions; });
  }
}

void PsShard::handle(net::Packet&& p, net::Link& uplink) {
  if (!p.verify()) return; // §3.4: corrupted update, worker timer repairs it
  const auto outcome = aggregator_.process(p);
  attribute_outcome(host_.id(), p, outcome.kind, host_.simulation().now());
  if (outcome.kind == SoftwareAggregator::Outcome::Kind::Completed) {
    for (net::NodeId w : worker_ids_) reply(p, w, outcome.values, uplink);
  } else if (outcome.kind == SoftwareAggregator::Outcome::Kind::ReplyStored) {
    reply(p, p.src, outcome.values, uplink);
  }
}

void PsShard::reply(const net::Packet& update, net::NodeId dst,
                    const std::vector<std::int32_t>& values, net::Link& uplink) {
  net::Packet r = net::Packet::reply(net::PacketKind::SmlResult, update);
  r.src = host_.id();
  r.dst = dst;
  r.values = values;
  r.seal();
  if (dst == host_.id()) {
    // Local delivery: the worker role consumes its own shard's result
    // without touching the wire (but still pays RX processing).
    deliver_local_(std::move(r));
    return;
  }
  const Time ready = nic_.tx_ready(lane_of(update.idx), r);
  uplink.send_from(host_, std::move(r), ready);
}

// ------------------------------------------------------------------ PsShardNode

PsShardNode::PsShardNode(sim::Simulation& simulation, net::NodeId id, std::string name,
                         const net::NicConfig& nic, net::TransportKind transport,
                         const net::RdmaUcParams& rdma, std::vector<net::NodeId> worker_ids,
                         std::uint32_t pool_size)
    : Node(simulation, id, std::move(name)),
      nic_(simulation, nic,
           [this](net::Packet&& p, Time) { shard_.handle(std::move(p), *uplink_); }, transport,
           rdma, this->name(), id),
      shard_(*this, nic_, std::move(worker_ids), pool_size, this->name() + ".") {}

// -------------------------------------------------------------- PsColocatedHost

PsColocatedHost::PsColocatedHost(sim::Simulation& simulation, net::NodeId id, std::string name,
                                 const worker::WorkerConfig& wc,
                                 std::vector<net::NodeId> worker_ids)
    : Worker(simulation, id, std::move(name), wc),
      shard_(*this, nic(), std::move(worker_ids), wc.pool_size, this->name() + ".shard.",
             [this](net::Packet&& r) { Worker::receive(std::move(r), 0); }) {}

void PsColocatedHost::receive(net::Packet&& p, int port) {
  // Shard traffic shares the worker's NIC lanes.
  if (p.kind == net::PacketKind::SmlUpdate) {
    nic().receive(shard_.lane_of(p.idx), std::move(p));
    return;
  }
  Worker::receive(std::move(p), port);
}

void PsColocatedHost::consume(net::Packet&& p, Time arrived) {
  if (p.kind == net::PacketKind::SmlUpdate) {
    shard_.handle(std::move(p), *uplink());
    return;
  }
  Worker::consume(std::move(p), arrived);
}

} // namespace switchml::collectives
