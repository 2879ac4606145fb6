#include "net/link.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/attribution.hpp"
#include "common/metrics.hpp"
#include "common/tracing.hpp"

namespace switchml::net {

namespace {

// The chunk a data packet's time attributes to: updates belong to the sending
// worker, results to the destination worker (L2 multicast rewrites dst per
// egress port). Other kinds — probes, rescues, baseline segments — carry no
// chunk identity; switch-to-switch hops miss the ledger key and are no-ops.
bool chunk_owner(const Packet& p, std::uint32_t& node) {
  switch (p.kind) {
    case PacketKind::SmlUpdate: node = p.src; return true;
    case PacketKind::SmlResult: node = p.dst; return true;
    default: return false;
  }
}

// Packet kinds that carry an INT stack (the SwitchML data path; probes and
// baseline segments stay bare).
bool int_stampable(PacketKind kind) {
  return kind == PacketKind::SmlUpdate || kind == PacketKind::SmlResult ||
         kind == PacketKind::SmlRescue;
}

std::uint32_t sat_u32(std::uint64_t v) {
  return v > 0xFFFFFFFFull ? 0xFFFFFFFFu : static_cast<std::uint32_t>(v);
}

std::uint16_t sat_u16(std::uint64_t v) {
  return v > 0xFFFFull ? 0xFFFFu : static_cast<std::uint16_t>(v);
}

} // namespace

Link::Link(sim::Simulation& simulation, const LinkConfig& config, Node& end_a, int port_a,
           Node& end_b, int port_b, std::uint64_t seed)
    : sim_(simulation),
      config_(config),
      seed_(seed),
      end_a_(&end_a),
      end_b_(&end_b),
      a_to_b_{&end_b, port_b,
              simulation.open_stream([this](std::uint64_t seq) { deliver_event(a_to_b_, seq); }),
              sim::Rng::stream(seed, end_a.name() + "->" + end_b.name())},
      b_to_a_{&end_a, port_a,
              simulation.open_stream([this](std::uint64_t seq) { deliver_event(b_to_a_, seq); }),
              sim::Rng::stream(seed, end_b.name() + "->" + end_a.name())} {
  if (config.rate <= 0) throw std::invalid_argument("Link rate must be positive");

  if (auto* reg = MetricsRegistry::current()) {
    auto add_direction = [reg, this](const std::string& prefix, Direction& dir) {
      const Counters& c = dir.counters;
      reg->add_counter(prefix + "tx_packets", [&c] { return c.tx_packets; });
      reg->add_counter(prefix + "tx_bytes", [&c] { return c.tx_bytes; });
      reg->add_counter(prefix + "delivered_packets", [&c] { return c.delivered_packets; });
      reg->add_counter(prefix + "dropped_queue", [&c] { return c.dropped_queue; });
      reg->add_counter(prefix + "dropped_loss", [&c] { return c.dropped_loss; });
      reg->add_counter(prefix + "dropped_down", [&c] { return c.dropped_down; });
      reg->add_counter(prefix + "dropped_burst", [&c] { return c.dropped_burst; });
      reg->add_counter(prefix + "burst_entries", [&c] { return c.burst_entries; });
      // Occupancy is tracked lazily: drain the ledger up to now, then the
      // running totals are exact — O(1) amortized, no recompute.
      reg->add_gauge(prefix + "queue_bytes", [this, &dir] {
        drain(dir);
        return dir.backlog_bytes;
      });
      reg->add_gauge(prefix + "queue_pkts", [this, &dir] {
        drain(dir);
        return queue_pkts(dir);
      });
      reg->add_histogram(prefix + "queue_wait_ns", &dir.queue_wait_ns);
    };
    add_direction("link." + end_a.name() + "->" + end_b.name() + ".", a_to_b_);
    add_direction("link." + end_b.name() + "->" + end_a.name() + ".", b_to_a_);
  }
}

Link::Direction& Link::direction_from(const Node& sender) {
  if (&sender == end_a_) return a_to_b_;
  if (&sender == end_b_) return b_to_a_;
  throw std::invalid_argument("Link::send_from: sender is not an endpoint of this link");
}

const Node& Link::from_of(const Direction& dir) const {
  return dir.to == end_b_ ? *end_a_ : *end_b_;
}

const Link::Counters& Link::counters_from(const Node& sender) const {
  if (&sender == end_a_) return a_to_b_.counters;
  if (&sender == end_b_) return b_to_a_.counters;
  throw std::invalid_argument("Link::counters_from: not an endpoint");
}

void Link::drain(Direction& dir) {
  const Time now = sim_.now();
  for (; dir.serializing < dir.ledger.tail() && dir.ledger.at(dir.serializing).finish <= now;
       ++dir.serializing)
    dir.backlog_bytes -= dir.ledger.at(dir.serializing).bytes;
  while (dir.ledger.head() < dir.serializing && !dir.ledger.front().deliver)
    dir.ledger.pop_front();
}

std::int64_t Link::queue_depth_bytes(const Node& sender) {
  Direction& dir = direction_from(sender);
  drain(dir);
  return dir.backlog_bytes;
}

std::int64_t Link::queue_depth_pkts(const Node& sender) {
  Direction& dir = direction_from(sender);
  drain(dir);
  return queue_pkts(dir);
}

Node& Link::peer_of(const Node& n) {
  if (&n == end_a_) return *end_b_;
  if (&n == end_b_) return *end_a_;
  throw std::invalid_argument("Link::peer_of: not an endpoint");
}

void Link::send_from(const Node& sender, Packet&& p, Time earliest_start) {
  transmit(sender, direction_from(sender), std::move(p), earliest_start);
}

void Link::corrupt(Packet& p) {
  // Flip one payload bit (or a header bit when there is no payload).
  if (!p.values.empty())
    p.values[p.values.size() / 2] ^= 0x10;
  else
    p.off ^= 0x1;
}

void Link::set_rate(BitsPerSecond rate) {
  if (rate <= 0)
    throw std::invalid_argument(
        "Link::set_rate: rate must be positive (a dead link is set_down(), not rate 0)");
  if (rate == config_.rate) return;
  const BitsPerSecond old_rate = config_.rate;
  config_.rate = rate;
  replan(a_to_b_, old_rate);
  replan(b_to_a_, old_rate);
}

void Link::replan(Direction& dir, BitsPerSecond old_rate) {
  const Time now = sim_.now();
  Time prev_finish = -1;
  for (std::uint64_t seq = dir.serializing; seq < dir.ledger.tail(); ++seq) {
    Record& rec = dir.ledger.at(seq);
    if (rec.finish <= now) continue; // fully serialized; only propagation remains
    Time start = rec.start;
    if (prev_finish >= 0 && start < prev_finish) start = prev_finish;
    if (start < now) {
      // Mid-serialization: bits already clocked out at the old rate stay out.
      const auto done = static_cast<std::int64_t>(static_cast<__int128>(now - start) *
                                                  old_rate / kSecond);
      rec.bits_left = std::max<std::int64_t>(rec.bits_left - done, 0);
      start = now;
    }
    const Time finish = start + wire_time_bits(rec.bits_left, config_.rate);
    rec.start = start;
    // Moved earlier: the already-scheduled delivery would fire too late, so
    // chase it with a second event. Whichever pops first (on time) delivers;
    // the other finds nothing to deliver and is inert.
    if (rec.deliver && finish < rec.finish)
      sim_.schedule_at(finish + config_.propagation,
                       [this, dirp = &dir, seq] { deliver_event(*dirp, seq); });
    rec.finish = finish;
    prev_finish = finish;
  }
  if (prev_finish >= 0) dir.busy_until = prev_finish;
}

void Link::set_down() {
  if (down_) return;
  down_ = true;
  const Time now = sim_.now();
  for (Direction* d : {&a_to_b_, &b_to_a_}) {
    for (std::uint64_t seq = d->ledger.head(); seq < d->ledger.tail(); ++seq) {
      const Record& rec = d->ledger.at(seq);
      if (!rec.deliver) continue; // lost on the wire, or delivered
      drop(*d, &Counters::dropped_down, "drop_down", from_of(*d), rec.pkt, now);
    }
    d->ledger.clear(); // its tail stays: stale deliveries find seq < head
    d->serializing = d->ledger.tail();
    d->backlog_bytes = 0;
    d->busy_until = std::min(d->busy_until, now); // the port is idle when it comes back
  }
  trace::emit(trace::kCatFault, now, end_a_->id(), "link_down", {"peer", end_b_->id()});
}

void Link::set_up() {
  if (!down_) return;
  down_ = false;
  trace::emit(trace::kCatFault, sim_.now(), end_a_->id(), "link_up", {"peer", end_b_->id()});
}

void Link::set_burst_loss(const BurstLossConfig& cfg) {
  for (double p : {cfg.p_enter, cfg.p_exit, cfg.loss_good, cfg.loss_bad})
    if (p < 0.0 || p > 1.0)
      throw std::invalid_argument("Link::set_burst_loss: probabilities must be in [0, 1]");
  burst_ = cfg;
  if (!a_to_b_.burst_rng)
    a_to_b_.burst_rng =
        sim::Rng::stream(seed_, end_a_->name() + "->" + end_b_->name() + ".burst");
  if (!b_to_a_.burst_rng)
    b_to_a_.burst_rng =
        sim::Rng::stream(seed_, end_b_->name() + "->" + end_a_->name() + ".burst");
}

void Link::deliver_event(Direction& dir, std::uint64_t seq) {
  // Killed by set_down (its record is gone), or a twin already delivered.
  if (seq < dir.ledger.head()) return;
  Record& rec = dir.ledger.at(seq);
  if (!rec.deliver) return;
  const Time at = rec.finish + config_.propagation;
  if (at > sim_.now()) {
    // A mid-run slowdown pushed this delivery later; chase the new time.
    sim_.schedule_at(at, [this, dirp = &dir, seq] { deliver_event(*dirp, seq); });
    return;
  }
  rec.deliver = false;
  Packet pkt = std::move(rec.pkt);
  drain(dir); // its serialization is over, so the record leaves the ledger
  ++dir.counters.delivered_packets;
  trace::emit(trace::kCatLink, sim_.now(), from_of(dir).id(), "deliver", {"to", dir.to->id()},
              {"slot", pkt.idx}, {"bytes", pkt.wire_bytes()});
  dir.to->receive(std::move(pkt), dir.to_port);
}

// Pushes this hop's INT record: egress queue depth (post-drain, exact),
// cumulative egress drops, and the planned ingress→egress latency — queue
// wait behind earlier serializations, the packet's own serialization
// (including the bytes this record adds in on-wire mode), and propagation.
// The whole transit is planned at enqueue time, so the "egress" latency is
// known here, before the bits ever move.
void Link::stamp_int(const Node& sender, Direction& dir, Packet& p, Time earliest_start) {
  inttel::IntHopRecord rec;
  rec.hop_id = sender.id();
  rec.next_hop = dir.to->id();
  rec.queue_bytes = sat_u32(static_cast<std::uint64_t>(dir.backlog_bytes));
  rec.queue_pkts = sat_u16(static_cast<std::uint64_t>(queue_pkts(dir)));
  const Counters& c = dir.counters;
  rec.drops = sat_u32(c.dropped_queue + c.dropped_loss + c.dropped_down + c.dropped_burst);
  const Time t0 = std::max(sim_.now(), earliest_start);
  const Time start = std::max(t0, dir.busy_until);
  std::uint32_t wire_after = p.wire_bytes();
  if (p.int_mode == inttel::kModeOnWire) {
    wire_after += inttel::kRecordBytes +
                  (p.int_stack.empty() ? inttel::kShimBytes : 0u);
  }
  const Time latency =
      (start - t0) + serialization_time(wire_after, config_.rate) + config_.propagation;
  rec.hop_latency_ns = sat_u32(static_cast<std::uint64_t>(latency));
  inttel::append_record(p.int_stack, rec);
}

// One dropped packet: its counter, its `drop_*` trace event with the wire
// bytes it had when dropped, and its chunk's stall from `stall_at` on.
void Link::drop(Direction& dir, std::uint64_t Counters::*counter, const char* event,
                const Node& from, const Packet& p, Time stall_at) {
  ++(dir.counters.*counter);
  trace::emit(trace::kCatLink, sim_.now(), from.id(), event, {"to", dir.to->id()},
              {"slot", p.idx}, {"bytes", p.wire_bytes()});
  if (std::uint32_t owner = 0; attr::enabled() && chunk_owner(p, owner))
    attr::transition_matching(owner, p.idx, p.off, attr::Component::kRtoStall, stall_at);
}

void Link::transmit(const Node& sender, Direction& dir, Packet&& p, Time earliest_start) {
  const Time now = sim_.now();
  if (down_) {
    drop(dir, &Counters::dropped_down, "drop_down", sender, p, now);
    return;
  }
  Node& peer = *dir.to;
  // Span attribution: transitions are applied synchronously with the planned
  // timestamps (port-free moment, serialization start/finish), which is valid
  // because they are computed deterministically on the sim clock.
  std::uint32_t owner = 0;
  const bool attributed = attr::enabled() && chunk_owner(p, owner);
  const std::uint64_t owner_off = p.off; // captured before corrupt() can flip it
  // Drain completed serializations from the lazy ledger.
  drain(dir);

  // Stamp this hop's telemetry before wire_bytes() is read: in on-wire mode
  // the record's bytes are part of the frame and must be charged everywhere.
  if (p.int_mode != inttel::kModeOff && int_stampable(p.kind))
    stamp_int(sender, dir, p, earliest_start);

  const std::int64_t wire = p.wire_bytes();
  if (dir.backlog_bytes + wire > config_.queue_limit_bytes) {
    drop(dir, &Counters::dropped_queue, "drop_queue", sender, p, now);
    return;
  }
  trace::emit(trace::kCatLink, now, sender.id(), "enqueue", {"to", peer.id()}, {"slot", p.idx},
              {"bytes", wire});

  ++dir.counters.tx_packets;
  dir.counters.tx_bytes += static_cast<std::uint64_t>(wire);

  const Time start = std::max({now, earliest_start, dir.busy_until});
  dir.queue_wait_ns.record(start - std::max(now, earliest_start));
  const Time finish = start + serialization_time(wire, config_.rate);
  dir.busy_until = finish;
  dir.backlog_bytes += wire;
  const std::uint64_t seq = dir.ledger.tail();
  // The record owns the packet from here on. A lost packet keeps its record,
  // without `deliver`, until its serialization ends: it occupies the port
  // all the same.
  Record& rec = dir.ledger.emplace_back(start, finish, false, wire, wire * 8, std::move(p));

  if (attributed) {
    attr::transition_matching(owner, rec.pkt.idx, owner_off, attr::Component::kLinkQueue,
                              std::max(now, earliest_start));
    attr::transition_matching(owner, rec.pkt.idx, owner_off, attr::Component::kWire, start);
  }

  if (dir.rng.chance(config_.loss_prob) || (drop_filter_ && drop_filter_(sender, rec.pkt))) {
    // The bits left the port but never arrive; the chunk stalls from the
    // moment serialization ends until the retransmission timer acts.
    drop(dir, &Counters::dropped_loss, "drop_loss", sender, rec.pkt, finish);
    return;
  }

  if (burst_) {
    // Advance the Gilbert-Elliott chain, then sample the state's loss rate.
    if (dir.burst_bad) {
      if (dir.burst_rng->chance(burst_->p_exit)) dir.burst_bad = false;
    } else if (dir.burst_rng->chance(burst_->p_enter)) {
      dir.burst_bad = true;
      ++dir.counters.burst_entries;
      trace::emit(trace::kCatFault, now, sender.id(), "burst_begin", {"to", peer.id()});
    }
    if (dir.burst_rng->chance(dir.burst_bad ? burst_->loss_bad : burst_->loss_good)) {
      drop(dir, &Counters::dropped_burst, "drop_burst", sender, rec.pkt, finish);
      return;
    }
  }

  if (dir.rng.chance(corrupt_prob_) || (corrupt_filter_ && corrupt_filter_(sender, rec.pkt))) {
    corrupt(rec.pkt);
    trace::emit(trace::kCatLink, now, sender.id(), "corrupt", {"to", peer.id()},
                {"slot", rec.pkt.idx}, {"bytes", wire});
  }

  if (attributed)
    attr::transition_matching(owner, rec.pkt.idx, owner_off, attr::Component::kProp, finish);
  rec.deliver = true;
  // Finishes only grow between rate changes, so deliveries join the
  // direction's stream in time order (an earlier one, after a speed-up, is
  // queued as a plain event).
  sim_.schedule_on(dir.stream, finish + config_.propagation, seq);
}

} // namespace switchml::net
