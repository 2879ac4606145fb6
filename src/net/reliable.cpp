#include "net/reliable.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/attribution.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/tracing.hpp"

namespace switchml::net {

namespace {
// Stream ids are sparse (each collective numbers its transfers up from its
// own base: ring 1, halving-doubling 1,000,000; see collectives/rounds.hpp),
// so the attribution slot key masks down to a dense index; streams open
// concurrently on one host have nearby sequential ids and never collide
// within the mask.
constexpr std::uint32_t stream_slot(std::uint32_t stream) { return stream & 0xFFFu; }
} // namespace

// ---------------------------------------------------------------- TransportHost

TransportHost::TransportHost(sim::Simulation& simulation, NodeId id, std::string name,
                             const NicConfig& nic)
    : Node(simulation, id, std::move(name)),
      nic_(simulation, nic, [this](Packet&& p, Time) { consume(std::move(p)); }) {
  if (auto* reg = MetricsRegistry::current()) {
    const std::string p = this->name() + ".transport.";
    reg->add_counter(p + "segments_sent", [this] { return transport_counters_.segments_sent; });
    reg->add_counter(p + "retransmissions",
                     [this] { return transport_counters_.retransmissions; });
    reg->add_counter(p + "timeouts", [this] { return transport_counters_.timeouts; });
    reg->add_counter(p + "fast_retransmits",
                     [this] { return transport_counters_.fast_retransmits; });
    reg->add_histogram(p + "rtt_ns", &rtt_ns_);
    reg->add_histogram(p + "retx_recovery_ns", &retx_recovery_ns_);
  }
}

void TransportHost::transmit(Packet&& p) {
  if (uplink_ == nullptr) throw std::logic_error(name() + ": transmit without uplink");
  const Time ready = nic_.tx_ready(lane_of(p.stream), p.wire_bytes());
  uplink_->send_from(*this, std::move(p), ready);
}

void TransportHost::receive(Packet&& p, int /*port*/) {
  nic_.receive(lane_of(p.stream), std::move(p));
}

void TransportHost::consume(Packet&& p) {
  if (p.kind == PacketKind::Segment) {
    auto it = receivers_.find(p.stream);
    if (it != receivers_.end()) it->second->on_segment(std::move(p));
  } else if (p.kind == PacketKind::Ack) {
    auto it = senders_.find(p.stream);
    if (it != senders_.end()) it->second->on_ack(p);
  } else {
    SML_LOG(Warn) << name() << ": unexpected packet kind " << to_string(p.kind);
  }
}

// ---------------------------------------------------------------- ReliableSender

ReliableSender::ReliableSender(TransportHost& host, NodeId dst, std::uint32_t stream,
                               const TransportProfile& profile,
                               std::function<void()> on_complete)
    : host_(host),
      dst_(dst),
      stream_(stream),
      profile_(profile),
      on_complete_(std::move(on_complete)),
      rto_(profile.rto_initial) {
  host_.register_sender(stream_, this);
}

ReliableSender::~ReliableSender() {
  timer_.cancel();
  host_.unregister_sender(stream_);
}

void ReliableSender::start(std::int64_t total_bytes, std::span<const float> data) {
  if (total_bytes <= 0) throw std::invalid_argument("ReliableSender::start: empty transfer");
  if (!data.empty() && static_cast<std::int64_t>(data.size()) * 4 != total_bytes)
    throw std::invalid_argument("ReliableSender::start: data size mismatch");
  total_ = total_bytes;
  data_ = data;
  snd_una_ = 0;
  snd_nxt_ = 0;
  snd_max_ = 0;
  probe_end_ = -1;
  retx_since_ = -1;
  // Persistent connection: cwnd starts at the cap and only shrinks on loss.
  cwnd_ = profile_.window_bytes;
  ssthresh_ = profile_.window_bytes;
  // Baseline-transport attribution: one span per stream on the sender's node,
  // split into healthy flight (kProp) and loss-recovery episodes (kRtoStall)
  // — the same episode boundaries retx_recovery_ns already measures.
  attr::open(host_.id(), stream_slot(stream_), stream_, host_.simulation().now());
  attr::transition(host_.id(), stream_slot(stream_), attr::Component::kProp,
                   host_.simulation().now());
  pump();
}

void ReliableSender::send_segment(std::int64_t seq) {
  const std::int64_t len = std::min<std::int64_t>(profile_.mss, total_ - seq);
  Packet p;
  p.kind = PacketKind::Segment;
  p.src = host_.id();
  p.dst = dst_;
  p.stream = stream_;
  p.seq = static_cast<std::uint64_t>(seq);
  p.seg_len = static_cast<std::uint32_t>(len);
  if (!data_.empty()) {
    const std::size_t first = static_cast<std::size_t>(seq / 4);
    const std::size_t count = static_cast<std::size_t>(len / 4);
    p.fvalues.assign(data_.begin() + static_cast<std::ptrdiff_t>(first),
                     data_.begin() + static_cast<std::ptrdiff_t>(first + count));
  }
  ++host_.transport_counters().segments_sent;
  if (seq < snd_max_) {
    // The single place retransmissions are counted: a byte below the
    // high-water mark is actually going on the wire again. (The RTO handler
    // used to credit the whole outstanding window up front, but go-back-N
    // with the collapsed cwnd only resends one MSS per round-trip.)
    ++host_.transport_counters().retransmissions;
  }
  trace::emit(trace::kCatTransport, host_.simulation().now(), host_.id(),
              seq < snd_max_ ? "seg_retx" : "seg_send", {"stream", stream_},
              {"seq", seq}, {"len", len});
  if (seq < snd_max_) {
    probe_end_ = -1; // Karn: an ACK past the probe may now be for a resend
  } else if (probe_end_ < 0) {
    probe_end_ = seq + len;
    probe_sent_at_ = host_.simulation().now();
  }
  snd_max_ = std::max(snd_max_, seq + len);
  host_.transmit(std::move(p));
}

void ReliableSender::pump() {
  const std::int64_t limit = std::min(total_, snd_una_ + std::min(cwnd_, profile_.window_bytes));
  while (snd_nxt_ < limit) {
    send_segment(snd_nxt_);
    snd_nxt_ += std::min<std::int64_t>(profile_.mss, total_ - snd_nxt_);
  }
  if (snd_una_ < total_) arm_rto();
}

void ReliableSender::arm_rto() {
  // Every forward ACK re-arms: move the timer in place rather than leaving a
  // cancelled heap key per ACK.
  timer_ = host_.simulation().rearm_timer(timer_, rto_, [this] { on_timeout(); });
}

void ReliableSender::on_timeout() {
  if (done()) return;
  ++host_.transport_counters().timeouts;
  trace::emit(trace::kCatTransport, host_.simulation().now(), host_.id(), "rto",
              {"stream", stream_}, {"snd_una", snd_una_}, {"snd_nxt", snd_nxt_});
  if (retx_since_ < 0) {
    retx_since_ = host_.simulation().now();
    attr::transition(host_.id(), stream_slot(stream_), attr::Component::kRtoStall,
                     retx_since_);
  }
  snd_nxt_ = snd_una_; // go-back-N
  // RTO is a serious congestion signal: collapse to one segment and
  // slow-start back up to half the pre-loss window.
  ssthresh_ = std::max<std::int64_t>(cwnd_ / 2, 2 * profile_.mss);
  cwnd_ = profile_.mss;
  in_fast_recovery_ = false;
  rto_ = std::min<Time>(static_cast<Time>(static_cast<double>(rto_) * kRtoBackoff),
                        profile_.rto_max);
  pump();
}

Time ReliableSender::base_rto() const {
  if (!profile_.adaptive_rto || !rtt_est_.have_sample) return profile_.rto_initial;
  return rtt_est_.rto(kRtoMin, profile_.rto_max);
}

void ReliableSender::on_ack(const Packet& ack) {
  const auto acked = static_cast<std::int64_t>(ack.seq);
  if (acked > snd_una_) {
    const Time now = host_.simulation().now();
    if (probe_end_ >= 0 && acked >= probe_end_) {
      host_.rtt_hist().record(now - probe_sent_at_);
      // Karn-filtered: one probe per window, invalidated by any resend.
      if (profile_.adaptive_rto) rtt_est_.add(now - probe_sent_at_);
      probe_end_ = -1;
    }
    if (retx_since_ >= 0) {
      host_.retx_recovery_hist().record(now - retx_since_);
      retx_since_ = -1;
      attr::transition(host_.id(), stream_slot(stream_), attr::Component::kProp, now);
    }
    const std::int64_t newly_acked = acked - snd_una_;
    snd_una_ = acked;
    dupacks_ = 0;
    in_fast_recovery_ = false;
    // Forward progress clears any RTO backoff. Legacy mode resets to the
    // fixed initial; adaptive mode re-bases on the live SRTT/RTTVAR estimate
    // (the bug this replaces: the estimator's samples were recorded but the
    // RTO never consulted them).
    rto_ = base_rto();
    if (cwnd_ < profile_.window_bytes) {
      if (cwnd_ < ssthresh_) {
        cwnd_ += newly_acked; // slow start
      } else {
        // Congestion avoidance: ~one MSS per cwnd's worth of ACKed data.
        cwnd_ += std::max<std::int64_t>(1, profile_.mss * profile_.mss / cwnd_);
      }
      cwnd_ = std::min(cwnd_, profile_.window_bytes);
    }
    if (snd_una_ >= total_) {
      timer_.cancel();
      attr::close(host_.id(), stream_slot(stream_), now);
      if (on_complete_) on_complete_();
      return;
    }
    pump();
  } else {
    if (++dupacks_ == profile_.dupack_threshold && !in_fast_recovery_) {
      // Fast retransmit: the receiver buffers out-of-order data, so only the
      // missing segment needs to be resent. Further duplicate ACKs for the
      // same hole are ignored until it is repaired (fast recovery).
      ++host_.transport_counters().fast_retransmits;
      in_fast_recovery_ = true;
      dupacks_ = 0;
      if (retx_since_ < 0) {
        retx_since_ = host_.simulation().now();
        attr::transition(host_.id(), stream_slot(stream_), attr::Component::kRtoStall,
                         retx_since_);
      }
      // Multiplicative decrease.
      ssthresh_ = std::max<std::int64_t>(cwnd_ / 2, 2 * profile_.mss);
      cwnd_ = ssthresh_;
      send_segment(snd_una_);
      arm_rto();
    }
  }
}

// -------------------------------------------------------------- ReliableReceiver

ReliableReceiver::ReliableReceiver(TransportHost& host, NodeId src, std::uint32_t stream,
                                   std::int64_t total_bytes, ChunkHandler on_chunk,
                                   std::function<void()> on_complete)
    : host_(host),
      src_(src),
      stream_(stream),
      total_(total_bytes),
      on_chunk_(std::move(on_chunk)),
      on_complete_(std::move(on_complete)) {
  host_.register_receiver(stream_, this);
}

ReliableReceiver::~ReliableReceiver() { host_.unregister_receiver(stream_); }

void ReliableReceiver::send_ack() {
  Packet ack;
  ack.kind = PacketKind::Ack;
  ack.src = host_.id();
  ack.dst = src_;
  ack.stream = stream_;
  ack.seq = static_cast<std::uint64_t>(rcv_nxt_);
  trace::emit(trace::kCatTransport, host_.simulation().now(), host_.id(), "ack",
              {"stream", stream_}, {"rcv_nxt", rcv_nxt_});
  host_.transmit(std::move(ack));
}

void ReliableReceiver::deliver(const Packet& p) {
  rcv_nxt_ = static_cast<std::int64_t>(p.seq) + p.seg_len;
  if (on_chunk_) on_chunk_(p.seq, p.seg_len, p.fvalues);
}

void ReliableReceiver::on_segment(Packet&& p) {
  const auto seq = static_cast<std::int64_t>(p.seq);
  if (seq == rcv_nxt_) {
    deliver(p);
    // Drain any buffered continuation.
    auto it = ooo_.find(rcv_nxt_);
    while (it != ooo_.end()) {
      deliver(it->second);
      ooo_.erase(it);
      it = ooo_.find(rcv_nxt_);
    }
    send_ack();
    if (rcv_nxt_ >= total_ && !completed_) {
      completed_ = true;
      if (on_complete_) on_complete_();
    }
  } else if (seq > rcv_nxt_) {
    // Hole: buffer for reassembly (SACK-like) and emit a duplicate ACK so
    // the sender can fast-retransmit the missing segment.
    ooo_.emplace(seq, std::move(p));
    send_ack();
  } else {
    // Stale retransmission of already-delivered data: re-ack.
    send_ack();
  }
}

} // namespace switchml::net
