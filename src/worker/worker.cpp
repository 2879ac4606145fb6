#include "worker/worker.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "common/attribution.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/tracing.hpp"

namespace switchml::worker {

Worker::Worker(sim::Simulation& simulation, net::NodeId id, std::string name,
               WorkerConfig config)
    : Node(simulation, id, std::move(name)),
      config_(config),
      nic_(simulation, config.nic,
           [this](net::Packet&& p, Time arrived) { consume(std::move(p), arrived); },
           config.transport, config.rdma, this->name(), id),
      slot_ver_(config.pool_size, 0),
      slots_(config.pool_size),
      rto_(config.retransmit_timeout) {
  if (config.pool_size == 0) throw std::invalid_argument("Worker: pool_size must be positive");
  if (config.elems_per_packet == 0)
    throw std::invalid_argument("Worker: elems_per_packet must be positive");
  if (config.sync_after < 0 || config.dead_after < 0)
    throw std::invalid_argument("Worker: sync_after/dead_after must be non-negative");

  if (auto* reg = MetricsRegistry::current()) {
    const std::string p = this->name() + ".";
    reg->add_counter(p + "updates_sent", [this] { return counters_.updates_sent; });
    reg->add_counter(p + "updates_wired", [this] {
      drain_wire_ledger();
      return counters_.updates_wired;
    });
    reg->add_counter(p + "retransmissions", [this] { return counters_.retransmissions; });
    reg->add_counter(p + "timeouts", [this] { return counters_.timeouts; });
    reg->add_counter(p + "results_received", [this] { return counters_.results_received; });
    reg->add_counter(p + "duplicate_results", [this] { return counters_.duplicate_results; });
    reg->add_counter(p + "checksum_drops", [this] { return counters_.checksum_drops; });
    reg->add_gauge(p + "in_flight_slots",
                   [this] { return static_cast<std::int64_t>(in_flight_slots()); });
    reg->add_gauge(p + "rto_ns", [this] { return static_cast<std::int64_t>(rto_); });
    reg->add_summary(p + "rtt_us", &rtt_);
    reg->add_histogram(p + "rtt_ns", &rtt_ns_);
    reg->add_histogram(p + "completion_ns", &completion_ns_);
    reg->add_counter(p + "recovery.sync_queries", [this] { return recovery_.sync_queries; });
    reg->add_counter(p + "recovery.sync_responses",
                     [this] { return recovery_.sync_responses; });
    reg->add_counter(p + "recovery.escalations", [this] { return recovery_.escalations; });
    reg->add_counter(p + "recovery.epoch_resyncs", [this] { return recovery_.epoch_resyncs; });
    reg->add_counter(p + "recovery.epoch_resends", [this] { return recovery_.epoch_resends; });
    reg->add_counter(p + "recovery.rescues_sent", [this] { return recovery_.rescues_sent; });
    reg->add_counter(p + "recovery.dead_declared", [this] { return recovery_.dead_declared; });
    reg->add_gauge(p + "recovery.switch_epoch",
                   [this] { return static_cast<std::int64_t>(switch_epoch_); });
    reg->add_histogram(p + "recovery.resync_ns", &resync_ns_);
  }

  if (inttel::kCompiledIn && config_.int_mode != inttel::kModeOff) {
    // The result path for this worker crosses exactly three stamped hops:
    // its uplink (worker -> switch), the aggregation switch itself, and the
    // downlink (switch -> worker). Pre-declare them so their series exist in
    // the registry from t=0; hops discovered later (multi-rack topologies)
    // still accumulate stats, just without registered series.
    int_collector_ = std::make_unique<inttel::IntCollector>("int." + this->name() + ".");
    const std::uint32_t self = this->id();
    const std::uint32_t sw = config_.switch_id;
    int_collector_->declare_hop(inttel::HopKey{self, sw, inttel::HopKey::kLink}, "up");
    int_collector_->declare_hop(inttel::HopKey{sw, self, inttel::HopKey::kSwitch}, "switch");
    int_collector_->declare_hop(inttel::HopKey{sw, self, inttel::HopKey::kLink}, "down");
  }
}

std::uint32_t Worker::in_flight_slots() const {
  std::uint32_t n = 0;
  for (const Slot& s : slots_)
    if (s.active) ++n;
  return n;
}

void Worker::drain_wire_ledger() {
  // Strictly-before so a sample at time T counts wire activity in [0, T),
  // matching half-open bucketing when samples land on period boundaries.
  const Time now = sim_.now();
  auto kept = std::remove_if(wire_pending_.begin(), wire_pending_.end(),
                             [now](Time t) { return t < now; });
  counters_.updates_wired +=
      static_cast<std::uint64_t>(std::distance(kept, wire_pending_.end()));
  wire_pending_.erase(kept, wire_pending_.end());
}

void Worker::rtt_sample(Time sample) {
  rtt_.add(to_usec(sample));
  rtt_ns_.record(sample);
  if (!config_.adaptive_rto) return;
  rtt_est_.add(sample);
  rto_ = rtt_est_.rto(kRtoMin, kRtoMax);
}

std::uint32_t Worker::chunk_elems(std::uint64_t off) const {
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(config_.elems_per_packet, total_elems_ - off));
}

void Worker::start_reduction(std::span<const std::int32_t> update,
                             std::span<std::int32_t> result,
                             std::function<void()> on_complete) {
  if (update.size() != result.size())
    throw std::invalid_argument("Worker::start_reduction: update/result size mismatch");
  begin_reduction(update.size(), update, result, std::move(on_complete));
}

void Worker::start_reduction(std::uint64_t total_elems, std::function<void()> on_complete) {
  begin_reduction(total_elems, {}, {}, std::move(on_complete));
}

void Worker::begin_reduction(std::uint64_t total_elems, std::span<const std::int32_t> update,
                             std::span<std::int32_t> result,
                             std::function<void()> on_complete) {
  if (reduction_active())
    throw std::logic_error("Worker::start_reduction: previous reduction still running");
  if (total_elems == 0) {
    // Degenerate but legal: nothing to aggregate.
    if (on_complete) on_complete();
    return;
  }
  if (uplink_ == nullptr) throw std::logic_error("Worker: no uplink configured");

  // Replaces the spans the previous reduction's retired slots kept for
  // rescues, so a size-only reduction never sends stale values.
  update_ = update;
  result_ = result;
  total_elems_ = total_elems;
  on_complete_ = std::move(on_complete);
  reduction_started_at_ = sim_.now();
  const std::uint64_t chunks =
      (total_elems + config_.elems_per_packet - 1) / config_.elems_per_packet;
  remaining_chunks_ = chunks;
  s_eff_ = static_cast<std::uint32_t>(std::min<std::uint64_t>(config_.pool_size, chunks));

  for (Slot& s : slots_) s.retired = false;

  // Algorithm 4 lines 1-8: fill the pool with the first s pieces.
  for (std::uint32_t i = 0; i < s_eff_; ++i) {
    slots_[i].off = static_cast<std::uint64_t>(i) * config_.elems_per_packet;
    slots_[i].active = true;
    slots_[i].retransmitted = false;
    slots_[i].retries = 0;
    slots_[i].stall_started_at = -1;
    send_update(i, /*retransmission=*/false);
  }
}

net::Packet Worker::slot_packet(net::PacketKind kind, std::uint32_t slot_index, std::uint8_t ver,
                                std::uint64_t off, std::uint32_t elem_count) const {
  net::Packet p;
  p.kind = kind;
  p.src = id();
  p.dst = dst_resolver_ ? dst_resolver_(slot_index) : config_.switch_id;
  p.job = config_.job;
  p.wid = config_.wid;
  p.ver = ver;
  p.idx = slot_index;
  p.off = off;
  p.transport = config_.transport;
  if (elem_count > 0) { // updates and rescues carry the chunk at `off`
    p.elem_count = elem_count;
    p.elem_bytes = config_.wire_elem_bytes;
    if (!update_.empty()) {
      const auto first = static_cast<std::ptrdiff_t>(off);
      p.values.assign(update_.begin() + first, update_.begin() + first + elem_count);
    }
    p.int_mode = config_.int_mode;
  }
  p.seal();
  return p;
}

void Worker::send_update(std::uint32_t slot_index, bool retransmission) {
  Slot& slot = slots_[slot_index];
  net::Packet p = slot_packet(net::PacketKind::SmlUpdate, slot_index, slot_ver_[slot_index],
                              slot.off, chunk_elems(slot.off));
  slot.epoch = switch_epoch_;
  ++counters_.updates_sent;
  if (retransmission) {
    ++counters_.retransmissions;
    slot.retransmitted = true;
    // The chunk re-enters the host send path (from an RTO or recovery stall).
    attr::transition(id(), slot_index, attr::Component::kHostTx, sim_.now());
  } else {
    slot.retransmitted = false;
    // A fresh chunk: its attribution span starts here, in kHostTx.
    attr::open(id(), slot_index, slot.off, sim_.now());
    trace::emit_flow(sim_.now(), id(), "chunk", trace::chunk_flow_id(id(), slot.off),
                     trace::FlowPhase::kStart);
  }

  const Time wire_time = nic_.tx_ready(core_of(slot_index), p);
  slot.sent_at = sim_.now(); // RTT is measured end-to-end at the app layer
  // Wire times are unsorted across NIC cores, so a drain scans the whole
  // ledger: drain once it has doubled since the last drain, which keeps it
  // bounded at amortized O(1) per send. updates_wired drains fully first.
  if (wire_pending_.size() >= wire_drain_at_) {
    drain_wire_ledger();
    wire_drain_at_ = std::max<std::size_t>(2 * wire_pending_.size(), kMinWireDrain);
  }
  wire_pending_.push_back(wire_time);
  trace::emit(trace::kCatWorker, sim_.now(), id(), retransmission ? "retransmit" : "send",
              {"slot", slot_index}, {"off", static_cast<std::int64_t>(slot.off)},
              {"ver", slot_ver_[slot_index]});
  uplink_->send_from(*this, std::move(p), wire_time);
  if (!config_.lossless) arm_timer(slot_index);
}

void Worker::arm_timer(std::uint32_t slot_index) {
  Slot& slot = slots_[slot_index];
  // Exponential backoff is PER SLOT: repeated losses on one slot must not
  // inflate the timers of healthy slots.
  const int shift = std::min(slot.backoff, 10);
  const Time rto = std::min<Time>(rto_ << shift, kRtoMax);
  // The slot's timer stays armed from phase to phase: re-arming moves it in
  // place instead of leaving one cancelled heap key per update sent.
  slot.timer = sim_.rearm_timer(slot.timer, rto, [this, slot_index] {
    Slot& s = slots_[slot_index];
    if (!s.active || aborted_) return;
    ++counters_.timeouts;
    if (s.retries++ == 0) s.stall_started_at = sim_.now();
    trace::emit(trace::kCatWorker, sim_.now(), id(), "timeout", {"slot", slot_index},
                {"off", static_cast<std::int64_t>(s.off)}, {"retries", s.retries});
    // Final escalation stage: the retry budget is spent, the switch is
    // presumed gone. No further transmission; the dead handler decides.
    if (config_.dead_after > 0 && s.retries >= config_.dead_after) {
      declare_switch_dead();
      return;
    }
    // Backoff applies in fixed-RTO mode too: a switch outage would otherwise
    // have every slot hammering at the base RTO for the whole dead_after
    // budget (adaptive mode always backed off; fixed mode is the bugfix).
    ++s.backoff;
    // Algorithm 4 timeout handler: resend the SAME (idx, ver, off) packet.
    send_update(slot_index, /*retransmission=*/true);
    // Middle escalation stage: ride a slot-state probe on every timeout past
    // the sync_after budget — a plain retransmission cannot repair the
    // restart-races-lost-result stranding, but the probe's answer can.
    if (config_.sync_after > 0 && s.retries >= config_.sync_after) {
      if (s.retries == config_.sync_after) ++recovery_.escalations;
      send_sync_query(slot_index);
    }
  });
}

void Worker::receive(net::Packet&& p, int /*port*/) {
  if (aborted_) return;
  if (p.kind != net::PacketKind::SmlResult && p.kind != net::PacketKind::SmlSyncResponse) {
    SML_LOG(Warn) << name() << ": unexpected packet kind " << net::to_string(p.kind);
    return;
  }
  nic_.receive(core_of(p.idx), std::move(p));
}

void Worker::consume(net::Packet&& p, Time arrived) {
  if (p.kind == net::PacketKind::SmlSyncResponse)
    handle_sync_response(std::move(p));
  else
    handle_result(std::move(p), arrived); // kHostRx runs from the NIC arrival
}

void Worker::handle_result(net::Packet&& p, Time rx_at) {
  if (aborted_) return;
  if (!p.verify()) {
    // Corrupted on the wire: discard; the slot timer repairs it (§3.4).
    ++counters_.checksum_drops;
    trace::emit(trace::kCatWorker, sim_.now(), id(), "checksum_drop", {"slot", p.idx});
    attr::transition_matching(id(), p.idx, p.off, attr::Component::kRtoStall, sim_.now());
    return;
  }
  if (p.idx >= slots_.size()) {
    SML_LOG(Warn) << name() << ": result for slot out of range";
    return;
  }
  // Every result carries the switch incarnation; a newer epoch means the
  // dataplane restarted and all older in-flight contributions were wiped.
  observe_epoch(p.epoch);
  Slot& slot = slots_[p.idx];
  // A result is current only if this slot still has that offset in flight.
  // Anything else is a duplicate delivery (e.g., the multicast arriving after
  // a unicast retransmission reply, or vice versa) and is ignored.
  if (!slot.active || slot.off != p.off) {
    ++counters_.duplicate_results;
    trace::emit(trace::kCatWorker, sim_.now(), id(), "dup_result", {"slot", p.idx},
                {"off", static_cast<std::int64_t>(p.off)});
    return;
  }

  ++counters_.results_received;
  trace::emit(trace::kCatWorker, sim_.now(), id(), "recv", {"slot", p.idx},
              {"off", static_cast<std::int64_t>(p.off)}, {"ver", p.ver});
  if (int_collector_ && p.int_mode != inttel::kModeOff) {
    // Karn's rule for the residual too: a retransmitted slot has no clean
    // end-to-end sample, so only hop stats are folded in (rtt = -1).
    const std::int64_t rtt = slot.retransmitted ? -1 : sim_.now() - slot.sent_at;
    int_collector_->observe(id(), p.int_stack, sim_.now(), rtt);
  }
  // The chunk's span ends here: NIC rx processing since arrival, then done.
  attr::transition(id(), p.idx, attr::Component::kHostRx, rx_at);
  attr::close(id(), p.idx, sim_.now());
  trace::emit_flow(sim_.now(), id(), "chunk", trace::chunk_flow_id(id(), p.off),
                   trace::FlowPhase::kEnd);
  slot.active = false;
  slot.backoff = 0;
  if (slot.retries > 0) {
    // End of a stall episode: first timeout -> result finally consumed.
    resync_ns_.record(sim_.now() - slot.stall_started_at);
    slot.retries = 0;
    slot.stall_started_at = -1;
  }
  ++slot.phases_completed;
  if (!slot.retransmitted) rtt_sample(sim_.now() - slot.sent_at);

  // Algorithm 4 line 12: consume the aggregated piece.
  if (!result_.empty() && !p.values.empty()) {
    std::copy(p.values.begin(), p.values.end(),
              result_.begin() + static_cast<std::ptrdiff_t>(p.off));
  }
  if (on_chunk_) on_chunk_(p.off, p.elem_count);

  // Flip the pool version for this slot (the old copy becomes the shadow).
  // Lossless mode (Algorithm 2) has a single pool version.
  const std::uint8_t consumed_ver = slot_ver_[p.idx];
  if (!config_.lossless) slot_ver_[p.idx] ^= 1;

  // Lines 13-18: reuse the slot for the next piece, k*s elements ahead.
  const std::uint64_t next_off =
      slot.off + static_cast<std::uint64_t>(config_.elems_per_packet) * s_eff_;
  if (next_off < total_elems_) {
    slot.off = next_off;
    slot.active = true;
    send_update(p.idx, /*retransmission=*/false);
  } else {
    // This was the slot's final phase: remember it so a peer stranded on it
    // by a restart can still be rescued (see Slot::retired). Its timer, kept
    // armed across phases, is cancelled only now.
    slot.timer.cancel();
    slot.retired = true;
    slot.retired_off = p.off;
    slot.retired_ver = consumed_ver;
    slot.retired_elems = p.elem_count;
  }

  if (--remaining_chunks_ == 0) {
    completion_ns_.record(sim_.now() - reduction_started_at_);
    total_elems_ = 0;
    // update_ is deliberately KEPT until the next start_reduction: retired
    // slots may still need it to re-contribute their final phase for a peer
    // stranded by a late restart (the caller's buffer outlives the run).
    auto done = std::move(on_complete_);
    on_complete_ = nullptr;
    result_ = {};
    if (done) done();
  }
}

void Worker::observe_epoch(std::uint32_t epoch) {
  if (epoch <= switch_epoch_) return;
  switch_epoch_ = epoch;
  ++recovery_.epoch_resyncs;
  trace::emit(trace::kCatFault, sim_.now(), id(), "epoch_resync",
              {"epoch", static_cast<std::int64_t>(epoch)});
  if (aborted_) return;
  // Every packet driven under an older incarnation was wiped by the restart;
  // re-drive it now instead of waiting out the RTO. Re-driving a slot whose
  // contribution actually survives (sent post-restart, epoch not yet learned)
  // is idempotent: the switch's seen bitmap absorbs the duplicate.
  for (std::uint32_t i = 0; i < s_eff_; ++i) {
    Slot& s = slots_[i];
    if (!s.active || s.epoch >= epoch) continue;
    ++recovery_.epoch_resends;
    send_update(i, /*retransmission=*/true);
  }
}

void Worker::send_sync_query(std::uint32_t slot_index) {
  Slot& slot = slots_[slot_index];
  net::Packet p =
      slot_packet(net::PacketKind::SmlSyncQuery, slot_index, slot_ver_[slot_index], slot.off);
  ++recovery_.sync_queries;
  const Time wire_time = nic_.tx_ready(core_of(slot_index), p);
  trace::emit(trace::kCatFault, sim_.now(), id(), "sync_query", {"slot", slot_index},
              {"off", static_cast<std::int64_t>(slot.off)});
  uplink_->send_from(*this, std::move(p), wire_time);
}

void Worker::handle_sync_response(net::Packet&& p) {
  if (aborted_) return;
  if (!p.verify()) {
    ++counters_.checksum_drops;
    return;
  }
  if (p.idx >= slots_.size()) return;
  Slot& slot = slots_[p.idx];
  if (!slot.active) {
    // Slot-state announcements reach every worker of the job, not just the
    // prober. A retired slot can still volunteer its final phase: if that
    // exact (version, offset) is mid-aggregation again, only a restart can
    // explain it -- and OUR announced seen bit being clear proves our wiped
    // contribution is genuinely missing (it stays set through a normal
    // in-progress aggregation, so no double-count is possible).
    if (!slot.retired) return;
    observe_epoch(p.epoch);
    const int rv = slot.retired_ver & 1;
    const std::uint32_t count_r = rv ? p.sync_count1 : p.sync_count0;
    const std::uint64_t claim_r = rv ? p.sync_off1 : p.sync_off0;
    const bool seen_mine = ((p.sync_seen >> rv) & 1) != 0;
    if (count_r > 0 && claim_r == slot.retired_off && !seen_mine) {
      ++recovery_.sync_responses;
      send_rescue(p.idx, slot.retired_off, slot.retired_ver, slot.retired_elems);
    }
    return;
  }
  // The response echoes the probe's offset; anything else is a stale answer
  // for a phase this slot has already moved past.
  if (slot.off != p.off) return;
  ++recovery_.sync_responses;
  observe_epoch(p.epoch);
  // Stranding-race detection (restart destroyed the shadow copy of a result
  // that was concurrently lost to some worker): this worker is one phase
  // AHEAD of the stragglers iff the OTHER pool version is mid-aggregation at
  // exactly the previous phase's offset. The pattern is only satisfiable
  // after a restart — in normal operation the other version's claim is
  // either this slot's next phase or empty — and it closes by itself once
  // the rescued phase completes, so retrying a lost rescue stays safe.
  if (slot.phases_completed == 0) return;
  const std::uint8_t other = slot_ver_[p.idx] ^ 1;
  const std::uint32_t count_other = other ? p.sync_count1 : p.sync_count0;
  const std::uint64_t claim_other = other ? p.sync_off1 : p.sync_off0;
  const std::uint64_t stride = static_cast<std::uint64_t>(config_.elems_per_packet) * s_eff_;
  if (count_other > 0 && claim_other == slot.off - stride)
    send_rescue(p.idx, slot.off - stride, other, chunk_elems(slot.off - stride));
}

void Worker::send_rescue(std::uint32_t slot_index, std::uint64_t off, std::uint8_t ver,
                         std::uint32_t elem_count) {
  net::Packet p = slot_packet(net::PacketKind::SmlRescue, slot_index, ver, off, elem_count);
  ++recovery_.rescues_sent;
  const Time wire_time = nic_.tx_ready(core_of(slot_index), p);
  trace::emit(trace::kCatFault, sim_.now(), id(), "rescue_send", {"slot", slot_index},
              {"off", static_cast<std::int64_t>(off)}, {"ver", ver});
  uplink_->send_from(*this, std::move(p), wire_time);
  // No timer: the slot's own RTO keeps firing, and each timeout re-probes the
  // switch; a lost rescue is simply re-sent when the next probe answers.
}

void Worker::declare_switch_dead() {
  if (dead_declared_) return;
  dead_declared_ = true;
  ++recovery_.dead_declared;
  trace::emit(trace::kCatFault, sim_.now(), id(), "switch_dead", {"epoch", switch_epoch_});
  SML_LOG(Warn) << name() << ": retry budget exhausted, declaring switch dead";
  // Stop our own transmissions first so the simulation can drain even when
  // nobody installed a dead handler (standalone tests).
  abort_reduction();
  if (on_switch_dead_) on_switch_dead_();
}

void Worker::abort_reduction() {
  if (aborted_) return;
  aborted_ = true;
  for (Slot& s : slots_) s.timer.cancel();
  // Every unconsumed chunk now belongs to the PS-fallback replay; the fabric
  // closes the spans when the fallback delivers them.
  attr::transition_all(id(), attr::Component::kFallback, sim_.now());
}

std::vector<std::uint64_t> Worker::unconsumed_chunks() const {
  std::vector<std::uint64_t> offs;
  if (s_eff_ == 0) return offs;
  const std::uint64_t stride = static_cast<std::uint64_t>(config_.elems_per_packet) * s_eff_;
  for (const Slot& s : slots_) {
    if (!s.active) continue;
    for (std::uint64_t off = s.off; off < total_elems_; off += stride) offs.push_back(off);
  }
  std::sort(offs.begin(), offs.end());
  return offs;
}

void Worker::finish_aborted_reduction() {
  for (Slot& s : slots_) {
    s.timer.cancel();
    s.active = false;
    s.retransmitted = false;
    s.backoff = 0;
    s.retries = 0;
    s.stall_started_at = -1;
  }
  remaining_chunks_ = 0;
  total_elems_ = 0;
  update_ = {};
  result_ = {};
  on_complete_ = nullptr;
  aborted_ = false;
  dead_declared_ = false;
}

} // namespace switchml::worker
