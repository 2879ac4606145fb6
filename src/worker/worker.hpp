// SwitchML worker: the end-host side of the aggregation protocol
// (Algorithms 2 and 4).
//
// Each worker manages the shared pool of s switch aggregators: it sends an
// initial window of s update packets (one per slot), then operates fully
// self-clocked — each received result releases its slot and triggers exactly
// one new update packet for the next piece of the model (offset advanced by
// k*s, version bit flipped). Packet loss is repaired solely by worker-side
// retransmission timers; the switch's seen-bitmap/shadow-copy state makes
// retransmission idempotent.
//
// The worker also models the paper's DPDK implementation details that matter
// for performance (Appendix B): slots are sharded over NIC cores
// Flow-Director-style (core = idx % cores), and every TX/RX packet charges
// CPU time on its owning core (net::HostNic, on either transport).
//
// A worker processes int32 vectors; quantization to/from float happens in
// the core library layer (core/allreduce) so this class stays a pure
// transport state machine.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/histogram.hpp"
#include "common/int_telemetry.hpp"
#include "common/stats.hpp"
#include "net/link.hpp"
#include "net/nic.hpp"
#include "net/node.hpp"

namespace switchml::worker {

// A worker's protocol parameters. Whether its packets carry values is not
// one of them: a reduction started with spans sends values, and a size-only
// one sends only the chunks' sizes (start_reduction).
struct WorkerConfig {
  std::uint16_t wid = 0;
  int n_workers = 8;
  std::uint32_t pool_size = 128;                                // s
  std::uint32_t elems_per_packet = net::kDefaultElemsPerPacket; // k
  std::uint8_t wire_elem_bytes = 4; // 4 = int32 wire format, 2 = fp16 (§3.7)
  Time retransmit_timeout = msec(1);
  // §6: "one should take care to adapt the retransmission timeout according
  // to variations in end-to-end RTT". When enabled, the worker runs a
  // Jacobson/Karels estimator (SRTT + 4*RTTVAR) seeded from
  // retransmit_timeout, clamped to [Worker::kRtoMin, Worker::kRtoMax].
  // Capped per-slot exponential backoff on repeated timeouts applies in BOTH
  // modes (fixed mode backs off from the fixed base instead of the
  // estimator), never past kRtoMax.
  bool adaptive_rto = false;
  // Recovery escalation budgets, counted in CONSECUTIVE timeouts of one
  // slot (0 disables the stage). After `sync_after` timeouts each further
  // timeout also sends a SlotSyncQuery probing the switch's slot state
  // (epoch, per-version counters, seen bits) — the probe detects a restart
  // that raced a lost result and drives the rescue re-contribution. After
  // `dead_after` timeouts the worker declares the switch dead and fires the
  // switch-dead handler (the fabric then degrades to the PS fallback).
  int sync_after = 0;
  int dead_after = 0;
  // In-band telemetry mode for this worker's data packets (kModeOff /
  // kModePhantom / kModeOnWire). With a non-off mode the worker owns an
  // IntCollector that parses the stacks echoed back on its results.
  // Meaningless unless the telemetry stack is compiled in (SWITCHML_INT).
  std::uint8_t int_mode = inttel::kModeOff;
  net::NicConfig nic;
  // Host transport: the DPDK/UDP datapath (default) or RDMA UC with the
  // cost knobs below. RDMA UC has no transport-level ACK/RTO — loss repair
  // stays with the slot protocol's timers in both modes.
  net::TransportKind transport = net::kDefaultTransport;
  net::RdmaUcParams rdma;
  net::NodeId switch_id = 0;
  std::uint8_t job = 0;
  // §3.2 lossless mode (Algorithm 2): the network guarantees delivery, so
  // the worker runs without retransmission timers and without the version
  // bit. Pair with an Algorithm-1 (lossless) switch.
  bool lossless = false;
};

class Worker : public net::Node {
public:
  // Bounds of the retransmission timeout: the adaptive estimate is clamped
  // to [kRtoMin, kRtoMax], and backoff never exceeds kRtoMax.
  static constexpr Time kRtoMin = usec(150);
  static constexpr Time kRtoMax = msec(64);

  Worker(sim::Simulation& simulation, net::NodeId id, std::string name, WorkerConfig config);

  void set_uplink(net::Link& link) { uplink_ = &link; }

  // Overrides the per-slot destination. By default every update goes to the
  // aggregation switch; the PS-like baseline (§5.3) instead shards slots over
  // n software parameter servers (dst = ps[idx % n_ps]).
  void set_destination_resolver(std::function<net::NodeId(std::uint32_t slot)> r) {
    dst_resolver_ = std::move(r);
  }

  // Aggregates `update` (this worker's quantized model-update piece) with all
  // other workers; the switch-aggregated sums are written to `result`.
  // Both spans must stay alive until `on_complete` fires. All workers of the
  // job must start a reduction of the same size.
  void start_reduction(std::span<const std::int32_t> update, std::span<std::int32_t> result,
                       std::function<void()> on_complete);

  // Size-only variant: packets carry chunk sizes, no values.
  void start_reduction(std::uint64_t total_elems, std::function<void()> on_complete);

  // Optional per-chunk hook, fired as aggregated pieces arrive (used by the
  // stream buffer manager for per-tensor completion).
  void set_chunk_handler(std::function<void(std::uint64_t off, std::uint32_t count)> h) {
    on_chunk_ = std::move(h);
  }

  // Drops what an aborted worker ignores and kinds no worker takes, and
  // hands the rest to the packet's NIC lane; consume() takes it from there.
  void receive(net::Packet&& p, int port) override;

  struct Counters {
    std::uint64_t updates_sent = 0;  // at send time; includes retransmissions
    // At NIC wire time (tx_ready); lags updates_sent. Counted lazily: the
    // registry's "updates_wired" brings it up to date before each read.
    std::uint64_t updates_wired = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t results_received = 0;
    std::uint64_t duplicate_results = 0;
    std::uint64_t checksum_drops = 0; // corrupted results discarded (§3.4)
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  // Recovery-protocol observability (exported as "<name>.recovery.*").
  struct RecoveryCounters {
    std::uint64_t sync_queries = 0;    // SlotSyncQuery packets sent
    std::uint64_t sync_responses = 0;  // responses consumed
    std::uint64_t escalations = 0;     // slots that crossed the sync_after budget
    std::uint64_t epoch_resyncs = 0;   // newer-epoch observations acted on
    std::uint64_t epoch_resends = 0;   // in-flight packets re-driven on resync
    std::uint64_t rescues_sent = 0;    // previous-phase re-contributions
    std::uint64_t dead_declared = 0;   // 1 once the dead_after budget is spent
  };
  [[nodiscard]] const RecoveryCounters& recovery() const { return recovery_; }

  // Fired exactly once when a slot exhausts the dead_after retry budget.
  void set_switch_dead_handler(std::function<void()> h) { on_switch_dead_ = std::move(h); }

  // Tears down the in-flight reduction without completing it: all slot
  // timers are cancelled and no further packets are sent, but the slot
  // offsets are kept so unconsumed_chunks() can report what remains. The
  // fabric calls this on every worker when one declares the switch dead.
  void abort_reduction();
  [[nodiscard]] bool aborted() const { return aborted_; }

  // Chunk offsets this worker has not consumed a result for (valid after
  // abort_reduction); the fallback collective replays their union.
  [[nodiscard]] std::vector<std::uint64_t> unconsumed_chunks() const;

  // Clears the aborted reduction's state once the fallback replayed it (the
  // on_complete callback is dropped, never fired).
  void finish_aborted_reduction();

  // Latest switch incarnation this worker has observed.
  [[nodiscard]] std::uint32_t switch_epoch() const { return switch_epoch_; }

  // Stall-recovery latency distribution: first timeout of an episode until
  // the stalled slot's result finally arrives ("<name>.recovery.resync_ns").
  [[nodiscard]] const Histogram& resync_hist() const { return resync_ns_; }

  // Per-packet RTT samples (send -> result), excluding retransmitted packets
  // (Karn's rule). Used for Fig 2's right axis.
  [[nodiscard]] const Summary& rtt() const { return rtt_; }

  // Same samples as fixed-memory nanosecond distributions ("<name>.rtt_ns"),
  // plus per-reduction completion times ("<name>.completion_ns") whose
  // spread across workers is the Fig 4 tensor-completion skew.
  [[nodiscard]] const Histogram& rtt_hist() const { return rtt_ns_; }
  [[nodiscard]] const Histogram& completion_hist() const { return completion_ns_; }

  // Current retransmission timeout (adaptive or fixed).
  [[nodiscard]] Time current_rto() const { return rto_; }

  // Telemetry sink for this worker's echoed INT stacks. Non-null only when
  // the stack is compiled in AND config.int_mode != kModeOff.
  [[nodiscard]] inttel::IntCollector* int_collector() const { return int_collector_.get(); }
  // Wires the fabric-owned fault localizer into this worker's collector
  // (no-op without a collector).
  void set_int_localizer(inttel::FaultLocalizer* localizer) {
    if (int_collector_) int_collector_->set_localizer(localizer);
  }

  // Slots with an update packet outstanding (also exported as the
  // "<name>.in_flight_slots" gauge for timeline sampling).
  [[nodiscard]] std::uint32_t in_flight_slots() const;

  [[nodiscard]] const WorkerConfig& config() const { return config_; }
  [[nodiscard]] net::HostNic& nic() { return nic_; }
  [[nodiscard]] bool reduction_active() const { return remaining_chunks_ > 0; }
  // Highest phase any slot has completed minus lowest — the §3.5 invariant
  // says this can never exceed 1 across workers; exposed for tests.
  [[nodiscard]] std::uint64_t slot_phase(std::uint32_t slot) const {
    return slots_[slot].phases_completed;
  }

private:
  struct Slot {
    std::uint64_t off = 0;   // offset currently in flight on this slot
    bool active = false;     // a packet for `off` is outstanding
    bool retransmitted = false;
    int backoff = 0;         // per-slot capped exponential RTO backoff
    int retries = 0;         // consecutive timeouts (escalation budget)
    std::uint32_t epoch = 0; // switch epoch known when `off` was last driven
    Time stall_started_at = -1; // first timeout of the current episode
    Time sent_at = 0;
    // RTO timer (none in lossless mode): armed from the slot's first send
    // until it retires or the reduction aborts, and re-armed by every send.
    sim::TimerHandle timer;
    std::uint64_t phases_completed = 0;
    // Final-phase retire record. After this slot's LAST result is consumed
    // no timer ever fires for it again — but a switch restart can strand a
    // slower peer re-claiming that exact phase with nobody left to complete
    // it. The job-wide slot-state announcement (SmlSyncResponse multicast)
    // lets this worker spot the re-claim and volunteer the re-contribution;
    // its own announced seen bit (wiped by the restart, still set otherwise)
    // distinguishes the stranding from a normal in-progress aggregation.
    bool retired = false;
    std::uint64_t retired_off = 0;
    std::uint8_t retired_ver = 0;
    std::uint32_t retired_elems = 0;
  };

  // The sealed packet every request about a slot starts as: an update, a
  // sync query or a rescue. A non-zero `elem_count` adds the chunk at `off`
  // (updates and rescues). Forced inline: every update is built here.
  [[gnu::always_inline]] [[nodiscard]] inline net::Packet slot_packet(
      net::PacketKind kind, std::uint32_t slot_index, std::uint8_t ver, std::uint64_t off,
      std::uint32_t elem_count = 0) const;
  void send_update(std::uint32_t slot_index, bool retransmission);
  void handle_result(net::Packet&& p, Time rx_at);
  void handle_sync_response(net::Packet&& p);
  void send_sync_query(std::uint32_t slot_index);
  void send_rescue(std::uint32_t slot_index, std::uint64_t off, std::uint8_t ver,
                   std::uint32_t elem_count);
  void observe_epoch(std::uint32_t epoch);
  void declare_switch_dead();
  void arm_timer(std::uint32_t slot_index);
  void rtt_sample(Time sample);
  void drain_wire_ledger();
  void begin_reduction(std::uint64_t total_elems, std::span<const std::int32_t> update,
                       std::span<std::int32_t> result, std::function<void()> on_complete);
  [[nodiscard]] std::uint32_t chunk_elems(std::uint64_t off) const;
  [[nodiscard]] int core_of(std::uint32_t idx) const {
    return static_cast<int>(idx % static_cast<std::uint32_t>(nic_.cores()));
  }

protected:
  [[nodiscard]] net::Link* uplink() const { return uplink_; }
  // The one dispatch after a packet's NIC lane has processed it.
  virtual void consume(net::Packet&& p, Time arrived);

private:
  WorkerConfig config_;
  net::HostNic nic_;
  net::Link* uplink_ = nullptr;
  std::function<net::NodeId(std::uint32_t)> dst_resolver_;

  // Persistent across reductions: the single-bit pool version each slot will
  // use next, mirroring the switch's two-pool state (Algorithm 4 `ver`).
  std::vector<std::uint8_t> slot_ver_;

  std::vector<Slot> slots_;
  std::uint32_t s_eff_ = 0; // min(pool_size, chunks) for the current reduction
  std::uint64_t total_elems_ = 0;
  std::uint64_t remaining_chunks_ = 0;
  std::span<const std::int32_t> update_;
  std::span<std::int32_t> result_;
  std::function<void()> on_complete_;
  std::function<void(std::uint64_t, std::uint32_t)> on_chunk_;

  Counters counters_;
  RecoveryCounters recovery_;
  std::unique_ptr<inttel::IntCollector> int_collector_;
  std::uint32_t switch_epoch_ = 0;
  bool aborted_ = false;
  bool dead_declared_ = false;
  std::function<void()> on_switch_dead_;
  // Wire times of packets handed to the NIC but not yet serialized onto the
  // link; drained lazily (like Link's occupancy ledger) to advance
  // updates_wired without per-packet simulator events. A send drains it only
  // once it reaches wire_drain_at_ (twice its size after the last drain), so
  // it stays within twice the in-flight window.
  static constexpr std::size_t kMinWireDrain = 16;
  std::vector<Time> wire_pending_;
  std::size_t wire_drain_at_ = kMinWireDrain;
  Summary rtt_;
  Histogram rtt_ns_;
  Histogram completion_ns_;
  Histogram resync_ns_;
  Time reduction_started_at_ = 0;
  Time rto_ = 0;
  RttEstimator rtt_est_; // adaptive_rto
};

} // namespace switchml::worker
