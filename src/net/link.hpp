// Full-duplex point-to-point link with per-direction rate, propagation delay,
// finite drop-tail queue, and an optional Bernoulli loss process (used for
// the paper's §5.5 packet-loss experiments).
//
// The serialization model keeps exactly one simulator event per delivered
// packet. A direction is a FIFO pipe with one ledger: a record per
// transmitted packet, in sequence order, that owns the packet until its
// delivery (a lost packet's record only holds the port until its
// serialization ends). The ledger is a PipeFifo (net/pipe_fifo.hpp) whose
// position is the record's seq, so a delivery finds its record with one
// chunk-pointer load, and a rolling direction recycles its chunks instead of
// allocating. Queue occupancy is the ledger's tail of unfinished
// serializations, advanced lazily. Deliveries ride one ordered event stream
// per direction (sim::Simulation::schedule_on), hold one event-heap key
// between them, and carry only their record's sequence number, the arg of
// the stream's one handler, so mid-run mutations can retarget them:
// `set_rate` re-plans every unfinished serialization (bits already clocked
// out at the old rate stay out) and `set_down` kills everything undelivered
// — a downed link delivers nothing, ever, for its down interval; the
// deliveries still queued find no record and do nothing.
//
// Each transmit, drop, corruption and delivery is one event in the ambient
// TraceSink's `link` category, emitted by the sending node: `enqueue`,
// `deliver`, `drop_queue`, `drop_loss`, `drop_down`, `drop_burst` or
// `corrupt`, with the receiving node (`to`), the packet's slot and its wire
// bytes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "common/histogram.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/pipe_fifo.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"

namespace switchml::net {

struct LinkConfig {
  BitsPerSecond rate = gbps(10);
  Time propagation = nsec(500);
  std::int64_t queue_limit_bytes = 2 * kMiB;
  double loss_prob = 0.0;
};

// Two-state Gilbert-Elliott loss process: per packet the chain first moves
// (good->bad with p_enter, bad->good with p_exit), then the packet is dropped
// with the current state's loss probability. The stationary loss rate is
// loss_bad * p_enter / (p_enter + p_exit) + loss_good * p_exit / (p_enter +
// p_exit) — matched-average comparisons against the Bernoulli process are how
// fault_sweep shows burstiness (not just rate) drives RTO stalls.
struct BurstLossConfig {
  double p_enter = 0.0;   // good -> bad transition probability per packet
  double p_exit = 0.1;    // bad -> good transition probability per packet
  double loss_good = 0.0; // drop probability in the good state
  double loss_bad = 0.5;  // drop probability in the bad state
};

class Link {
public:
  struct Counters {
    std::uint64_t tx_packets = 0;
    std::uint64_t tx_bytes = 0;
    std::uint64_t delivered_packets = 0;
    std::uint64_t dropped_queue = 0;
    std::uint64_t dropped_loss = 0;
    std::uint64_t dropped_down = 0;  // sent into (or in flight across) a downed link
    std::uint64_t dropped_burst = 0; // Gilbert-Elliott burst-loss drops
    std::uint64_t burst_entries = 0; // good->bad transitions of the burst chain
  };

  Link(sim::Simulation& simulation, const LinkConfig& config, Node& end_a, int port_a,
       Node& end_b, int port_b, std::uint64_t seed);
  // Its streams' handlers hold its address.
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Transmits `p` from `sender` (which must be one of the two endpoints).
  // `earliest_start` lets upstream processing (NIC cores, switch pipeline)
  // delay the moment the packet reaches the port without an extra event.
  void send_from(const Node& sender, Packet&& p, Time earliest_start = 0);

  [[nodiscard]] const Counters& counters_from(const Node& sender) const;

  // O(1) egress queue depth of the direction leaving `sender`: advances the
  // ledger's serialization cursor to now, then reads the running totals (the
  // same ledger send_from maintains — no recompute). Registered as the
  // per-direction "queue_bytes"/"queue_pkts" gauges.
  [[nodiscard]] std::int64_t queue_depth_bytes(const Node& sender);
  [[nodiscard]] std::int64_t queue_depth_pkts(const Node& sender);

  [[nodiscard]] const LinkConfig& config() const { return config_; }
  void set_loss_prob(double p) { config_.loss_prob = p; }

  // Changes the link rate mid-run (congestion & straggler experiments, §6
  // "Lack of congestion control"). Every unfinished serialization is
  // re-planned at the new rate: bits already clocked out at the old rate stay
  // out, the remainder continues at the new rate, and queued packets chain
  // after the re-planned finish times. Starts never move earlier than
  // originally planned; finishes (and deliveries) may. Throws for rate <= 0 —
  // a dead link is set_down(), not rate 0.
  void set_rate(BitsPerSecond rate);

  // Administrative link state (fault injection). Taking the link down drops
  // every packet currently serializing or propagating, in both directions,
  // and everything sent while down: the down interval delivers zero packets.
  // Bringing it back up resumes normal service from an idle port.
  void set_down();
  void set_up();
  [[nodiscard]] bool is_down() const { return down_; }

  // Enables/disables the Gilbert-Elliott burst-loss process on both
  // directions (applied on top of the Bernoulli process). Each direction's
  // chain draws from its own RNG stream, so enabling bursts never perturbs
  // the Bernoulli loss draws.
  void set_burst_loss(const BurstLossConfig& cfg);

  // Deterministic loss injection for tests and trace replay (e.g. the
  // Appendix A execution): returns true to drop the packet. Applied in
  // addition to the Bernoulli loss process.
  using DropFilter = std::function<bool(const Node& sender, const Packet& p)>;
  void set_drop_filter(DropFilter f) { drop_filter_ = std::move(f); }

  // Bit-error injection: when the filter matches, a payload (or header) bit
  // is flipped in flight, so the receiver's checksum verification fails
  // (§3.4). The packet is still delivered — detection is the receiver's job.
  void set_corrupt_filter(DropFilter f) { corrupt_filter_ = std::move(f); }
  // Random bit-error rate per packet (applied like the loss process).
  void set_corrupt_prob(double p) { corrupt_prob_ = p; }

  [[nodiscard]] Node& peer_of(const Node& n);

private:
  // One transmitted packet: it occupies the port over [start, finish) at the
  // rate in force when it was (last) planned, then propagates and is
  // delivered at finish + propagation, unless it was lost on the wire. The
  // delivery event re-checks that time when it pops (set_rate may have moved
  // it: a twin chases an earlier one, an early pop reschedules itself) and
  // ignores itself once `deliver` is clear or the record is gone (set_down).
  // Its seq is its ledger position, and `drain` reads only its first 32
  // bytes (`finish`, `deliver`, `bytes`).
  struct Record {
    Time start = 0;
    Time finish = 0;
    bool deliver = false; // still to be delivered: not lost, not yet delivered
    std::int64_t bytes = 0;
    // Bits still to clock out from `start` on: all of them until a re-plan
    // moves `start` into the serialization.
    std::int64_t bits_left = 0;
    Packet pkt;
  };

  struct Direction {
    Direction(Node* to, int to_port, sim::StreamId stream, sim::Rng rng)
        : to(to), to_port(to_port), stream(stream), rng(std::move(rng)) {}
    Node* to;
    int to_port;
    sim::StreamId stream; // the deliveries' event stream
    Time busy_until = 0;
    // Records at their seqs, from the oldest still serializing or still to be
    // delivered; finishes never decrease along it. Its tail is the next seq.
    PipeFifo<Record> ledger;
    std::uint64_t serializing = 0;  // seq of the first unfinished serialization
    std::int64_t backlog_bytes = 0; // bytes of records [serializing, ledger.tail())
    bool burst_bad = false;                // Gilbert-Elliott chain state
    std::optional<sim::Rng> burst_rng;     // own stream; absent until bursts enabled
    Counters counters;
    sim::Rng rng;
    // Time each packet waited behind earlier serializations before its own
    // began (0 when the port was idle) — the queueing-delay distribution.
    Histogram queue_wait_ns;
  };

  Direction& direction_from(const Node& sender);
  [[nodiscard]] const Node& from_of(const Direction& dir) const;
  // Moves the serialization cursor past every record finished by now, then
  // drops the front records that are finished and owe no delivery.
  void drain(Direction& dir);
  [[nodiscard]] static std::int64_t queue_pkts(const Direction& dir) {
    return static_cast<std::int64_t>(dir.ledger.tail() - dir.serializing);
  }
  void stamp_int(const Node& sender, Direction& dir, Packet& p, Time earliest_start);
  void transmit(const Node& sender, Direction& dir, Packet&& p, Time earliest_start);
  void deliver_event(Direction& dir, std::uint64_t seq);
  void replan(Direction& dir, BitsPerSecond old_rate);
  static void corrupt(Packet& p);

  DropFilter drop_filter_;
  DropFilter corrupt_filter_;
  double corrupt_prob_ = 0.0;
  std::optional<BurstLossConfig> burst_;
  bool down_ = false;

  sim::Simulation& sim_;
  LinkConfig config_;
  std::uint64_t seed_;
  Node* end_a_;
  Node* end_b_;
  Direction a_to_b_;
  Direction b_to_a_;
};

} // namespace switchml::net
