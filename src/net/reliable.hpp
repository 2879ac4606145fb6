// Reliable byte-stream transport ("TCP-lite") used by the baseline
// communication strategies (Gloo/NCCL-style collectives and the parameter
// servers). Sliding window with cumulative ACKs, out-of-order buffering at
// the receiver (SACK-like), single-segment fast retransmit on duplicate
// ACKs, and go-back-N with exponential backoff on RTO — enough fidelity to
// reproduce the paper's §5.5 observation that the TCP baselines inflate much
// faster than SwitchML under random loss (head-of-line blocking and RTO
// stalls versus SwitchML's independent per-slot repair).
//
// A TransportHost is a network node that demultiplexes segments/ACKs to the
// senders/receivers registered on it, charging NIC core time per packet.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <unordered_map>

#include "common/histogram.hpp"
#include "common/stats.hpp"
#include "net/link.hpp"
#include "net/nic.hpp"
#include "net/node.hpp"

namespace switchml::net {

// Every sender runs TCP congestion control (AIMD). Connections are
// persistent (Gloo/NCCL reuse them across rounds), so cwnd STARTS at the
// window cap and only reacts to loss: halve on fast retransmit, collapse to
// one MSS on RTO, then grow additively — the 1/sqrt(p) throughput collapse
// that makes the TCP baselines inflate so badly in Fig 5.
struct TransportProfile {
  std::int64_t mss = 1460;                 // payload bytes per segment
  std::int64_t window_bytes = 256 * 1024;  // receive/flow-control window cap
  Time rto_initial = msec(2);
  Time rto_max = msec(64); // cap of the doubling RTO backoff and the adaptive RTO
  // RTT-adaptive RTO (Jacobson/Karels SRTT + 4*RTTVAR, fed by the Karn-
  // filtered probe samples the sender already records), never below
  // ReliableSender::kRtoMin. Off by default: the legacy behaviour resets the
  // RTO to rto_initial on every forward ACK.
  bool adaptive_rto = false;
  int dupack_threshold = 3;
};

class ReliableSender;
class ReliableReceiver;

// Host-wide transport totals, aggregated across all senders that ever lived
// on the host; a sender counts its events here and nowhere else. Senders are
// per-transfer and ephemeral, so the registered metrics hang off the host,
// which lives as long as the cluster.
struct TransportCounters {
  std::uint64_t segments_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t fast_retransmits = 0;
};

class TransportHost : public Node {
public:
  TransportHost(sim::Simulation& simulation, NodeId id, std::string name, const NicConfig& nic);

  void set_uplink(Link& link) { uplink_ = &link; }
  [[nodiscard]] Link* uplink() const { return uplink_; }
  [[nodiscard]] HostNic& nic() { return nic_; }

  // Hands the packet to its stream's NIC lane; consume() demultiplexes it.
  void receive(Packet&& p, int port) override;

  // Charges a TX core slot and puts the packet on the uplink.
  void transmit(Packet&& p);

  void register_sender(std::uint32_t stream, ReliableSender* s) { senders_[stream] = s; }
  void register_receiver(std::uint32_t stream, ReliableReceiver* r) { receivers_[stream] = r; }
  void unregister_sender(std::uint32_t stream) { senders_.erase(stream); }
  void unregister_receiver(std::uint32_t stream) { receivers_.erase(stream); }

  [[nodiscard]] TransportCounters& transport_counters() { return transport_counters_; }
  [[nodiscard]] const TransportCounters& transport_counters() const { return transport_counters_; }

  // Latency spans, host-wide for the same lifetime reason as the counters:
  // ACK-clocked segment RTT (one probe segment per window, Karn's rule) and
  // loss-recovery latency (first retransmission to ACK advance).
  [[nodiscard]] Histogram& rtt_hist() { return rtt_ns_; }
  [[nodiscard]] Histogram& retx_recovery_hist() { return retx_recovery_ns_; }

private:
  void consume(Packet&& p);
  [[nodiscard]] int lane_of(std::uint32_t stream) const {
    return static_cast<int>(stream % static_cast<std::uint32_t>(nic_.cores()));
  }

  HostNic nic_;
  Link* uplink_ = nullptr;
  std::unordered_map<std::uint32_t, ReliableSender*> senders_;
  std::unordered_map<std::uint32_t, ReliableReceiver*> receivers_;
  TransportCounters transport_counters_;
  Histogram rtt_ns_;
  Histogram retx_recovery_ns_;
};

// Sends `total_bytes` to `dst` as a single stream. If `data` is nonempty it
// must contain total_bytes/4 floats, which are carried in the segments so the
// receiver can apply them (correctness-mode runs); otherwise the transfer is
// timing-only.
class ReliableSender {
public:
  // Each timeout multiplies the RTO by kRtoBackoff (up to rto_max); the
  // adaptive RTO never drops below kRtoMin.
  static constexpr double kRtoBackoff = 2.0;
  static constexpr Time kRtoMin = usec(100);

  ReliableSender(TransportHost& host, NodeId dst, std::uint32_t stream,
                 const TransportProfile& profile, std::function<void()> on_complete);
  ~ReliableSender();
  ReliableSender(const ReliableSender&) = delete;
  ReliableSender& operator=(const ReliableSender&) = delete;

  void start(std::int64_t total_bytes, std::span<const float> data = {});
  void on_ack(const Packet& ack);

  [[nodiscard]] bool done() const { return total_ > 0 && snd_una_ >= total_; }

private:
  void pump();
  void send_segment(std::int64_t seq);
  void arm_rto();
  void on_timeout();
  [[nodiscard]] Time base_rto() const;

  TransportHost& host_;
  NodeId dst_;
  std::uint32_t stream_;
  TransportProfile profile_;
  std::function<void()> on_complete_;

  std::int64_t total_ = 0;
  std::span<const float> data_;
  std::int64_t snd_una_ = 0;
  std::int64_t snd_nxt_ = 0;
  std::int64_t snd_max_ = 0; // high-water mark; bytes below it are retransmissions
  int dupacks_ = 0;
  bool in_fast_recovery_ = false;
  std::int64_t cwnd_ = 0;     // congestion window (bytes)
  std::int64_t ssthresh_ = 0; // slow-start threshold (bytes)
  Time rto_;
  sim::TimerHandle timer_;
  // RTT probe: one timed segment per window; any retransmission while it is
  // outstanding invalidates the sample (Karn's rule, ambiguous ACK).
  std::int64_t probe_end_ = -1; // byte the probe's cumulative ACK must reach
  Time probe_sent_at_ = 0;
  // Loss-recovery span: first retransmission (RTO or fast retransmit) until
  // the next cumulative ACK advance.
  Time retx_since_ = -1;
  RttEstimator rtt_est_; // profile_.adaptive_rto
};

// Receives a single stream of `total_bytes`. Out-of-order segments are
// buffered (SACK-like) and delivered in order once the gap fills; every
// arrival is acknowledged cumulatively, so gaps produce duplicate ACKs.
class ReliableReceiver {
public:
  using ChunkHandler =
      std::function<void(std::uint64_t seq, std::uint32_t len, std::span<const float> data)>;

  ReliableReceiver(TransportHost& host, NodeId src, std::uint32_t stream,
                   std::int64_t total_bytes, ChunkHandler on_chunk,
                   std::function<void()> on_complete);
  ~ReliableReceiver();
  ReliableReceiver(const ReliableReceiver&) = delete;
  ReliableReceiver& operator=(const ReliableReceiver&) = delete;

  void on_segment(Packet&& p);
  [[nodiscard]] bool done() const { return rcv_nxt_ >= total_; }
  [[nodiscard]] std::size_t buffered_segments() const { return ooo_.size(); }

private:
  void send_ack();
  void deliver(const Packet& p);

  TransportHost& host_;
  NodeId src_;
  std::uint32_t stream_;
  std::int64_t total_;
  std::int64_t rcv_nxt_ = 0;
  ChunkHandler on_chunk_;
  std::function<void()> on_complete_;
  bool completed_ = false;
  std::map<std::int64_t, Packet> ooo_; // out-of-order reassembly buffer
};

} // namespace switchml::net
