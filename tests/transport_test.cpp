// Transport-layer conformance: the same SwitchML protocol guarantees must
// hold over BOTH host channel models (DPDK/UDP and RDMA-UC), the RDMA
// framing must account wire bytes honestly (including on-wire telemetry),
// and the reliable baseline transport's counters/RTO must behave exactly —
// the retransmission counter counts segments actually resent, duplicate
// out-of-order segments buffer once, and the adaptive RTO converges to the
// measured RTT instead of the configured initial.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/int_telemetry.hpp"
#include "core/cluster.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/reliable.hpp"
#include "sim/rng.hpp"

namespace switchml {
namespace {

using namespace net;

// --- RDMA-UC wire accounting -------------------------------------------------

Packet update_packet(std::uint32_t elems, TransportKind t) {
  Packet p;
  p.kind = PacketKind::SmlUpdate;
  p.elem_count = elems;
  p.elem_bytes = 4;
  p.transport = t;
  return p;
}

TEST(RdmaFraming, SingleSegmentMessage) {
  // 32 elements: UDP is the paper's 180-byte packet; RDMA-UC is one RoCEv2
  // segment of 10 (app header) + 128 (payload) + 58 (framing) bytes.
  EXPECT_EQ(update_packet(32, TransportKind::kUdp).wire_bytes(), 180u);
  EXPECT_EQ(update_packet(32, TransportKind::kRdmaUc).wire_bytes(),
            kRdmaAppHeaderBytes + 128 + kRdmaSegmentHeaderBytes);
}

TEST(RdmaFraming, MessageSegmentsAtPathMtu) {
  // 1024 elements: 4106-byte message > 4096-byte path MTU -> two segments,
  // each carrying the 58-byte RoCEv2 framing; the app header rides once.
  const std::uint32_t payload = kRdmaAppHeaderBytes + kRdmaElemsPerMessage * 4;
  ASSERT_GT(payload, kRdmaMtuBytes);
  EXPECT_EQ(update_packet(kRdmaElemsPerMessage, TransportKind::kRdmaUc).wire_bytes(),
            payload + 2 * kRdmaSegmentHeaderBytes);
}

TEST(RdmaFraming, SyncPacketsAreHeaderOnlyMessages) {
  Packet q;
  q.kind = PacketKind::SmlSyncQuery;
  q.transport = TransportKind::kUdp;
  EXPECT_EQ(q.wire_bytes(), kAckWireBytes);
  q.transport = TransportKind::kRdmaUc;
  EXPECT_EQ(q.wire_bytes(), kRdmaAppHeaderBytes + kRdmaSegmentHeaderBytes);
}

TEST(RdmaFraming, ComposesWithOnWireTelemetry) {
  Packet p = update_packet(32, TransportKind::kRdmaUc);
  p.int_mode = inttel::kModeOnWire;
  inttel::IntHopRecord rec;
  rec.hop_id = 7;
  ASSERT_TRUE(inttel::append_record(p.int_stack, rec));
  ASSERT_TRUE(inttel::append_record(p.int_stack, rec));
  const std::uint32_t int_bytes = p.int_wire_bytes();
  ASSERT_EQ(int_bytes, inttel::kShimBytes + 2 * inttel::kRecordBytes);
  // The telemetry stack is part of the message payload, inside the RDMA
  // segmentation — not bolted on after framing.
  EXPECT_EQ(p.wire_bytes(),
            kRdmaAppHeaderBytes + 128 + int_bytes + kRdmaSegmentHeaderBytes);
}

// --- protocol conformance over both channels --------------------------------

core::ClusterConfig transport_config(TransportKind kind, double loss, int workers = 4) {
  core::ClusterConfig cfg;
  cfg.n_workers = workers;
  cfg.pool_size = 16;
  cfg.loss_prob = loss;
  cfg.transport = kind;
  cfg.retransmit_timeout = usec(200);
  return cfg;
}

std::vector<std::vector<std::int32_t>> random_updates(int n, std::size_t d, std::uint64_t seed) {
  sim::Rng rng = sim::Rng::stream(seed, "updates");
  std::vector<std::vector<std::int32_t>> u(static_cast<std::size_t>(n));
  for (auto& v : u) {
    v.resize(d);
    for (auto& e : v) e = static_cast<std::int32_t>(rng.uniform_int(-1'000'000, 1'000'000));
  }
  return u;
}

std::vector<std::int32_t> exact_sum(const std::vector<std::vector<std::int32_t>>& u) {
  std::vector<std::int32_t> s(u.front().size(), 0);
  for (const auto& v : u)
    for (std::size_t i = 0; i < v.size(); ++i)
      s[i] = static_cast<std::int32_t>(static_cast<std::uint32_t>(s[i]) +
                                       static_cast<std::uint32_t>(v[i]));
  return s;
}

class TransportConformance : public ::testing::TestWithParam<TransportKind> {};

TEST_P(TransportConformance, TimingReductionCompletesUnderLoss) {
  auto cfg = transport_config(GetParam(), /*loss=*/0.02);
  cfg.timing_only = true;
  core::Fabric cluster(cfg.fabric());
  auto tats = cluster.reduce_timing(16 * 1024);
  ASSERT_EQ(tats.size(), 4u);
  for (Time t : tats) EXPECT_GT(t, 0);
  // Loss repair ran through the slot protocol on both channels.
  std::uint64_t retx = 0;
  for (int w = 0; w < 4; ++w) retx += cluster.worker(w).counters().retransmissions;
  EXPECT_GT(retx, 0u);
}

TEST_P(TransportConformance, DataModeSumsAreExactUnderLoss) {
  auto cfg = transport_config(GetParam(), /*loss=*/0.01);
  core::Fabric cluster(cfg.fabric());
  auto updates = random_updates(4, 4096, 11);
  auto result = cluster.reduce_i32(updates);
  const auto expect = exact_sum(updates);
  for (int w = 0; w < 4; ++w) EXPECT_EQ(result.outputs[static_cast<std::size_t>(w)], expect);
}

INSTANTIATE_TEST_SUITE_P(BothChannels, TransportConformance,
                         ::testing::Values(TransportKind::kUdp, TransportKind::kRdmaUc),
                         [](const auto& info) {
                           return info.param == TransportKind::kUdp ? "Udp" : "RdmaUc";
                         });

// --- RDMA-UC channel specifics -----------------------------------------------

TEST(RdmaChannel, CountersAreExactOnLosslessRun) {
  auto cfg = transport_config(TransportKind::kRdmaUc, /*loss=*/0.0, /*workers=*/2);
  cfg.timing_only = true;
  core::Fabric cluster(cfg.fabric());
  ASSERT_TRUE(cluster.worker(0).nic().rdma());
  cluster.reduce_timing(32 * 32); // 32 chunks per worker at k = 32
  const auto snap = cluster.metrics().snapshot();
  for (int w = 0; w < 2; ++w) {
    const std::string p = "worker-" + std::to_string(w) + ".rdma.";
    // One WQE per update sent, one CQE per result received, doorbells
    // amortized over batches of 8; every 138-byte message fits one segment.
    EXPECT_EQ(snap.counter(p + "wqes_posted"), 32u);
    EXPECT_EQ(snap.counter(p + "cqes_polled"), 32u);
    EXPECT_EQ(snap.counter(p + "doorbells"), 4u);
    EXPECT_EQ(snap.counter(p + "wire_segments"), 32u);
    EXPECT_EQ(snap.counter(p + "payload_bytes"), 32u * (kRdmaAppHeaderBytes + 128));
  }
}

TEST(RdmaChannel, LossRepairRidesTheSlotProtocol) {
  // UC has no transport-level ACK/RTO: every repair is a worker slot-protocol
  // retransmission, and each one posts a fresh WQE through the channel.
  auto cfg = transport_config(TransportKind::kRdmaUc, /*loss=*/0.05);
  cfg.timing_only = true;
  core::Fabric cluster(cfg.fabric());
  auto tats = cluster.reduce_timing(8 * 1024);
  for (Time t : tats) EXPECT_GT(t, 0);
  const auto snap = cluster.metrics().snapshot();
  const std::uint64_t chunks = 8 * 1024 / 32;
  for (int w = 0; w < 4; ++w) {
    const auto& c = cluster.worker(w).counters();
    EXPECT_GT(c.retransmissions, 0u);
    const auto wqes =
        snap.counter("worker-" + std::to_string(w) + ".rdma.wqes_posted");
    // All updates (first sends AND repairs) went through the channel...
    EXPECT_GE(wqes, c.updates_sent);
    // ...and the repairs are visible as extra messages beyond the chunk count.
    EXPECT_GT(wqes, chunks);
  }
}

// A straggler stretches every verbs cost on its lanes: the TATs and framing
// counters of a lossy RDMA-UC rack with one 4x-slow worker, pinned.
TEST(RdmaChannel, StragglerLanesKeepTheirTatsAndCounters) {
  auto cfg = transport_config(TransportKind::kRdmaUc, /*loss=*/0.01);
  cfg.timing_only = true;
  cfg.faults.stragglers.push_back({1, 4.0, 0, -1});
  core::Fabric cluster(cfg.fabric());
  EXPECT_EQ(cluster.reduce_timing(16 * 1024),
            (std::vector<Time>{1'327'151, 1'327'271, 1'327'151, 1'327'151}));
  const auto snap = cluster.metrics().snapshot();
  std::vector<std::uint64_t> counts;
  for (int w = 0; w < 4; ++w)
    for (const char* c :
         {"wqes_posted", "doorbells", "cqes_polled", "wire_segments", "payload_bytes"})
      counts.push_back(snap.counter("worker-" + std::to_string(w) + ".rdma." + c));
  EXPECT_EQ(counts, (std::vector<std::uint64_t>{
                        557, 69, 519, 557, 76'866,  // worker-0
                        557, 69, 543, 557, 76'866,  // worker-1, the straggler
                        558, 69, 524, 558, 77'004,  // worker-2
                        558, 69, 533, 558, 77'004}));
}

// --- reliable transport: counters, duplicates, adaptive RTO ------------------

struct TransportPair {
  sim::Simulation sim;
  L2Switch sw{sim, 100, "sw", nsec(400)};
  NicConfig nic_cfg;
  std::unique_ptr<TransportHost> a;
  std::unique_ptr<TransportHost> b;
  std::unique_ptr<Link> la;
  std::unique_ptr<Link> lb;

  TransportPair() {
    nic_cfg.per_packet_tx = nsec(100);
    nic_cfg.per_packet_rx = nsec(100);
    nic_cfg.per_batch_overhead = 0;
    nic_cfg.tx_latency = nsec(500);
    nic_cfg.rx_latency = nsec(500);
    a = std::make_unique<TransportHost>(sim, 1, "a", nic_cfg);
    b = std::make_unique<TransportHost>(sim, 2, "b", nic_cfg);
    LinkConfig lc;
    lc.rate = gbps(10);
    la = std::make_unique<Link>(sim, lc, *a, 0, sw, 0, 11);
    lb = std::make_unique<Link>(sim, lc, *b, 0, sw, 1, 12);
    a->set_uplink(*la);
    b->set_uplink(*lb);
    sw.attach(0, *la);
    sw.attach(1, *lb);
  }
};

TEST(ReliableCounters, RtoRetransmissionCountsSegmentsActuallyResent) {
  // Eight-segment window, first segment dropped, fast retransmit disabled
  // (dupack_threshold above the window): recovery must go through the RTO.
  // The receiver buffered the other seven segments, so the single resend of
  // segment 0 completes the transfer — the counter must say 1, not the whole
  // outstanding window the RTO handler used to credit up front.
  TransportPair t;
  TransportProfile prof;
  prof.rto_initial = msec(1);
  prof.window_bytes = 8 * 1460;
  prof.dupack_threshold = 100;
  bool dropped = false;
  t.la->set_drop_filter([&](const Node& sender, const Packet& p) {
    if (!dropped && p.kind == PacketKind::Segment && p.seq == 0 && sender.id() == 1) {
      dropped = true;
      return true;
    }
    return false;
  });
  bool done = false;
  ReliableReceiver rx(*t.b, 1, 3, 8 * 1460, nullptr, [&] { done = true; });
  ReliableSender tx(*t.a, 2, 3, prof, nullptr);
  tx.start(8 * 1460);
  t.sim.run();
  ASSERT_TRUE(done);
  const TransportCounters& c = t.a->transport_counters();
  EXPECT_EQ(c.timeouts, 1u);
  EXPECT_EQ(c.fast_retransmits, 0u);
  EXPECT_EQ(c.retransmissions, 1u);
  EXPECT_EQ(c.segments_sent, 9u); // 8 new + 1 resend
}

TEST(ReliableReceiverDup, DuplicateOutOfOrderSegmentsBufferOnce) {
  TransportPair t;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> delivered;
  int completions = 0;
  ReliableReceiver rx(*t.b, 1, 5, 3 * 1460,
                      [&](std::uint64_t seq, std::uint32_t len, std::span<const float>) {
                        delivered.emplace_back(seq, len);
                      },
                      [&] { ++completions; });
  auto seg = [](std::uint64_t seq) {
    Packet p;
    p.kind = PacketKind::Segment;
    p.src = 1;
    p.dst = 2;
    p.stream = 5;
    p.seq = seq;
    p.seg_len = 1460;
    return p;
  };
  // The same out-of-order segment twice: reassembly must hold ONE copy.
  rx.on_segment(seg(1460));
  rx.on_segment(seg(1460));
  EXPECT_EQ(rx.buffered_segments(), 1u);
  rx.on_segment(seg(2 * 1460));
  EXPECT_EQ(rx.buffered_segments(), 2u);
  // Filling the hole drains the buffer in order, each byte delivered once.
  rx.on_segment(seg(0));
  t.sim.run();
  ASSERT_TRUE(rx.done());
  EXPECT_EQ(rx.buffered_segments(), 0u);
  const std::vector<std::pair<std::uint64_t, std::uint32_t>> expect = {
      {0, 1460}, {1460, 1460}, {2 * 1460, 1460}};
  EXPECT_EQ(delivered, expect);
  EXPECT_EQ(completions, 1);
  // A stale retransmission of delivered data just re-acks.
  rx.on_segment(seg(0));
  t.sim.run();
  EXPECT_EQ(delivered, expect);
  EXPECT_EQ(completions, 1);
}

// One blackout recovery with the RTO policy under test: drops a mid-stream
// segment after the RTT estimator has converged, forces the RTO path (window
// of two segments -> a single dup-ACK), returns the completion time.
Time blackout_completion(bool adaptive, TransportCounters& out) {
  TransportPair t;
  TransportProfile prof;
  prof.rto_initial = msec(20); // deliberately far above the ~us-scale RTT
  prof.window_bytes = 2 * 1460;
  prof.adaptive_rto = adaptive;
  bool dropped = false;
  t.la->set_drop_filter([&](const Node& sender, const Packet& p) {
    if (!dropped && p.kind == PacketKind::Segment && p.seq == 32 * 1460 && sender.id() == 1) {
      dropped = true;
      return true;
    }
    return false;
  });
  bool done = false;
  ReliableReceiver rx(*t.b, 1, 6, 64 * 1460, nullptr, [&] { done = true; });
  ReliableSender tx(*t.a, 2, 6, prof, nullptr);
  tx.start(64 * 1460);
  t.sim.run();
  EXPECT_TRUE(done);
  out = t.a->transport_counters();
  return t.sim.now();
}

TEST(AdaptiveRto, ConvergesToMeasuredRttInsteadOfInitial) {
  TransportCounters legacy{}, adaptive{};
  const Time legacy_t = blackout_completion(false, legacy);
  const Time adaptive_t = blackout_completion(true, adaptive);
  // Same single loss, same repair work in both modes (go-back-N redrives the
  // two-segment window identically)...
  EXPECT_EQ(legacy.timeouts, 1u);
  EXPECT_EQ(adaptive.timeouts, 1u);
  EXPECT_EQ(legacy.retransmissions, adaptive.retransmissions);
  EXPECT_GE(legacy.retransmissions, 1u);
  // ...but the legacy policy stalls the full 20 ms initial RTO while the
  // adaptive one fires near SRTT + 4*RTTVAR (clamped at rto_min = 100 us).
  EXPECT_GE(legacy_t, msec(20));
  EXPECT_LT(adaptive_t, msec(5));
  EXPECT_LT(adaptive_t, legacy_t);
}

TEST(AdaptiveRto, DefaultsOffForBitIdenticalBaselines) {
  EXPECT_FALSE(TransportProfile{}.adaptive_rto);
  EXPECT_FALSE(core::ClusterConfig{}.adaptive_rto);
}

} // namespace
} // namespace switchml
