// Network substrate tests: packet wire sizes, the pipes' chunk FIFO, link
// timing/queueing/loss and trace events, NIC core model, L2 switch
// forwarding/multicast, reliable transport.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/tracing.hpp"
#include "net/l2switch.hpp"
#include "net/link.hpp"
#include "net/nic.hpp"
#include "net/packet.hpp"
#include "net/pipe_fifo.hpp"
#include "net/reliable.hpp"

namespace switchml::net {
namespace {

TEST(Packet, SwitchMlUpdateIs180Bytes) {
  // §3.4: k = 32 elements, 180-byte packets.
  Packet p;
  p.kind = PacketKind::SmlUpdate;
  p.elem_count = 32;
  p.elem_bytes = 4;
  EXPECT_EQ(p.wire_bytes(), 180u);
}

TEST(Packet, MtuVariantIs1516Bytes) {
  // §5.5: 366 elements in a 1516-byte packet.
  Packet p;
  p.kind = PacketKind::SmlResult;
  p.elem_count = 366;
  p.elem_bytes = 4;
  EXPECT_EQ(p.wire_bytes(), 1516u);
}

TEST(Packet, Fp16HalvesPayload) {
  Packet p;
  p.kind = PacketKind::SmlUpdate;
  p.elem_count = 32;
  p.elem_bytes = 2;
  EXPECT_EQ(p.wire_bytes(), 52u + 64u);
}

TEST(Packet, SegmentAndAckSizes) {
  Packet seg;
  seg.kind = PacketKind::Segment;
  seg.seg_len = 1460;
  EXPECT_EQ(seg.wire_bytes(), 1514u);
  Packet ack;
  ack.kind = PacketKind::Ack;
  EXPECT_EQ(ack.wire_bytes(), 64u);
}

// A packet with every checksummed field set, and an odd value count so the
// last value word holds a single value.
Packet checksum_fixture() {
  Packet p;
  p.kind = PacketKind::SmlResult;
  p.wid = 3;
  p.ver = 1;
  p.idx = 7;
  p.off = 1234;
  p.job = 2;
  p.elem_count = 5;
  p.epoch = 9;
  p.sync_count0 = 4;
  p.sync_count1 = 6;
  p.sync_off0 = 640;
  p.sync_off1 = kNoClaimOff;
  p.sync_seen = 2;
  p.values = {1, -2, 3, 0x7fffffff, -0x7fffffff - 1};
  p.seal();
  return p;
}

template <typename T>
void flip_bit(T& field, int bit) {
  if constexpr (std::is_enum_v<T>) {
    using U = std::underlying_type_t<T>;
    field = static_cast<T>(static_cast<U>(static_cast<U>(field) ^ (U{1} << bit)));
  } else {
    field = static_cast<T>(field ^ (T{1} << bit));
  }
}

TEST(Packet, ChecksumDetectsPayloadAndHeaderMutations) {
  // Every bit of every covered header field: each field sits alone in one
  // checksum word, so any single flip must fail verify().
  struct Field {
    const char* name;
    int bits;
    void (*flip)(Packet&, int);
  };
#define SWITCHML_FIELD(f) \
  Field { #f, 8 * static_cast<int>(sizeof(Packet::f)), [](Packet& q, int b) { flip_bit(q.f, b); } }
  const Field covered[] = {
      SWITCHML_FIELD(kind),        SWITCHML_FIELD(wid),         SWITCHML_FIELD(ver),
      SWITCHML_FIELD(idx),         SWITCHML_FIELD(off),         SWITCHML_FIELD(job),
      SWITCHML_FIELD(elem_count),  SWITCHML_FIELD(epoch),       SWITCHML_FIELD(sync_count0),
      SWITCHML_FIELD(sync_count1), SWITCHML_FIELD(sync_off0),   SWITCHML_FIELD(sync_off1),
      SWITCHML_FIELD(sync_seen),
  };
#undef SWITCHML_FIELD
  Packet p = checksum_fixture();
  ASSERT_TRUE(p.verify());
  for (const Field& f : covered) {
    for (int b = 0; b < f.bits; ++b) {
      f.flip(p, b);
      EXPECT_FALSE(p.verify()) << f.name << " bit " << b;
      f.flip(p, b);
    }
  }
  // Every bit of every value, at every position.
  for (std::size_t i = 0; i < p.values.size(); ++i) {
    for (int b = 0; b < 32; ++b) {
      p.values[i] ^= static_cast<std::int32_t>(1u << b);
      EXPECT_FALSE(p.verify()) << "value " << i << " bit " << b;
      p.values[i] ^= static_cast<std::int32_t>(1u << b);
    }
  }
  EXPECT_TRUE(p.verify());
}

TEST(Packet, ChecksumIgnoresTransportAndTelemetryFields) {
  // Routing, framing and hop-by-hop INT metadata sit outside the end-to-end
  // check, so a switch may rewrite them without resealing.
  Packet p = checksum_fixture();
  p.src = 41;
  p.dst = kBroadcast;
  p.transport = TransportKind::kRdmaUc;
  p.int_mode = inttel::kModeOnWire;
  p.int_stack = {1, 2, 3, 4};
  EXPECT_TRUE(p.verify());
}

TEST(Packet, ChecksumCoversTheValueCount) {
  // A trailing zero shares the last value's word with nothing else, so only
  // the mixed-in count tells {a} from {a, 0}.
  Packet one = checksum_fixture();
  one.values = {42};
  one.seal();
  Packet two = one;
  two.values = {42, 0};
  EXPECT_FALSE(two.verify());
  two.seal();
  EXPECT_NE(one.checksum, two.checksum);
  two.values.clear();
  EXPECT_FALSE(two.verify());
}

// Collects delivered packets with timestamps.
class SinkNode : public Node {
public:
  using Node::Node;
  void receive(Packet&& p, int port) override {
    arrivals.emplace_back(sim_.now(), port, std::move(p));
  }
  std::vector<std::tuple<Time, int, Packet>> arrivals;
};

Packet raw_packet(std::uint32_t len, NodeId src = 0, NodeId dst = 1) {
  Packet p;
  p.kind = PacketKind::Segment;
  p.seg_len = len;
  p.src = src;
  p.dst = dst;
  return p;
}

class LinkFixture : public ::testing::Test {
protected:
  sim::Simulation sim;
  SinkNode a{sim, 0, "a"};
  SinkNode b{sim, 1, "b"};
  LinkConfig cfg;
};

TEST_F(LinkFixture, DeliveryTimeIsSerializationPlusPropagation) {
  cfg.rate = gbps(10);
  cfg.propagation = nsec(500);
  Link link(sim, cfg, a, 0, b, 0, 1);
  Packet p = raw_packet(1460 - kSegmentHeaderBytes); // 1460-byte frame
  const Time ser = serialization_time(p.wire_bytes(), cfg.rate);
  link.send_from(a, std::move(p));
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(std::get<0>(b.arrivals[0]), ser + cfg.propagation);
}

TEST_F(LinkFixture, BackToBackPacketsSerialize) {
  cfg.rate = gbps(10);
  cfg.propagation = 0;
  Link link(sim, cfg, a, 0, b, 0, 1);
  const Time ser = serialization_time(raw_packet(946).wire_bytes(), cfg.rate); // 1000B
  link.send_from(a, raw_packet(946));
  link.send_from(a, raw_packet(946));
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 2u);
  EXPECT_EQ(std::get<0>(b.arrivals[0]), ser);
  EXPECT_EQ(std::get<0>(b.arrivals[1]), 2 * ser);
}

TEST_F(LinkFixture, EarliestStartDelaysTransmission) {
  cfg.rate = gbps(10);
  cfg.propagation = 0;
  Link link(sim, cfg, a, 0, b, 0, 1);
  Packet p = raw_packet(946);
  const Time ser = serialization_time(p.wire_bytes(), cfg.rate);
  link.send_from(a, std::move(p), usec(5));
  sim.run();
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(std::get<0>(b.arrivals[0]), usec(5) + ser);
}

TEST_F(LinkFixture, FullDuplexDirectionsAreIndependent) {
  cfg.rate = gbps(10);
  cfg.propagation = 0;
  Link link(sim, cfg, a, 0, b, 0, 1);
  link.send_from(a, raw_packet(946));
  link.send_from(b, raw_packet(946));
  sim.run();
  EXPECT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(a.arrivals.size(), 1u);
  // Same delivery time: no contention between directions.
  EXPECT_EQ(std::get<0>(a.arrivals[0]), std::get<0>(b.arrivals[0]));
}

TEST_F(LinkFixture, QueueOverflowDropsTail) {
  cfg.rate = gbps(1);
  cfg.queue_limit_bytes = 3000;
  Link link(sim, cfg, a, 0, b, 0, 1);
  for (int i = 0; i < 5; ++i) link.send_from(a, raw_packet(946)); // 1000B each
  sim.run();
  EXPECT_EQ(b.arrivals.size(), 3u);
  EXPECT_EQ(link.counters_from(a).dropped_queue, 2u);
}

TEST_F(LinkFixture, BacklogDrainsOverTime) {
  cfg.rate = gbps(1);
  cfg.queue_limit_bytes = 3000;
  Link link(sim, cfg, a, 0, b, 0, 1);
  for (int i = 0; i < 3; ++i) link.send_from(a, raw_packet(946));
  // After the first 3 serialize (8us each at 1 Gbps), there is room again.
  sim.schedule_at(usec(50), [&] { link.send_from(a, raw_packet(946)); });
  sim.run();
  EXPECT_EQ(b.arrivals.size(), 4u);
  EXPECT_EQ(link.counters_from(a).dropped_queue, 0u);
}

TEST_F(LinkFixture, BernoulliLossDropsApproximatelyPRate) {
  cfg.rate = gbps(100);
  cfg.loss_prob = 0.1;
  cfg.queue_limit_bytes = 64 * kMiB; // the burst must not tail-drop
  Link link(sim, cfg, a, 0, b, 0, 7);
  const int n = 20'000;
  for (int i = 0; i < n; ++i) link.send_from(a, raw_packet(60));
  sim.run();
  const double delivered = static_cast<double>(b.arrivals.size()) / n;
  EXPECT_NEAR(delivered, 0.9, 0.01);
  EXPECT_EQ(link.counters_from(a).dropped_loss + b.arrivals.size(), static_cast<std::size_t>(n));
}

TEST_F(LinkFixture, DropFilterInjectsDeterministicLoss) {
  Link link(sim, cfg, a, 0, b, 0, 1);
  int dropped = 0;
  link.set_drop_filter([&](const Node& sender, const Packet& p) {
    if (&sender == &a && p.seq == 1) {
      ++dropped;
      return true;
    }
    return false;
  });
  for (std::uint64_t s = 0; s < 3; ++s) {
    Packet p = raw_packet(100);
    p.seq = s;
    link.send_from(a, std::move(p));
  }
  sim.run();
  EXPECT_EQ(b.arrivals.size(), 2u);
  EXPECT_EQ(dropped, 1);
}

// A packet lost on the wire still occupies the port until its serialization
// ends: it counts in the queue depth, and a rate change re-plans it and
// chains the packets behind it after its new finish.
TEST_F(LinkFixture, LostPacketHoldsThePortThroughRateChanges) {
  cfg.rate = gbps(8); // 1 ns per byte: raw_packet(946) serializes in 1000 ns
  cfg.propagation = nsec(1000);
  Link link(sim, cfg, a, 0, b, 0, 1);
  link.set_drop_filter([](const Node&, const Packet& p) { return p.seq == 1; });
  for (std::uint64_t s = 0; s < 3; ++s) { // A [0, 1000), L (lost) [1000, 2000), C [2000, 3000)
    Packet p = raw_packet(946);
    p.seq = s;
    link.send_from(a, std::move(p));
  }
  std::vector<std::tuple<Time, std::int64_t, std::int64_t>> depth;
  auto sample_at = [&](Time t) {
    sim.schedule_at(t, [&] {
      depth.emplace_back(sim.now(), link.queue_depth_pkts(a), link.queue_depth_bytes(a));
    });
  };
  sample_at(250);
  // Halve the rate while A serializes: A's last 500 B take 1000 ns (finish
  // 1500), L follows over [1500, 3500) and C over [3500, 5500).
  sim.schedule_at(500, [&] { link.set_rate(gbps(4)); });
  sample_at(2000); // L serializing
  // Quadruple it while L serializes: L's last 250 B take 125 ns (finish
  // 3125); C keeps its planned start 3500 and finishes at 4000.
  sim.schedule_at(3000, [&] { link.set_rate(gbps(16)); });
  sample_at(3100); // L still serializing
  sample_at(3200); // only C left
  // The port is busy until C's re-planned finish, not L's.
  sim.schedule_at(3200, [&] {
    Packet d = raw_packet(946);
    d.seq = 3;
    link.send_from(a, std::move(d));
  });
  sample_at(6000);
  sim.run();

  const std::vector<std::tuple<Time, std::int64_t, std::int64_t>> want = {
      {250, 3, 3000}, {2000, 2, 2000}, {3100, 2, 2000}, {3200, 1, 1000}, {6000, 0, 0}};
  EXPECT_EQ(depth, want);
  ASSERT_EQ(b.arrivals.size(), 3u);
  EXPECT_EQ(std::get<0>(b.arrivals[0]), 2500); // A: finish 1500 + 1000
  EXPECT_EQ(std::get<0>(b.arrivals[1]), 5000); // C: finish 4000 + 1000
  EXPECT_EQ(std::get<0>(b.arrivals[2]), 5500); // D: [4000, 4500) + 1000
  EXPECT_EQ(std::get<2>(b.arrivals[1]).seq, 2u);
  const Link::Counters& c = link.counters_from(a);
  EXPECT_EQ(c.tx_packets, 4u);
  EXPECT_EQ(c.dropped_loss, 1u);
  EXPECT_EQ(c.delivered_packets, 3u);
}

// Taking the link down kills what would still be delivered; a packet lost on
// the wire was never going to be, so it is not a down drop.
TEST_F(LinkFixture, SetDownCountsOnlyPacketsStillToBeDelivered) {
  cfg.rate = gbps(8);
  cfg.propagation = nsec(1000);
  Link link(sim, cfg, a, 0, b, 0, 1);
  link.set_drop_filter([](const Node&, const Packet& p) { return p.seq == 1; });
  trace::TraceSink sink(64, trace::kCatLink);
  trace::TraceSink::Scope scope(&sink);
  for (std::uint64_t s = 0; s < 2; ++s) { // A [0, 1000) delivered at 2000; L lost [1000, 2000)
    Packet p = raw_packet(946);
    p.seq = s;
    p.idx = static_cast<std::uint32_t>(10 + s);
    link.send_from(a, std::move(p));
  }
  // At 1500 A propagates and L serializes.
  sim.schedule_at(1500, [&] { link.set_down(); });
  sim.schedule_at(3000, [&] {
    link.set_up();
    Packet e = raw_packet(946);
    e.seq = 2;
    link.send_from(a, std::move(e));
  });
  sim.run();

  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(std::get<0>(b.arrivals[0]), 5000); // an idle port after set_up
  const Link::Counters& c = link.counters_from(a);
  EXPECT_EQ(c.dropped_down, 1u);
  EXPECT_EQ(c.dropped_loss, 1u);
  EXPECT_EQ(c.delivered_packets, 1u);
  EXPECT_EQ(link.queue_depth_pkts(a), 0);
  EXPECT_EQ(link.queue_depth_bytes(a), 0);
  std::vector<std::int64_t> down_slots;
  for (const trace::Event& e : sink.events())
    if (std::string_view(e.name) == "drop_down") down_slots.push_back(e.a1.value);
  EXPECT_EQ(down_slots, std::vector<std::int64_t>{10});
}

// The deliveries queued when a link goes down stay in its event stream. Once
// it is up again they pop with stale seqs and do nothing, while the packets
// sent since are delivered: one earlier than the stale tail (a plain event),
// one behind it in the stream.
TEST_F(LinkFixture, StaleDeliveriesAfterSetDownDoNothing) {
  cfg.rate = gbps(8);
  cfg.propagation = nsec(1000);
  Link link(sim, cfg, a, 0, b, 0, 1);
  const auto send = [&](std::uint64_t seq) {
    Packet p = raw_packet(946); // 1000 B: 1000 ns at 8 Gbps
    p.seq = seq;
    link.send_from(a, std::move(p));
  };
  for (std::uint64_t s = 0; s < 3; ++s) send(s); // to be delivered at 2000, 3000, 4000
  sim.schedule_at(1500, [&] { link.set_down(); });
  sim.schedule_at(1600, [&] {
    link.set_up();
    send(3); // [1600, 2600): delivered at 3600
    send(4); // [2600, 3600): delivered at 4600
  });
  sim.run();

  ASSERT_EQ(b.arrivals.size(), 2u);
  EXPECT_EQ(std::get<0>(b.arrivals[0]), 3600);
  EXPECT_EQ(std::get<2>(b.arrivals[0]).seq, 3u);
  EXPECT_EQ(std::get<0>(b.arrivals[1]), 4600);
  EXPECT_EQ(std::get<2>(b.arrivals[1]).seq, 4u);
  const Link::Counters& c = link.counters_from(a);
  EXPECT_EQ(c.dropped_down, 3u);
  EXPECT_EQ(c.delivered_packets, 2u);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.events_executed(), 7u); // 2 outage events, 3 stale deliveries, 2 deliveries
}

// A set_down with 50 records over four ledger chunks, 43 of them still to be
// delivered, then 60 more sends: the new packets take the seqs after the
// dead ones, so every stale delivery finds its seq below the ledger's head.
// The first 48 new deliveries are earlier than the stale tail (plain
// events), the last 12 queue behind it in the stream.
TEST_F(LinkFixture, SetDownAcrossLedgerChunksKeepsSeqsRunning) {
  cfg.rate = gbps(8);
  cfg.propagation = nsec(1000);
  Link link(sim, cfg, a, 0, b, 0, 1);
  link.set_drop_filter([](const Node&, const Packet& p) { return p.seq % 7 == 3; });
  std::uint64_t next = 0;
  const auto send = [&](int n) {
    for (int i = 0; i < n; ++i) {
      Packet p = raw_packet(946); // 1000 B: 1000 ns at 8 Gbps
      p.seq = next++;
      link.send_from(a, std::move(p));
    }
  };
  send(50); // packet i serializes over [1000 i, 1000 (i + 1)), delivered 1000 later
  std::vector<std::int64_t> depth;
  sim.schedule_at(1500, [&] {
    depth.push_back(link.queue_depth_pkts(a));
    link.set_down();
    depth.push_back(link.queue_depth_pkts(a));
  });
  sim.schedule_at(1600, [&] {
    link.set_up();
    send(60); // new packet j serializes from 1600 + 1000 j, delivered at 3600 + 1000 j
    depth.push_back(link.queue_depth_pkts(a));
  });
  sim.run();

  EXPECT_EQ(depth, (std::vector<std::int64_t>{49, 0, 60}));
  std::vector<std::uint64_t> want_seqs;
  for (std::uint64_t s = 50; s < 110; ++s)
    if (s % 7 != 3) want_seqs.push_back(s);
  ASSERT_EQ(b.arrivals.size(), want_seqs.size());
  for (std::size_t i = 0; i < want_seqs.size(); ++i) {
    const auto& [at, port, pkt] = b.arrivals[i];
    EXPECT_EQ(pkt.seq, want_seqs[i]);
    EXPECT_EQ(at, 3600 + 1000 * static_cast<Time>(pkt.seq - 50));
  }
  const Link::Counters& c = link.counters_from(a);
  EXPECT_EQ(c.tx_packets, 110u);
  EXPECT_EQ(c.dropped_loss, 16u);
  EXPECT_EQ(c.dropped_down, 43u);
  EXPECT_EQ(c.delivered_packets, 51u);
  EXPECT_EQ(link.queue_depth_pkts(a), 0);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.events_executed(), 96u); // 2 outage events, 43 stale deliveries, 51 deliveries
}

TEST_F(LinkFixture, NonEndpointSenderThrows) {
  Link link(sim, cfg, a, 0, b, 0, 1);
  SinkNode c{sim, 2, "c"};
  EXPECT_THROW(link.send_from(c, raw_packet(10)), std::invalid_argument);
}

// --------------------------------------------------------------- PipeFifo

// Pushes and pops in runs that empty the pipe mid-chunk and on a chunk
// boundary, and fill it across several chunks: each entry stays at the
// position it was pushed at, and positions never restart.
TEST(PipeFifo, PositionsContinueAcrossChunksAndEmptyPipes) {
  PipeFifo<std::uint64_t> fifo;
  std::uint64_t next = 0;
  const std::vector<std::pair<int, int>> runs = {{5, 5},  {40, 30}, {3, 13}, {16, 0},
                                                 {0, 16}, {1, 1},   {33, 20}, {0, 13}};
  for (const auto& [pushes, pops] : runs) {
    for (int i = 0; i < pushes; ++i) {
      EXPECT_EQ(fifo.tail(), next);
      EXPECT_EQ(fifo.emplace_back(next), next);
      ++next;
    }
    for (int i = 0; i < pops; ++i) {
      EXPECT_EQ(fifo.front(), fifo.head());
      fifo.pop_front();
    }
    ASSERT_EQ(fifo.tail(), next);
    for (std::uint64_t pos = fifo.head(); pos < fifo.tail(); ++pos) EXPECT_EQ(fifo.at(pos), pos);
  }
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(fifo.head(), 98u);
}

// An entry's address is fixed from push to pop. Here the chunks in use wrap
// around the end of the chunk-pointer ring (chunks 5..12 in its first 8
// slots) when it doubles, and again when it doubles once more.
TEST(PipeFifo, EntriesStayPutWhileTheChunkMapGrows) {
  PipeFifo<std::uint64_t> fifo;
  for (std::uint64_t pos = 0; pos < 80; ++pos) fifo.emplace_back(pos);
  for (int i = 0; i < 80; ++i) fifo.pop_front(); // head at chunk 5
  std::vector<const std::uint64_t*> where;
  for (std::uint64_t pos = 80; pos < 400; ++pos) where.push_back(&fifo.emplace_back(pos));
  for (int i = 0; i < 40; ++i) fifo.pop_front();
  for (std::uint64_t pos = 400; pos < 700; ++pos) fifo.emplace_back(pos);
  for (std::uint64_t pos = fifo.head(); pos < 400; ++pos) {
    EXPECT_EQ(&fifo.at(pos), where[pos - 80]);
    EXPECT_EQ(fifo.at(pos), pos);
  }
  for (std::uint64_t pos = 400; pos < 700; ++pos) EXPECT_EQ(fifo.at(pos), pos);
}

// Counts its live instances and owns payload vectors, which LeakSanitizer
// would report if an entry were never destroyed.
struct LivePacket {
  explicit LivePacket(int& live_count) : live(&live_count) {
    ++*live;
    pkt.values.assign(32, 7);
    pkt.int_stack.assign(16, 1);
  }
  LivePacket(const LivePacket&) = delete;
  LivePacket& operator=(const LivePacket&) = delete;
  ~LivePacket() { --*live; }
  int* live;
  Packet pkt;
};

TEST(PipeFifo, ClearAndDestructorDestroyLiveEntries) {
  int live = 0;
  {
    PipeFifo<LivePacket> fifo;
    for (int i = 0; i < 40; ++i) fifo.emplace_back(live);
    for (int i = 0; i < 5; ++i) fifo.pop_front();
    EXPECT_EQ(live, 35);
    fifo.clear();
    EXPECT_EQ(live, 0);
    EXPECT_TRUE(fifo.empty());
    EXPECT_EQ(fifo.head(), 40u); // the position is not rewound
    for (int i = 0; i < 20; ++i) fifo.emplace_back(live);
    EXPECT_EQ(fifo.head(), 40u);
    EXPECT_EQ(fifo.tail(), 60u);
    EXPECT_EQ(live, 20);
  }
  EXPECT_EQ(live, 0);
}

// A vector of pipes, like a NIC's lanes, moves them when it reallocates: a
// moved pipe keeps its entries, positions and spares, and the pipe it left
// is empty at position 0.
TEST(PipeFifo, MovedPipeKeepsItsEntries) {
  std::vector<PipeFifo<Packet>> lanes(1);
  for (std::uint32_t i = 0; i < 40; ++i) {
    Packet& p = lanes[0].emplace_back();
    p.idx = i;
    p.values.assign(4, static_cast<std::int32_t>(i));
  }
  for (int i = 0; i < 20; ++i) lanes[0].pop_front(); // one chunk to spare
  const Packet* front = &lanes[0].front();
  const std::size_t capacity = lanes.capacity();
  while (lanes.capacity() == capacity) lanes.emplace_back();
  PipeFifo<Packet>& moved = lanes[0];
  EXPECT_EQ(&moved.front(), front);
  EXPECT_EQ(moved.head(), 20u);
  EXPECT_EQ(moved.tail(), 40u);
  for (std::uint32_t i = 40; i < 70; ++i) moved.emplace_back().idx = i;
  for (std::uint64_t pos = 20; pos < 70; ++pos) {
    EXPECT_EQ(moved.front().idx, pos);
    if (pos < 40) {
      EXPECT_EQ(moved.front().values, std::vector<std::int32_t>(4, static_cast<std::int32_t>(pos)));
    }
    moved.pop_front();
  }
  EXPECT_TRUE(moved.empty());

  PipeFifo<Packet> taken(std::move(moved));
  EXPECT_EQ(taken.head(), 70u);
  EXPECT_TRUE(moved.empty());
  EXPECT_EQ(moved.tail(), 0u);
  moved.emplace_back().idx = 1;
  EXPECT_EQ(moved.front().idx, 1u);
}

#ifdef _GLIBCXX_ASSERTIONS
// With the standard library's own assertions on, a position outside the
// pipe aborts, as an out-of-range std::deque index does.
TEST(PipeFifoDeathTest, PositionOutsideThePipeAborts) {
  PipeFifo<std::uint64_t> fifo;
  for (std::uint64_t pos = 0; pos < 20; ++pos) fifo.emplace_back(pos);
  fifo.pop_front();
  EXPECT_DEATH(fifo.at(0), "outside \\[1, 20\\)");
  EXPECT_DEATH(fifo.at(20), "outside");
  fifo.clear();
  EXPECT_DEATH(fifo.front(), "outside");
}
#endif

// --------------------------------------------------------------------- NIC

TEST(HostNic, TxReservesCoreTimeSequentially) {
  sim::Simulation sim;
  NicConfig cfg;
  cfg.cores = 1;
  cfg.per_packet_tx = nsec(100);
  cfg.per_batch_overhead = 0;
  cfg.tx_latency = 0;
  cfg.rx_latency = 0;
  HostNic nic(sim, cfg);
  EXPECT_EQ(nic.tx_ready(0), 100);
  EXPECT_EQ(nic.tx_ready(0), 200); // same core: serialized
}

TEST(HostNic, CoresAreIndependent) {
  sim::Simulation sim;
  NicConfig cfg;
  cfg.cores = 2;
  cfg.per_packet_tx = nsec(100);
  cfg.per_batch_overhead = 0;
  cfg.tx_latency = 0;
  HostNic nic(sim, cfg);
  EXPECT_EQ(nic.tx_ready(0), 100);
  EXPECT_EQ(nic.tx_ready(1), 100);
}

TEST(HostNic, PerByteCostScalesWithSize) {
  sim::Simulation sim;
  NicConfig cfg;
  cfg.cores = 1;
  cfg.per_packet_tx = nsec(100);
  cfg.per_byte_tx = 1.0;
  cfg.per_batch_overhead = 0;
  cfg.tx_latency = 0;
  HostNic nic(sim, cfg);
  EXPECT_EQ(nic.tx_ready(0, 50), 150);
}

TEST(HostNic, BatchOverheadIsAmortized) {
  sim::Simulation sim;
  NicConfig cfg;
  cfg.cores = 1;
  cfg.per_packet_tx = nsec(10);
  cfg.per_batch_overhead = nsec(320);
  cfg.batch_size = 32;
  cfg.tx_latency = 0;
  HostNic nic(sim, cfg);
  EXPECT_EQ(nic.tx_ready(0), 20); // 10 + 320/32
}

TEST(HostNic, TxLatencyDelaysWireWithoutOccupyingCore) {
  sim::Simulation sim;
  NicConfig cfg;
  cfg.cores = 1;
  cfg.per_packet_tx = nsec(100);
  cfg.per_batch_overhead = 0;
  cfg.tx_latency = usec(4);
  HostNic nic(sim, cfg);
  EXPECT_EQ(nic.tx_ready(0), 100 + usec(4));
  EXPECT_EQ(nic.tx_ready(0), 200 + usec(4)); // core only blocked 100ns per pkt
}

TEST(HostNic, RxProcessSchedulesAfterCoreAndLatency) {
  sim::Simulation sim;
  NicConfig cfg;
  cfg.cores = 1;
  cfg.per_packet_rx = nsec(100);
  cfg.per_batch_overhead = 0;
  cfg.rx_latency = nsec(50);
  // (slot, arrival, consumed at) per packet, in the order the lane hands them over.
  std::vector<std::tuple<std::uint32_t, Time, Time>> consumed;
  HostNic nic(sim, cfg,
              [&](Packet&& p, Time at) { consumed.emplace_back(p.idx, at, sim.now()); });
  for (std::uint32_t slot : {7u, 8u}) {
    Packet p;
    p.idx = slot;
    nic.receive(0, std::move(p));
  }
  sim.run();
  const std::vector<std::tuple<std::uint32_t, Time, Time>> want = {{7, 0, 150}, {8, 0, 250}};
  EXPECT_EQ(consumed, want);
}

TEST(HostNic, InvalidConfigThrows) {
  sim::Simulation sim;
  NicConfig cfg;
  cfg.cores = 0;
  EXPECT_THROW(HostNic(sim, cfg), std::invalid_argument);
}

// --------------------------------------------------------------- L2 switch

TEST(L2Switch, ForwardsByDestination) {
  sim::Simulation sim;
  SinkNode a{sim, 1, "a"}, b{sim, 2, "b"};
  L2Switch sw(sim, 100, "sw", nsec(400));
  LinkConfig lc;
  Link la(sim, lc, a, 0, sw, 0, 1);
  Link lb(sim, lc, b, 0, sw, 1, 2);
  sw.attach(0, la);
  sw.attach(1, lb);
  la.send_from(a, raw_packet(100, 1, 2));
  sim.run();
  EXPECT_EQ(b.arrivals.size(), 1u);
  EXPECT_TRUE(a.arrivals.empty());
}

TEST(L2Switch, MulticastReplicatesToGroupPorts) {
  sim::Simulation sim;
  SinkNode a{sim, 1, "a"}, b{sim, 2, "b"}, c{sim, 3, "c"};
  L2Switch sw(sim, 100, "sw", nsec(400));
  LinkConfig lc;
  Link la(sim, lc, a, 0, sw, 0, 1);
  Link lb(sim, lc, b, 0, sw, 1, 2);
  Link lcx(sim, lc, c, 0, sw, 2, 3);
  sw.attach(0, la);
  sw.attach(1, lb);
  sw.attach(2, lcx);
  sw.add_multicast_group(7, {0, 1, 2});
  sw.multicast(7, raw_packet(100, 1, 0));
  sim.run();
  EXPECT_EQ(a.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(c.arrivals.size(), 1u);
  // Multicast copies carry the per-port destination.
  EXPECT_EQ(std::get<2>(b.arrivals[0]).dst, 2u);
}

TEST(L2Switch, UnknownMulticastGroupThrows) {
  sim::Simulation sim;
  SinkNode a{sim, 1, "a"};
  L2Switch sw(sim, 100, "sw");
  LinkConfig lc;
  Link la(sim, lc, a, 0, sw, 0, 1);
  sw.attach(0, la);
  EXPECT_THROW(sw.multicast(42, raw_packet(100, 1, 0)), std::runtime_error);
}

TEST(L2Switch, GroupPortsKeepRegistrationOrderAndThrowForUnknownGroups) {
  sim::Simulation sim;
  L2Switch sw(sim, 100, "sw");
  sw.add_multicast_group(7, {2, 0, 1});
  EXPECT_EQ(sw.group_ports(7), (std::vector<int>{2, 0, 1}));
  EXPECT_THROW((void)sw.group_ports(42), std::runtime_error);
}

TEST(L2Switch, UnknownDestinationThrows) {
  sim::Simulation sim;
  SinkNode a{sim, 1, "a"};
  L2Switch sw(sim, 100, "sw");
  LinkConfig lc;
  Link la(sim, lc, a, 0, sw, 0, 1);
  sw.attach(0, la);
  la.send_from(a, raw_packet(100, 1, 99));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

// -------------------------------------------------------------- reliable

struct TransportPair {
  sim::Simulation sim;
  L2Switch sw{sim, 100, "sw", nsec(400)};
  NicConfig nic_cfg;
  std::unique_ptr<TransportHost> a;
  std::unique_ptr<TransportHost> b;
  std::unique_ptr<Link> la;
  std::unique_ptr<Link> lb;

  explicit TransportPair(double loss = 0.0, BitsPerSecond rate = gbps(10)) {
    nic_cfg.per_packet_tx = nsec(100);
    nic_cfg.per_packet_rx = nsec(100);
    nic_cfg.per_batch_overhead = 0;
    nic_cfg.tx_latency = nsec(500);
    nic_cfg.rx_latency = nsec(500);
    a = std::make_unique<TransportHost>(sim, 1, "a", nic_cfg);
    b = std::make_unique<TransportHost>(sim, 2, "b", nic_cfg);
    LinkConfig lc;
    lc.rate = rate;
    lc.loss_prob = loss;
    la = std::make_unique<Link>(sim, lc, *a, 0, sw, 0, 11);
    lb = std::make_unique<Link>(sim, lc, *b, 0, sw, 1, 12);
    a->set_uplink(*la);
    b->set_uplink(*lb);
    sw.attach(0, *la);
    sw.attach(1, *lb);
  }
};

TEST(Reliable, TransfersAllBytesInOrder) {
  TransportPair t;
  TransportProfile prof;
  bool done = false;
  std::int64_t received = 0;
  std::uint64_t expected_seq = 0;
  ReliableReceiver rx(*t.b, 1, 42, 1'000'000,
                      [&](std::uint64_t seq, std::uint32_t len, std::span<const float>) {
                        EXPECT_EQ(seq, expected_seq);
                        expected_seq += len;
                        received += len;
                      },
                      [&] { done = true; });
  ReliableSender tx(*t.a, 2, 42, prof, nullptr);
  tx.start(1'000'000);
  t.sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(received, 1'000'000);
  EXPECT_TRUE(tx.done());
}

TEST(Reliable, CarriesFloatPayloads) {
  TransportPair t;
  TransportProfile prof;
  std::vector<float> data(10'000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<float>(i) * 0.5f;
  std::vector<float> got(data.size(), -1.0f);
  bool done = false;
  ReliableReceiver rx(*t.b, 1, 7, static_cast<std::int64_t>(data.size()) * 4,
                      [&](std::uint64_t seq, std::uint32_t len, std::span<const float> vals) {
                        ASSERT_EQ(vals.size(), len / 4);
                        std::copy(vals.begin(), vals.end(), got.begin() + static_cast<std::ptrdiff_t>(seq / 4));
                      },
                      [&] { done = true; });
  ReliableSender tx(*t.a, 2, 7, prof, nullptr);
  tx.start(static_cast<std::int64_t>(data.size()) * 4, data);
  t.sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(got, data);
}

TEST(Reliable, RecoversFromHeavyLoss) {
  TransportPair t(/*loss=*/0.05);
  TransportProfile prof;
  prof.rto_initial = msec(1);
  bool done = false;
  ReliableReceiver rx(*t.b, 1, 9, 500'000, nullptr, [&] { done = true; });
  ReliableSender tx(*t.a, 2, 9, prof, nullptr);
  tx.start(500'000);
  t.sim.run();
  EXPECT_TRUE(done);
  EXPECT_GT(t.a->transport_counters().retransmissions, 0u);
}

TEST(Reliable, ThroughputApproachesLineRateWhenWindowExceedsBdp) {
  TransportPair t;
  TransportProfile prof;
  prof.window_bytes = 1024 * 1024;
  bool done = false;
  const std::int64_t bytes = 10'000'000;
  ReliableReceiver rx(*t.b, 1, 5, bytes, nullptr, [&] { done = true; });
  ReliableSender tx(*t.a, 2, 5, prof, nullptr);
  const Time t0 = t.sim.now();
  tx.start(bytes);
  t.sim.run();
  ASSERT_TRUE(done);
  const double secs = to_sec(t.sim.now() - t0);
  const double gbps_achieved = static_cast<double>(bytes) * 8.0 / secs / 1e9;
  EXPECT_GT(gbps_achieved, 8.0); // 10G link, ~4% header overhead
  EXPECT_LT(gbps_achieved, 10.0);
}

TEST(Reliable, SmallWindowLimitsThroughput) {
  TransportPair t;
  TransportProfile prof;
  prof.window_bytes = 2 * 1460; // two segments
  bool done = false;
  const std::int64_t bytes = 1'000'000;
  ReliableReceiver rx(*t.b, 1, 5, bytes, nullptr, [&] { done = true; });
  ReliableSender tx(*t.a, 2, 5, prof, nullptr);
  tx.start(bytes);
  t.sim.run();
  ASSERT_TRUE(done);
  const double secs = to_sec(t.sim.now());
  const double gbps_achieved = static_cast<double>(bytes) * 8.0 / secs / 1e9;
  EXPECT_LT(gbps_achieved, 5.0); // window-bound, well below line rate
}

TEST(Reliable, EmptyTransferThrows) {
  TransportPair t;
  TransportProfile prof;
  ReliableSender tx(*t.a, 2, 5, prof, nullptr);
  EXPECT_THROW(tx.start(0), std::invalid_argument);
}

TEST(Reliable, FastRetransmitRecoversWithoutWaitingForRto) {
  TransportPair t;
  TransportProfile prof;
  prof.rto_initial = msec(50); // make the RTO path obviously slow
  prof.window_bytes = 64 * 1024;
  // Drop exactly one mid-stream segment; dup-ACKs must repair it quickly.
  bool dropped = false;
  t.la->set_drop_filter([&](const Node& sender, const Packet& p) {
    if (!dropped && p.kind == PacketKind::Segment && p.seq == 5 * 1460 && sender.id() == 1) {
      dropped = true;
      return true;
    }
    return false;
  });
  bool done = false;
  ReliableReceiver rx(*t.b, 1, 6, 200'000, nullptr, [&] { done = true; });
  ReliableSender tx(*t.a, 2, 6, prof, nullptr);
  tx.start(200'000);
  t.sim.run();
  EXPECT_TRUE(done);
  EXPECT_GE(t.a->transport_counters().fast_retransmits, 1u);
  EXPECT_EQ(t.a->transport_counters().timeouts, 0u); // never needed the 50 ms timer
  EXPECT_LT(t.sim.now(), msec(10));
}

TEST(Reliable, RtoBacksOffExponentiallyUnderBlackout) {
  TransportPair t;
  TransportProfile prof;
  prof.rto_initial = msec(1);
  prof.rto_max = msec(8);
  // Black out the first 20 ms entirely.
  t.la->set_drop_filter([&](const Node&, const Packet& p) {
    return p.kind == PacketKind::Segment && t.sim.now() < msec(20);
  });
  bool done = false;
  ReliableReceiver rx(*t.b, 1, 8, 10'000, nullptr, [&] { done = true; });
  ReliableSender tx(*t.a, 2, 8, prof, nullptr);
  tx.start(10'000);
  t.sim.run();
  EXPECT_TRUE(done);
  // With exponential backoff capped at 8 ms, the 20 ms blackout costs a
  // handful of timeouts (1+2+4+8+8 = 23 ms), not 20.
  EXPECT_GE(t.a->transport_counters().timeouts, 4u);
  EXPECT_LE(t.a->transport_counters().timeouts, 8u);
}

TEST(Reliable, OutOfOrderSegmentsAreBufferedAndOnlyTheHoleIsResent) {
  // SACK-like receiver: losing the first segment leaves the other 15
  // buffered; exactly one retransmission repairs the stream.
  TransportPair t(/*loss=*/0.0);
  TransportProfile prof;
  prof.window_bytes = 16 * 1460;
  bool dropped = false;
  t.la->set_drop_filter([&](const Node& sender, const Packet& p) {
    if (!dropped && p.kind == PacketKind::Segment && p.seq == 0 && sender.id() == 1) {
      dropped = true;
      return true;
    }
    return false;
  });
  bool done = false;
  std::uint64_t expected_seq = 0;
  ReliableReceiver rx(*t.b, 1, 9, 16 * 1460,
                      [&](std::uint64_t seq, std::uint32_t len, std::span<const float>) {
                        EXPECT_EQ(seq, expected_seq); // delivery stays in order
                        expected_seq += len;
                      },
                      [&] { done = true; });
  ReliableSender tx(*t.a, 2, 9, prof, nullptr);
  tx.start(16 * 1460);
  t.sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(t.a->transport_counters().segments_sent, 17u); // 16 + the one hole
  EXPECT_EQ(t.a->transport_counters().retransmissions, 1u);
  EXPECT_EQ(rx.buffered_segments(), 0u);
}

// ------------------------------------------------------------- link trace

// Each link event is one record in the ambient TraceSink's `link` category,
// emitted by the sending node with the receiver, the slot and the wire bytes.
void expect_link_args(const trace::Event& e, NodeId from, NodeId to, std::uint32_t slot,
                      std::uint32_t bytes) {
  EXPECT_EQ(e.cat, trace::kCatLink);
  EXPECT_EQ(e.node, from);
  EXPECT_STREQ(e.a0.key, "to");
  EXPECT_EQ(e.a0.value, static_cast<std::int64_t>(to));
  EXPECT_STREQ(e.a1.key, "slot");
  EXPECT_EQ(e.a1.value, static_cast<std::int64_t>(slot));
  EXPECT_STREQ(e.a2.key, "bytes");
  EXPECT_EQ(e.a2.value, static_cast<std::int64_t>(bytes));
}

TEST(LinkTrace, EnqueueAndDeliverCarryEndpointsSlotAndBytes) {
  sim::Simulation sim;
  SinkNode a{sim, 1, "a"}, b{sim, 2, "b"};
  LinkConfig lc;
  Link link(sim, lc, a, 0, b, 0, 1);
  trace::TraceSink sink(16, trace::kCatLink);
  trace::TraceSink::Scope scope(&sink);
  Packet p = raw_packet(100, 1, 2);
  p.idx = 7;
  const std::uint32_t bytes = p.wire_bytes();
  link.send_from(a, std::move(p));
  sim.run();
  ASSERT_EQ(sink.events().size(), 2u);
  const trace::Event& enqueue = sink.events()[0];
  const trace::Event& deliver = sink.events()[1];
  EXPECT_STREQ(enqueue.name, "enqueue");
  EXPECT_EQ(enqueue.ts, 0);
  expect_link_args(enqueue, 1, 2, 7, bytes);
  EXPECT_STREQ(deliver.name, "deliver");
  EXPECT_EQ(deliver.ts, serialization_time(bytes, lc.rate) + lc.propagation);
  expect_link_args(deliver, 1, 2, 7, bytes);
  EXPECT_EQ(b.arrivals.size(), 1u);
}

TEST(LinkTrace, DropLossFollowsEnqueue) {
  sim::Simulation sim;
  SinkNode a{sim, 1, "a"}, b{sim, 2, "b"};
  LinkConfig lc;
  Link link(sim, lc, a, 0, b, 0, 1);
  link.set_drop_filter([](const Node&, const Packet&) { return true; });
  trace::TraceSink sink(16, trace::kCatLink);
  trace::TraceSink::Scope scope(&sink);
  Packet p = raw_packet(100, 1, 2);
  const std::uint32_t bytes = p.wire_bytes();
  link.send_from(a, std::move(p));
  sim.run();
  ASSERT_EQ(sink.events().size(), 2u);
  EXPECT_STREQ(sink.events()[0].name, "enqueue");
  EXPECT_STREQ(sink.events()[1].name, "drop_loss");
  expect_link_args(sink.events()[1], 1, 2, 0, bytes);
  EXPECT_TRUE(b.arrivals.empty());
}

} // namespace
} // namespace switchml::net
