// In-band telemetry tests: wire format roundtrip + fuzz against a reference
// decoder, honest header accounting (incl. the fig7 MTU goodput ratios),
// O(1) link queue-depth accessors, passivity of the phantom mode, loss-free
// equivalence of the on-wire mode, and the fault localizer's verdict rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/int_telemetry.hpp"
#include "common/metrics.hpp"
#include "core/cluster.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"

namespace switchml {
namespace {

using inttel::HopKey;
using inttel::IntHopRecord;

IntHopRecord sample_record(std::uint32_t i) {
  IntHopRecord rec;
  rec.hop_id = i;
  rec.next_hop = i + 1;
  rec.hop_latency_ns = 1000 + i;
  rec.queue_bytes = 77 * i;
  rec.queue_pkts = static_cast<std::uint16_t>(3 * i);
  rec.flags = static_cast<std::uint16_t>(i % 3);
  rec.drops = i * i;
  rec.pool_occupancy = 128 - i;
  rec.fanin = static_cast<std::uint16_t>(8 + i);
  rec.epoch = static_cast<std::uint16_t>(i);
  return rec;
}

TEST(IntWire, RoundtripPreservesEveryField) {
  std::vector<std::uint8_t> stack;
  for (std::uint32_t i = 0; i < 3; ++i) ASSERT_TRUE(inttel::append_record(stack, sample_record(i)));
  EXPECT_EQ(stack.size(), inttel::kShimBytes + 3 * inttel::kRecordBytes);
  EXPECT_EQ(inttel::stack_wire_bytes(stack), stack.size());
  EXPECT_EQ(inttel::last_hop_id(stack), 2u);

  const inttel::ParsedStack parsed = inttel::parse_stack(stack);
  ASSERT_TRUE(parsed.ok);
  EXPECT_FALSE(parsed.truncated);
  ASSERT_EQ(parsed.hops.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) EXPECT_EQ(parsed.hops[i], sample_record(i));
}

TEST(IntWire, TruncatesAtMaxHopsAndSetsShimFlag) {
  std::vector<std::uint8_t> stack;
  for (std::uint32_t i = 0; i < inttel::kMaxHops; ++i)
    ASSERT_TRUE(inttel::append_record(stack, sample_record(i)));
  // Hop kMaxHops does not fit: the stack stops growing and is flagged.
  EXPECT_FALSE(inttel::append_record(stack, sample_record(99)));
  EXPECT_EQ(stack.size(), inttel::kShimBytes + inttel::kMaxHops * inttel::kRecordBytes);
  const inttel::ParsedStack parsed = inttel::parse_stack(stack);
  ASSERT_TRUE(parsed.ok);
  EXPECT_TRUE(parsed.truncated);
  EXPECT_EQ(parsed.hops.size(), static_cast<std::size_t>(inttel::kMaxHops));
}

TEST(IntWire, ParseRejectsMalformedStacks) {
  std::vector<std::uint8_t> stack;
  ASSERT_TRUE(inttel::append_record(stack, sample_record(1)));

  EXPECT_FALSE(inttel::parse_stack(std::vector<std::uint8_t>{}).ok); // empty is not a stack
  auto bad_magic = stack;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(inttel::parse_stack(bad_magic).ok);
  auto bad_version = stack;
  bad_version[1] = inttel::kVersion + 1;
  EXPECT_FALSE(inttel::parse_stack(bad_version).ok);
  auto bad_count = stack;
  bad_count[2] = 2; // claims 2 hops, carries 1
  EXPECT_FALSE(inttel::parse_stack(bad_count).ok);
  auto short_tail = stack;
  short_tail.pop_back();
  EXPECT_FALSE(inttel::parse_stack(short_tail).ok);
}

// Independent reference decoder: reads the documented little-endian layout
// byte by byte, sharing no code with inttel::parse_stack.
std::optional<std::vector<IntHopRecord>> reference_decode(const std::vector<std::uint8_t>& b,
                                                          bool* truncated) {
  auto u16 = [&](std::size_t o) {
    return static_cast<std::uint16_t>(b[o] | (b[o + 1] << 8));
  };
  auto u32 = [&](std::size_t o) {
    return static_cast<std::uint32_t>(b[o]) | (static_cast<std::uint32_t>(b[o + 1]) << 8) |
           (static_cast<std::uint32_t>(b[o + 2]) << 16) |
           (static_cast<std::uint32_t>(b[o + 3]) << 24);
  };
  if (b.size() < 4 || b[0] != 0xA7 || b[1] != 1) return std::nullopt;
  const std::size_t hops = b[2];
  if (hops > 8 || b.size() != 4 + hops * 32) return std::nullopt;
  *truncated = (b[3] & 1) != 0;
  std::vector<IntHopRecord> out(hops);
  for (std::size_t h = 0; h < hops; ++h) {
    const std::size_t o = 4 + h * 32;
    out[h].hop_id = u32(o);
    out[h].next_hop = u32(o + 4);
    out[h].hop_latency_ns = u32(o + 8);
    out[h].queue_bytes = u32(o + 12);
    out[h].queue_pkts = u16(o + 16);
    out[h].flags = u16(o + 18);
    out[h].drops = u32(o + 20);
    out[h].pool_occupancy = u32(o + 24);
    out[h].fanin = u16(o + 28);
    out[h].epoch = u16(o + 30);
  }
  return out;
}

TEST(IntWire, FuzzAgreesWithReferenceDecoder) {
  sim::Rng rng = sim::Rng::stream(7, "int-fuzz");
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> buf;
    if (rng.uniform_int(0, 3) == 0) {
      // Raw random buffer (usually malformed).
      buf.resize(static_cast<std::size_t>(rng.uniform_int(0, 300)));
      for (auto& byte : buf) byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    } else {
      // Valid stack, then a few random byte flips.
      const int hops = static_cast<int>(rng.uniform_int(1, inttel::kMaxHops));
      for (int h = 0; h < hops; ++h)
        inttel::append_record(buf, sample_record(static_cast<std::uint32_t>(
                                       rng.uniform_int(0, 1'000'000))));
      const int flips = static_cast<int>(rng.uniform_int(0, 3));
      for (int f = 0; f < flips; ++f) {
        const auto pos = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(buf.size()) - 1));
        buf[pos] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      }
    }
    bool ref_trunc = false;
    const auto ref = reference_decode(buf, &ref_trunc);
    const inttel::ParsedStack got = inttel::parse_stack(buf);
    ASSERT_EQ(got.ok, ref.has_value()) << "iter " << iter;
    if (ref.has_value()) {
      EXPECT_EQ(got.truncated, ref_trunc);
      ASSERT_EQ(got.hops.size(), ref->size());
      for (std::size_t h = 0; h < ref->size(); ++h) EXPECT_EQ(got.hops[h], (*ref)[h]);
    }
  }
}

// Satellite 2: every header byte is accounted for. The SwitchML wire format
// is 52 bytes of headers (Ethernet + IP + UDP + SwitchML) plus the payload;
// INT adds its shim + records ONLY in on-wire mode.
TEST(IntWire, HeaderAccountingIsHonest) {
  net::Packet p;
  p.kind = net::PacketKind::SmlUpdate;
  p.elem_count = 32;
  p.elem_bytes = 4;
  EXPECT_EQ(p.wire_bytes(), 180u); // §3.4 baseline packet
  p.elem_count = 366;
  EXPECT_EQ(p.wire_bytes(), 1516u); // §5.5 MTU packet

  if (!inttel::kCompiledIn) GTEST_SKIP() << "telemetry compiled out (SWITCHML_INT=0)";

  // Phantom mode: records ride the packet object, zero bytes on the wire.
  p.int_mode = inttel::kModePhantom;
  inttel::append_record(p.int_stack, sample_record(1));
  EXPECT_EQ(p.int_wire_bytes(), 0u);
  EXPECT_EQ(p.wire_bytes(), 1516u);

  // On-wire mode: shim + every record is real bytes, MTU accounting included.
  p.int_mode = inttel::kModeOnWire;
  EXPECT_EQ(p.int_wire_bytes(), inttel::kShimBytes + inttel::kRecordBytes);
  EXPECT_EQ(p.wire_bytes(), 1516u + inttel::kShimBytes + inttel::kRecordBytes);
  inttel::append_record(p.int_stack, sample_record(2));
  EXPECT_EQ(p.wire_bytes(), 1516u + inttel::kShimBytes + 2 * inttel::kRecordBytes);

  // Fig 7 goodput ratios: payload / wire for the two MTU points, and the
  // honest INT-on-wire degradation of each (one full 3-hop rack stack).
  const double base_small = 128.0 / 180.0;
  const double base_mtu = 1464.0 / 1516.0;
  EXPECT_NEAR(base_small, 0.7111, 1e-3);
  EXPECT_NEAR(base_mtu, 0.9657, 1e-3);
  const double int_bytes = inttel::kShimBytes + 3.0 * inttel::kRecordBytes;
  EXPECT_NEAR(128.0 / (180.0 + int_bytes), 0.4571, 1e-3);  // small packets pay dearly
  EXPECT_NEAR(1464.0 / (1516.0 + int_bytes), 0.9059, 1e-3); // MTU absorbs INT well
}

// --- O(1) queue accessors ----------------------------------------------------

class QueueProbeNode : public net::Node {
public:
  using Node::Node;
  void receive(net::Packet&&, int) override {}
};

net::Packet seg_packet(std::uint32_t wire, net::NodeId src, net::NodeId dst) {
  net::Packet p;
  p.kind = net::PacketKind::Segment;
  p.seg_len = wire - net::kSegmentHeaderBytes;
  p.src = src;
  p.dst = dst;
  return p;
}

TEST(IntLink, QueueDepthAccessorsTrackTheBacklogExactly) {
  sim::Simulation sim;
  QueueProbeNode a(sim, 0, "a");
  QueueProbeNode b(sim, 1, "b");
  net::LinkConfig cfg;
  cfg.rate = gbps(10);
  cfg.propagation = 0;
  net::Link link(sim, cfg, a, 0, b, 0, 1);

  const Time ser = serialization_time(1000, cfg.rate); // 800 ns per packet
  for (int i = 0; i < 3; ++i) link.send_from(a, seg_packet(1000, 0, 1));
  EXPECT_EQ(link.queue_depth_bytes(a), 3000);
  EXPECT_EQ(link.queue_depth_pkts(a), 3);
  EXPECT_EQ(link.queue_depth_bytes(b), 0); // full duplex: other direction empty

  // Sample mid-drain: at 1.5 ser the first packet has finished serializing.
  sim.schedule_timer(ser + ser / 2, [&] {
    EXPECT_EQ(link.queue_depth_bytes(a), 2000);
    EXPECT_EQ(link.queue_depth_pkts(a), 2);
  });
  sim.run();
  EXPECT_EQ(link.queue_depth_bytes(a), 0);
  EXPECT_EQ(link.queue_depth_pkts(a), 0);
}

TEST(IntLink, StampsOneRecordPerTraversal) {
  if (!inttel::kCompiledIn) GTEST_SKIP() << "telemetry compiled out (SWITCHML_INT=0)";
  sim::Simulation sim;
  class Catcher : public net::Node {
  public:
    using Node::Node;
    void receive(net::Packet&& p, int) override { got.push_back(std::move(p)); }
    std::vector<net::Packet> got;
  };
  Catcher a(sim, 0, "a");
  Catcher b(sim, 1, "b");
  net::LinkConfig cfg;
  cfg.rate = gbps(10);
  cfg.propagation = nsec(500);
  net::Link link(sim, cfg, a, 0, b, 0, 1);

  net::Packet p;
  p.kind = net::PacketKind::SmlUpdate;
  p.elem_count = 32;
  p.elem_bytes = 4;
  p.src = 0;
  p.dst = 1;
  p.int_mode = inttel::kModeOnWire;
  p.seal();
  link.send_from(a, std::move(p));
  sim.run();
  ASSERT_EQ(b.got.size(), 1u);
  const inttel::ParsedStack parsed = inttel::parse_stack(b.got[0].int_stack);
  ASSERT_TRUE(parsed.ok);
  ASSERT_EQ(parsed.hops.size(), 1u);
  const IntHopRecord& rec = parsed.hops[0];
  EXPECT_EQ(rec.hop_id, 0u);
  EXPECT_EQ(rec.next_hop, 1u);
  // Idle link: hop latency is serialization (INT bytes included) + propagation.
  const auto wire = 180u + inttel::kShimBytes + inttel::kRecordBytes;
  EXPECT_EQ(rec.hop_latency_ns,
            static_cast<std::uint32_t>(serialization_time(wire, cfg.rate) + cfg.propagation));
  EXPECT_EQ(rec.queue_pkts, 0u);
  EXPECT_EQ(rec.drops, 0u);
  // The checksum ignores the (hop-mutated) INT fields but still guards the
  // SwitchML header/payload.
  EXPECT_TRUE(b.got[0].verify());
}

// --- mode passivity / equivalence -------------------------------------------

core::ClusterConfig int_config(int workers, std::uint8_t mode, bool timing) {
  core::ClusterConfig c = core::ClusterConfig::for_rate(gbps(10), workers);
  c.timing_only = timing;
  c.int_mode = mode;
  return c;
}

TEST(IntModes, PhantomModeIsBitIdenticalToOff) {
  // Same seed, same tensor: phantom telemetry must not move a single event.
  std::vector<Time> tats_off;
  std::uint64_t completions_off = 0;
  std::uint64_t sent_off = 0;
  {
    core::Fabric cluster(int_config(4, inttel::kModeOff, true).fabric());
    tats_off = cluster.reduce_timing(64 * 1024);
    completions_off = cluster.root().counters().completions;
    sent_off = cluster.worker(0).counters().updates_sent;
  }
  core::Fabric cluster(int_config(4, inttel::kModePhantom, true).fabric());
  const auto tats = cluster.reduce_timing(64 * 1024);
  EXPECT_EQ(tats, tats_off);
  EXPECT_EQ(cluster.root().counters().completions, completions_off);
  EXPECT_EQ(cluster.worker(0).counters().updates_sent, sent_off);
  // ... while the telemetry itself flowed: every result carried a stack.
  // (Compiled out, the identity above still holds — with no stamping at all.)
  if (inttel::kCompiledIn) {
    const inttel::IntCollector* col = cluster.worker(0).int_collector();
    ASSERT_NE(col, nullptr);
    EXPECT_GT(col->records_parsed(), 0u);
    EXPECT_EQ(col->parse_errors(), 0u);
  }
}

TEST(IntModes, OnWireKeepsLossFreeProtocolAndDataExact) {
  // Loss-free fabric: on-wire INT shifts timing (honest extra bytes) but no
  // packet is created, dropped, or reordered — protocol counts and the
  // aggregated values stay identical.
  auto updates = [] {
    sim::Rng rng = sim::Rng::stream(11, "int-updates");
    std::vector<std::vector<std::int32_t>> u(4);
    for (auto& v : u) {
      v.resize(4096);
      for (auto& e : v) e = static_cast<std::int32_t>(rng.uniform_int(-1'000'000, 1'000'000));
    }
    return u;
  }();

  core::Fabric off(int_config(4, inttel::kModeOff, false).fabric());
  const auto r_off = off.reduce_i32(updates);
  core::Fabric wire(int_config(4, inttel::kModeOnWire, false).fabric());
  const auto r_wire = wire.reduce_i32(updates);

  EXPECT_EQ(r_off.outputs, r_wire.outputs);
  EXPECT_EQ(off.root().counters().completions, wire.root().counters().completions);
  EXPECT_EQ(off.worker(0).counters().updates_sent, wire.worker(0).counters().updates_sent);
  EXPECT_EQ(wire.worker(0).counters().retransmissions, 0u);
  // The extra bytes are real: the on-wire run cannot be faster.
  for (std::size_t i = 0; i < r_off.tat.size(); ++i) EXPECT_GE(r_wire.tat[i], r_off.tat[i]);
}

TEST(IntModes, DisabledFabricRegistersNoIntSeries) {
  core::Fabric off(int_config(2, inttel::kModeOff, true).fabric());
  EXPECT_EQ(off.metrics().snapshot().json().dump().find("\"int."), std::string::npos);
  EXPECT_EQ(off.worker(0).int_collector(), nullptr);
  EXPECT_EQ(off.int_localizer(), nullptr);

  if (!inttel::kCompiledIn) return; // compiled out: no fabric ever builds the stack
  core::Fabric on(int_config(2, inttel::kModePhantom, true).fabric());
  EXPECT_NE(on.metrics().snapshot().json().dump().find("\"int."), std::string::npos);
  EXPECT_NE(on.worker(0).int_collector(), nullptr);
  EXPECT_NE(on.int_localizer(), nullptr);
}

// --- localizer rules ---------------------------------------------------------

IntHopRecord link_record(std::uint32_t from, std::uint32_t to, std::uint32_t drops) {
  IntHopRecord rec;
  rec.hop_id = from;
  rec.next_hop = to;
  rec.hop_latency_ns = 1000;
  rec.drops = drops;
  return rec;
}

TEST(Localizer, EpochBumpIsSwitchRestarted) {
  inttel::FaultLocalizer loc;
  IntHopRecord rec;
  rec.hop_id = 50;
  rec.flags = inttel::kHopFlagSwitch;
  rec.epoch = 0;
  loc.on_record(1, inttel::key_of(rec), rec, 10);
  EXPECT_EQ(loc.count(inttel::FaultLocalizer::Verdict::Kind::kSwitchRestarted), 0u);
  rec.epoch = 1;
  loc.on_record(1, inttel::key_of(rec), rec, 20);
  loc.on_record(2, inttel::key_of(rec), rec, 30); // same epoch seen again: no re-fire
  EXPECT_EQ(loc.count(inttel::FaultLocalizer::Verdict::Kind::kSwitchRestarted), 1u);
  ASSERT_EQ(loc.verdicts().size(), 1u);
  EXPECT_EQ(loc.verdicts()[0].a, 50u);
  EXPECT_EQ(loc.verdicts()[0].detail, 1u);
  rec.epoch = 2;
  loc.on_record(1, inttel::key_of(rec), rec, 40);
  EXPECT_EQ(loc.count(inttel::FaultLocalizer::Verdict::Kind::kSwitchRestarted), 2u);
}

TEST(Localizer, DropsAfterSilenceGapAreSlowLink) {
  inttel::FaultLocalizer loc;
  const HopKey key{3, 9, HopKey::kLink};
  Time now = 0;
  for (int i = 0; i < 20; ++i) { // steady 1 us cadence, no drops: baseline
    now += usec(1);
    loc.on_record(3, key, link_record(3, 9, 0), now);
  }
  now += usec(500); // silence ≫ max(8 × 1 us, 50 us), then drops surface
  loc.on_record(3, key, link_record(3, 9, 7), now);
  ASSERT_EQ(loc.verdicts().size(), 1u);
  EXPECT_EQ(loc.verdicts()[0].kind, inttel::FaultLocalizer::Verdict::Kind::kSlowLink);
  EXPECT_EQ(loc.verdicts()[0].a, 3u);
  EXPECT_EQ(loc.verdicts()[0].b, 9u);
  EXPECT_EQ(loc.verdicts()[0].detail, 7u);
  // The reverse direction's drops dedup onto the same undirected link.
  const HopKey rev{9, 3, HopKey::kLink};
  Time rnow = 0;
  for (int i = 0; i < 20; ++i) {
    rnow += usec(1);
    loc.on_record(3, rev, link_record(9, 3, 0), rnow);
  }
  loc.on_record(3, rev, link_record(9, 3, 4), rnow + usec(1));
  EXPECT_EQ(loc.verdicts().size(), 1u);
}

TEST(Localizer, DropsUnderSteadyTrafficAreCongestion) {
  inttel::FaultLocalizer loc;
  const HopKey key{4, 9, HopKey::kLink};
  Time now = 0;
  for (int i = 0; i < 20; ++i) {
    now += usec(1);
    loc.on_record(4, key, link_record(4, 9, 0), now);
  }
  now += usec(1); // records kept flowing: load shedding, not an outage
  loc.on_record(4, key, link_record(4, 9, 3), now);
  ASSERT_EQ(loc.verdicts().size(), 1u);
  EXPECT_EQ(loc.verdicts()[0].kind, inttel::FaultLocalizer::Verdict::Kind::kCongestedHop);
}

TEST(Localizer, ResidualOutlierIsStraggler) {
  inttel::FaultLocalizer loc;
  Time now = 0;
  // 4 workers; worker 0's host residual is 40x the fleet's.
  for (int round = 0; round < 30; ++round) {
    now += usec(10);
    loc.on_residual(100, 40'000, now);
    for (std::uint32_t w = 1; w < 4; ++w) loc.on_residual(100 + w, 1'000, now);
  }
  EXPECT_EQ(loc.count(inttel::FaultLocalizer::Verdict::Kind::kStraggler), 1u);
  ASSERT_GE(loc.verdicts().size(), 1u);
  EXPECT_EQ(loc.verdicts()[0].a, 100u);
  const json::Value v = loc.to_json(loc.verdicts()[0]);
  EXPECT_EQ(v.find("kind")->as_string(), "straggler");
  EXPECT_EQ(v.find("subject")->as_string(), "node-100");
  EXPECT_EQ(v.find("a")->as_int(), 100);
  EXPECT_EQ(v.find("at_ns")->as_int(), loc.verdicts()[0].at);
}

TEST(Localizer, HealthyFleetStaysQuiet) {
  inttel::FaultLocalizer loc;
  Time now = 0;
  for (int round = 0; round < 50; ++round) {
    now += usec(10);
    for (std::uint32_t w = 0; w < 4; ++w) loc.on_residual(100 + w, 1'000 + w * 50, now);
    loc.on_record(1, HopKey{1, 9, HopKey::kLink}, link_record(1, 9, 0), now);
  }
  EXPECT_TRUE(loc.verdicts().empty());
}

TEST(Collector, CountsParseErrorsAndTruncation) {
  MetricsRegistry reg;
  MetricsRegistry::Scope scope(&reg);
  inttel::IntCollector col("int.test.");
  col.observe(1, std::vector<std::uint8_t>{0xDE, 0xAD}, 0, -1);
  EXPECT_EQ(col.parse_errors(), 1u);

  std::vector<std::uint8_t> full;
  for (std::uint32_t i = 0; i < inttel::kMaxHops; ++i)
    inttel::append_record(full, sample_record(i));
  inttel::append_record(full, sample_record(9)); // sets the truncated flag
  col.observe(1, full, 0, -1);
  EXPECT_EQ(col.truncated_stacks(), 1u);
  EXPECT_EQ(col.records_parsed(), static_cast<std::uint64_t>(inttel::kMaxHops));
  EXPECT_EQ(reg.snapshot().counter("int.test.parse_errors"), 1);
}

} // namespace
} // namespace switchml
