// Deterministic replay of the paper's Appendix A execution: three workers,
// one slot (x = 1), an update packet lost on the upstream path and a result
// packet lost on the downstream path. A TraceSink records the switch, worker
// and link events, and each test asserts the exact sequence of slot x's
// first-phase protocol reactions: the lost packet, the timeouts and
// retransmissions, the duplicates the seen bitmap ignores, the late
// retransmission completing the slot, and the shadow copy serving a unicast
// reply. The slot is then reused safely for two more phases, and every
// worker's result is bit-exact.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/tracing.hpp"
#include "core/cluster.hpp"

namespace switchml::core {
namespace {

using Walk = std::vector<std::string>;

class AppendixATrace : public ::testing::Test {
protected:
  static constexpr std::uint32_t kSlot = 1;
  static constexpr std::uint64_t kOff = 32; // slot 1, first phase (off = k * idx)
  static constexpr unsigned kCats = trace::kCatSwitch | trace::kCatWorker | trace::kCatLink;

  ClusterConfig make_config() {
    ClusterConfig cfg;
    cfg.n_workers = 3;
    cfg.pool_size = 4;
    cfg.retransmit_timeout = msec(1);
    return cfg;
  }

  // Tensor with 3 phases per slot, so slot 1 is reused after the loss.
  std::vector<std::vector<std::int32_t>> make_updates() {
    std::vector<std::vector<std::int32_t>> u(3, std::vector<std::int32_t>(32 * 4 * 3));
    for (int w = 0; w < 3; ++w)
      for (std::size_t i = 0; i < u[0].size(); ++i)
        u[static_cast<std::size_t>(w)][i] = static_cast<std::int32_t>((w + 1) * 1000 + i);
    return u;
  }

  std::vector<std::int32_t> expected_sum(const std::vector<std::vector<std::int32_t>>& u) {
    std::vector<std::int32_t> s(u[0].size(), 0);
    for (const auto& v : u)
      for (std::size_t i = 0; i < v.size(); ++i) s[i] += v[i];
    return s;
  }

  // The slot's first-phase events in trace order, one line each: the
  // workers' sends, timeouts, retransmissions and receptions; the link drops
  // with the receiving node; the switch's ignored duplicates and shadow-copy
  // replies with the worker concerned, and its completion. Actors are w<i>
  // and sw. The walk ends when the third worker receives the result, before
  // the third phase reuses version 0.
  Walk walk() const {
    EXPECT_EQ(sink_.total_drops(), 0u);
    const auto arg = [](const trace::Event& e, std::string_view key) {
      for (const trace::Arg* a : {&e.a0, &e.a1, &e.a2})
        if (a->key != nullptr && key == a->key) return std::optional<std::int64_t>(a->value);
      return std::optional<std::int64_t>();
    };
    const auto actor = [](std::int64_t node) {
      return node < 100 ? std::string("w") + std::to_string(node) : std::string("sw");
    };
    Walk out;
    int received = 0;
    for (const trace::Event& e : sink_.events()) {
      if (arg(e, "slot") != kSlot) continue;
      const std::string_view name = e.name;
      std::string line = actor(e.node) + " " + std::string(name);
      if (e.cat == trace::kCatLink) {
        if (!name.starts_with("drop_")) continue;
        line.append(" ").append(actor(*arg(e, "to")));
      } else if (e.cat == trace::kCatWorker || name == "complete") {
        if (arg(e, "off") != static_cast<std::int64_t>(kOff)) continue;
      } else if (name == "dup_update" || name == "shadow_reply") {
        if (arg(e, "ver") != 0) continue; // the second phase runs on version 1
        line.append(" ").append(actor(*arg(e, "wid")));
      } else {
        continue; // claims, aggregations and version flips
      }
      out.push_back(std::move(line));
      if (name == "recv" && ++received == 3) break;
    }
    return out;
  }

  trace::TraceSink sink_{1u << 12, kCats};
  trace::TraceSink::Scope scope_{&sink_};
};

TEST_F(AppendixATrace, UpstreamLossRecoveredByRetransmission) {
  // t2/t3: worker 3's (here: worker 2's) update for slot x is lost upstream.
  Fabric cluster(make_config().fabric());
  bool dropped = false;
  cluster.link(2).set_drop_filter([&](const net::Node& sender, const net::Packet& p) {
    if (!dropped && p.kind == net::PacketKind::SmlUpdate && p.idx == kSlot && p.off == kOff &&
        sender.id() == 2) {
      dropped = true;
      return true;
    }
    return false;
  });

  auto updates = make_updates();
  auto result = cluster.reduce_i32(updates);
  EXPECT_EQ(result.outputs[0], expected_sum(updates));

  EXPECT_EQ(walk(), (Walk{
                        "w0 send", "w1 send", "w2 send",
                        "w2 drop_loss sw",
                        // Self-clocking stalls every worker on the slot, so
                        // all three timers fire and all three retransmit.
                        "w0 timeout", "w0 retransmit",
                        "w1 timeout", "w1 retransmit",
                        "w2 timeout", "w2 retransmit",
                        // t4/t5: the seen bitmap ignores workers 0 and 1.
                        "sw dup_update w0", "sw dup_update w1",
                        // t6: worker 2's retransmission completes the slot.
                        "sw complete",
                        "w0 recv", "w1 recv", "w2 recv",
                    }));
  const auto& sw = cluster.root().counters();
  EXPECT_EQ(sw.duplicate_updates, 2u);
  EXPECT_EQ(sw.unicast_replies, 0u);
}

TEST_F(AppendixATrace, DownstreamLossServedFromShadowCopy) {
  // t7: the multicast result for worker 1 (here: worker 0) is lost downstream.
  Fabric cluster(make_config().fabric());
  bool dropped = false;
  cluster.link(0).set_drop_filter([&](const net::Node& sender, const net::Packet& p) {
    if (!dropped && p.kind == net::PacketKind::SmlResult && p.idx == kSlot && p.off == kOff &&
        sender.id() >= 100) {
      dropped = true;
      return true;
    }
    return false;
  });

  auto updates = make_updates();
  auto result = cluster.reduce_i32(updates);
  for (int w = 0; w < 3; ++w)
    EXPECT_EQ(result.outputs[static_cast<std::size_t>(w)], expected_sum(updates));

  EXPECT_EQ(walk(), (Walk{
                        "w0 send", "w1 send", "w2 send",
                        "sw complete",
                        "sw drop_loss w0",
                        // Workers 1 and 2 move on to the next phase.
                        "w1 recv", "w2 recv",
                        // t8: worker 0's retransmission hits a complete slot...
                        "w0 timeout", "w0 retransmit",
                        // ...t11: which answers from the shadow copy.
                        "sw dup_update w0", "sw shadow_reply w0",
                        "w0 recv",
                    }));
}

TEST_F(AppendixATrace, CombinedLossesMatchPaperNarrative) {
  // Both losses in one run, as in Figure 9's full trace.
  Fabric cluster(make_config().fabric());
  bool up = false, down = false;
  cluster.link(2).set_drop_filter([&](const net::Node& sender, const net::Packet& p) {
    if (!up && p.kind == net::PacketKind::SmlUpdate && p.idx == kSlot && p.off == kOff &&
        sender.id() == 2) {
      up = true;
      return true;
    }
    return false;
  });
  cluster.link(0).set_drop_filter([&](const net::Node& sender, const net::Packet& p) {
    if (!down && p.kind == net::PacketKind::SmlResult && p.idx == kSlot && p.off == kOff &&
        sender.id() >= 100) {
      down = true;
      return true;
    }
    return false;
  });

  auto updates = make_updates();
  auto result = cluster.reduce_i32(updates);
  for (int w = 0; w < 3; ++w)
    EXPECT_EQ(result.outputs[static_cast<std::size_t>(w)], expected_sum(updates));
  EXPECT_TRUE(up);
  EXPECT_TRUE(down);

  EXPECT_EQ(walk(), (Walk{
                        "w0 send", "w1 send", "w2 send",
                        "w2 drop_loss sw",
                        "w0 timeout", "w0 retransmit",
                        "w1 timeout", "w1 retransmit",
                        "w2 timeout", "w2 retransmit",
                        "sw dup_update w0", "sw dup_update w1",
                        "sw complete",
                        "sw drop_loss w0",
                        "w1 recv", "w2 recv",
                        "w0 timeout", "w0 retransmit",
                        "sw dup_update w0", "sw shadow_reply w0",
                        "w0 recv",
                    }));
  EXPECT_EQ(cluster.root().counters().unicast_replies, 1u);
  // No worker ever lags more than one phase behind (the §3.5 invariant):
  // after completion all slots agree on their phase count.
  for (std::uint32_t s = 0; s < 4; ++s)
    for (int w = 1; w < 3; ++w)
      EXPECT_EQ(cluster.worker(w).slot_phase(s), cluster.worker(0).slot_phase(s));
}

TEST_F(AppendixATrace, RepeatedUpstreamLossEventuallyRecovers) {
  // The same packet lost 3 times in a row: exponential persistence of the
  // worker timer still repairs it.
  Fabric cluster(make_config().fabric());
  int drops = 0;
  cluster.link(2).set_drop_filter([&](const net::Node& sender, const net::Packet& p) {
    if (drops < 3 && p.kind == net::PacketKind::SmlUpdate && p.idx == kSlot && p.off == kOff &&
        sender.id() == 2) {
      ++drops;
      return true;
    }
    return false;
  });
  auto updates = make_updates();
  auto result = cluster.reduce_i32(updates);
  EXPECT_EQ(result.outputs[0], expected_sum(updates));
  EXPECT_EQ(drops, 3);

  // Each round: every timer fires, worker 2's retransmission is lost again
  // (twice), and the switch ignores the other two as duplicates.
  Walk expected{"w0 send", "w1 send", "w2 send", "w2 drop_loss sw"};
  for (int round = 0; round < 3; ++round) {
    for (const char* w : {"w0", "w1", "w2"}) {
      expected.push_back(std::string(w) + " timeout");
      expected.push_back(std::string(w) + " retransmit");
    }
    if (round < 2) expected.push_back("w2 drop_loss sw");
    expected.insert(expected.end(), {"sw dup_update w0", "sw dup_update w1"});
  }
  expected.insert(expected.end(), {"sw complete", "w0 recv", "w1 recv", "w2 recv"});
  EXPECT_EQ(walk(), expected);

  // The timer doubles after each timeout: it fires 1, 3 and 7 ms in.
  std::vector<Time> timeouts;
  for (const trace::Event& e : sink_.events())
    if (e.node == 2 && std::string_view(e.name) == "timeout" &&
        e.a1.value == static_cast<std::int64_t>(kOff))
      timeouts.push_back(e.ts);
  EXPECT_EQ(timeouts, (std::vector<Time>{msec(1), msec(3), msec(7)}));
}

} // namespace
} // namespace switchml::core
