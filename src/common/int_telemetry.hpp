// In-band network telemetry (INT) with online fault localization.
//
// Every observability tier so far (MetricsRegistry, TraceSink, Histogram,
// SpanLedger) is god's-eye simulator-side instrumentation: no modeled
// endpoint can read it. INT closes that gap the way a Tofino deployment
// would — each hop on the data path (link egress, L2 pipeline, aggregation
// switch) pushes a fixed-size record onto the SwitchML packet itself, and the
// *receiving worker* parses the stack it was handed. The fabric can then
// diagnose from inside the very faults the FaultInjector injects from
// outside: a per-worker IntCollector turns stacks into per-hop histograms and
// gauges, and a fabric-level FaultLocalizer runs EWMA-baseline + threshold
// detection over the stream to emit verdicts — slow_link(hop),
// congested_hop(hop), straggler(worker), switch_restarted(epoch).
//
// Wire format. A stack is a 4-byte shim followed by hop records:
//
//   shim:   [0] 0xA7 magic  [1] version  [2] hop count  [3] flags (bit0 =
//           truncated: a hop wanted to push but the stack was at kMaxHops)
//   record: 32 bytes little-endian, layout in IntHopRecord below.
//
// Records carry the egress direction's *cumulative drop counter*: a dropped
// packet carries no telemetry, so — exactly as in real INT deployments —
// losses are localized from the counter deltas seen on the packets that
// survive, not from the packets that died.
//
// Cost model, mirroring the other tiers:
//   1. Compiled out (-DSWITCHML_INT=0): every stamping point constant-folds
//      to nothing; Packet keeps an empty vector and a zero byte.
//   2. Compiled in, mode off (the default): one byte compare per hop.
//   3. Phantom mode (kModePhantom): records are stamped and parsed but add
//      zero wire bytes — telemetry is provably passive; every guarded metric
//      is bit-identical to a mode-off run.
//   4. On-wire mode (kModeOnWire): the stack is honestly charged to wire
//      size, NIC byte costs, and MTU/frame accounting.
//
// INT draws no random numbers and schedules no events in any mode; modes 1-3
// cannot perturb simulation behavior at all, and mode 4 only through the
// honest wire bytes.
#pragma once

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.hpp"
#include "common/json.hpp"
#include "common/units.hpp"

namespace switchml::inttel {

// Compile-time kill switch. Building with -DSWITCHML_INT=0 removes every
// stamping/parsing point from the binary.
#ifndef SWITCHML_INT
#define SWITCHML_INT 1
#endif
inline constexpr bool kCompiledIn = SWITCHML_INT != 0;

// Packet::int_mode values (kept as a raw byte on the packet so net/ needs no
// enum include order).
inline constexpr std::uint8_t kModeOff = 0;
inline constexpr std::uint8_t kModePhantom = 1; // stamp + parse, zero wire bytes
inline constexpr std::uint8_t kModeOnWire = 2;  // stamp + parse, honest wire bytes

inline constexpr std::uint8_t kMagic = 0xA7;
inline constexpr std::uint8_t kVersion = 1;
inline constexpr std::uint32_t kShimBytes = 4;
inline constexpr std::uint32_t kRecordBytes = 32;
// INT hop limit, as in the INT spec: a stack never exceeds kMaxHops records;
// further hops set the shim's truncated flag instead of pushing.
inline constexpr std::uint32_t kMaxHops = 8;

inline constexpr std::uint8_t kShimFlagTruncated = 1u << 0;

// IntHopRecord.flags bits. A record is stamped by exactly one kind of hop.
inline constexpr std::uint16_t kHopFlagSwitch = 1u << 0; // aggregation switch record
inline constexpr std::uint16_t kHopFlagL2 = 1u << 1;     // plain L2 pipeline record

// One hop's telemetry. Fixed 32-byte little-endian wire layout:
//   u32 hop_id, u32 next_hop, u32 hop_latency_ns, u32 queue_bytes,
//   u16 queue_pkts, u16 flags, u32 drops, u32 pool_occupancy,
//   u16 fanin, u16 epoch
struct IntHopRecord {
  std::uint32_t hop_id = 0;         // egress node id (who stamped)
  std::uint32_t next_hop = 0;       // downstream peer node id (direction identity)
  std::uint32_t hop_latency_ns = 0; // ingress→egress latency at this hop (saturating)
  std::uint32_t queue_bytes = 0;    // egress queue depth at stamping time
  std::uint16_t queue_pkts = 0;     // ditto, in packets (saturating)
  std::uint16_t flags = 0;          // kHopFlag* bits
  std::uint32_t drops = 0;          // cumulative egress drops of this direction
  std::uint32_t pool_occupancy = 0; // switch only: slot phases in flight
  std::uint16_t fanin = 0;          // switch only: contributions in the slot
  std::uint16_t epoch = 0;          // switch only: dataplane epoch (mod 2^16)

  bool operator==(const IntHopRecord&) const = default;
};

// Appends `rec` to the encoded stack (creating the shim on first push).
// Returns false — and sets the shim's truncated flag — when the stack already
// holds kMaxHops records. A corrupt shim also returns false.
bool append_record(std::vector<std::uint8_t>& stack, const IntHopRecord& rec);

// Wire bytes the stack occupies in on-wire mode: shim + records, 0 if empty.
[[nodiscard]] inline std::uint32_t stack_wire_bytes(const std::vector<std::uint8_t>& stack) {
  return static_cast<std::uint32_t>(stack.size());
}

// Node id of the most recently pushed record; kNoHop when the stack holds no
// records. Lets a stamping site skip a hop that already stamped (the
// aggregation switch pushes its own record before L2 replication runs).
inline constexpr std::uint32_t kNoHop = 0xFFFFFFFFu;
[[nodiscard]] inline std::uint32_t last_hop_id(const std::vector<std::uint8_t>& stack) {
  if (stack.size() < kShimBytes + kRecordBytes) return kNoHop;
  const std::uint8_t* p = stack.data() + stack.size() - kRecordBytes;
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

struct ParsedStack {
  std::vector<IntHopRecord> hops;
  bool ok = false;        // magic/version/length all consistent
  bool truncated = false; // shim's truncated flag
};

// Decodes an encoded stack. Any inconsistency (bad magic/version, hop count
// not matching the byte length, trailing bytes) yields ok=false with no hops.
[[nodiscard]] ParsedStack parse_stack(const std::uint8_t* data, std::size_t size);
[[nodiscard]] inline ParsedStack parse_stack(const std::vector<std::uint8_t>& stack) {
  return parse_stack(stack.data(), stack.size());
}

// Identity of a hop as the collector keys it. A switch's own record and the
// link record of its egress port can share (hop_id, next_hop); `kind` keeps
// their series apart.
struct HopKey {
  enum Kind : std::uint8_t { kLink = 0, kSwitch = 1, kL2 = 2 };
  std::uint32_t hop_id = 0;
  std::uint32_t next_hop = 0;
  std::uint8_t kind = kLink;

  auto operator<=>(const HopKey&) const = default;
};

[[nodiscard]] inline HopKey key_of(const IntHopRecord& rec) {
  const std::uint8_t kind = (rec.flags & kHopFlagSwitch) ? HopKey::kSwitch
                            : (rec.flags & kHopFlagL2)   ? HopKey::kL2
                                                         : HopKey::kLink;
  return HopKey{rec.hop_id, rec.next_hop, kind};
}

class FaultLocalizer;

// Per-worker INT sink: parses received stacks into per-hop Histograms and
// gauges, and forwards every record (plus the host-residual latency) to the
// fabric's FaultLocalizer.
//
// Metric registration happens only for hops declared at construction time
// (declare_hop), into the ambient MetricsRegistry, under
// "<prefix><hop_name>." — so the registry never grows mid-run (the
// TimelineRecorder walks registration-order vectors every tick). Undeclared
// hops (deep-tree relays) still accumulate internally and still feed the
// localizer; they just publish no per-hop series.
class IntCollector {
public:
  // `prefix` is the metric namespace, e.g. "int.worker-0.". Registers the
  // collector's own counters into the ambient registry if one is installed.
  explicit IntCollector(std::string prefix);
  IntCollector(const IntCollector&) = delete;
  IntCollector& operator=(const IntCollector&) = delete;

  // Pre-declares a hop and registers its series ("<prefix><name>.hop_latency_ns"
  // histogram, ".queue_bytes"/".queue_pkts" gauges, ".drops" counter) in the
  // ambient MetricsRegistry. Call only at fabric build time.
  void declare_hop(const HopKey& key, const std::string& name);

  void set_localizer(FaultLocalizer* localizer) { localizer_ = localizer; }

  // Feeds one received stack. `rtt_ns` is the Karn-filtered round-trip sample
  // for the packet (-1 when the slot was retransmitted and no clean sample
  // exists); the collector derives the host residual rtt - sum(hop latencies)
  // — the time the packet spent outside any stamped hop, i.e. in the host/NIC
  // — and hands it to the localizer for straggler detection.
  void observe(std::uint32_t worker_node, const std::vector<std::uint8_t>& stack, Time now,
               std::int64_t rtt_ns);

  struct HopStats {
    HopKey key;
    std::string name; // declared name, or "" for discovered hops
    std::uint64_t samples = 0;
    std::int64_t latency_p50 = 0;
    std::int64_t latency_p99 = 0;
    double latency_mean = 0.0;
    std::int64_t queue_bytes = 0;
    std::int64_t queue_pkts = 0;
    std::uint64_t drops = 0; // latest cumulative counter seen
  };
  [[nodiscard]] std::vector<HopStats> hop_stats() const;

  [[nodiscard]] std::uint64_t records_parsed() const { return records_parsed_; }
  [[nodiscard]] std::uint64_t parse_errors() const { return parse_errors_; }
  [[nodiscard]] std::uint64_t truncated_stacks() const { return truncated_stacks_; }

private:
  struct HopState {
    std::string name;
    Histogram latency;
    std::int64_t queue_bytes = 0;
    std::int64_t queue_pkts = 0;
    std::uint64_t drops = 0;
    std::uint64_t samples = 0;
  };

  std::string prefix_;
  FaultLocalizer* localizer_ = nullptr;
  std::map<HopKey, HopState> hops_; // node-based: sampler closures keep stable pointers
  std::uint64_t records_parsed_ = 0;
  std::uint64_t parse_errors_ = 0;
  std::uint64_t truncated_stacks_ = 0;
};

// Online fault localization over the INT record stream. One instance per
// fabric, fed by every worker's collector. Detection is pure observation —
// verdicts are emitted as kCatFault trace events ("int_verdict"), exposed as
// counters, and exported as a JSON report block; nothing feeds back into the
// simulation.
//
// Rules (each fires at most once per (kind, subject)):
//   * switch_restarted(epoch): a switch record's epoch exceeds the last seen
//     value for that switch (baseline 0: a fresh dataplane).
//   * slow_link(hop) vs congested_hop(hop): the cumulative drop counter of a
//     link direction advanced. If the observation arrived after a silence gap
//     ≫ the hop's EWMA inter-observation gap, traffic was cut off — the link
//     flapped/went down (slow_link). If records kept flowing while drops
//     accrued, the hop is shedding load under pressure (congested_hop, e.g. a
//     Gilbert-Elliott burst or queue overflow). Subjects are canonicalized to
//     the undirected link so both directions dedup to one verdict.
//   * straggler(worker): the worker's EWMA host residual (rtt minus the sum
//     of stamped hop latencies — NIC/host time by construction) exceeds
//     ratio × the fleet median + floor for `residual_consecutive` samples.
class FaultLocalizer {
public:
  struct Config {
    // Drop rule: observations of a hop before verdicts may fire, EWMA weight
    // for inter-observation gaps, and the silence-gap classifier threshold
    // max(gap_factor × ewma, gap_floor).
    int hop_warmup = 8;
    double gap_alpha = 0.125;
    double gap_factor = 8.0;
    Time gap_floor = 50'000; // 50 us
    // Straggler rule: per-worker EWMA residual vs the fleet median.
    int residual_warmup = 16;
    double residual_alpha = 0.125;
    double residual_ratio = 3.0;
    std::int64_t residual_floor = 20'000; // 20 us
    int residual_consecutive = 4;
    std::size_t min_workers = 3; // fleet size needed for a meaningful median
  };

  struct Verdict {
    enum class Kind : std::uint8_t {
      kSlowLink = 0,
      kCongestedHop,
      kStraggler,
      kSwitchRestarted,
    };
    Kind kind;
    std::uint32_t a = 0;      // link endpoint (min) / worker / switch node id
    std::uint32_t b = 0;      // link endpoint (max); 0 otherwise
    std::uint64_t detail = 0; // drop delta / residual ns / new epoch
    Time at = 0;              // sim time the verdict fired
  };
  static constexpr std::size_t kKindCount = 4;
  [[nodiscard]] static const char* to_string(Verdict::Kind kind);

  // `name_of` renders node ids in subjects/JSON ("worker-0", "switch"); an
  // empty function prints "node-<id>". The default constructor uses the
  // default Config (defined out-of-line: GCC parses nested-class NSDMIs too
  // late for an in-class `Config{}` default argument).
  FaultLocalizer();
  explicit FaultLocalizer(Config config, std::function<std::string(std::uint32_t)> name_of = {});
  FaultLocalizer(const FaultLocalizer&) = delete;
  FaultLocalizer& operator=(const FaultLocalizer&) = delete;

  // Collector feed.
  void on_record(std::uint32_t observer, const HopKey& key, const IntHopRecord& rec, Time now);
  void on_residual(std::uint32_t worker_node, std::int64_t residual_ns, Time now);

  [[nodiscard]] const std::vector<Verdict>& verdicts() const { return verdicts_; }
  [[nodiscard]] std::uint64_t count(Verdict::Kind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }

  // Human-readable subject, e.g. "worker-0<->switch" (links), "worker-3"
  // (stragglers), "switch" (restarts).
  [[nodiscard]] std::string subject(const Verdict& v) const;

  // {"kind":"slow_link","subject":"...","a":..,"b":..,"detail":..,"at_ns":..}
  [[nodiscard]] json::Value to_json(const Verdict& v) const;

private:
  struct LinkState {
    bool init = false;
    std::uint64_t last_drops = 0;
    Time last_seen = 0;
    double gap_ewma = 0.0;
    bool gap_init = false;
    std::uint64_t obs = 0;
  };
  struct WorkerState {
    double ewma = 0.0;
    std::uint64_t samples = 0;
    int consecutive = 0;
    bool flagged = false;
  };

  void emit(Verdict::Kind kind, std::uint32_t a, std::uint32_t b, std::uint64_t detail, Time at);

  Config config_;
  std::function<std::string(std::uint32_t)> name_of_;
  std::map<HopKey, LinkState> links_;
  std::set<std::pair<std::uint32_t, std::uint32_t>> drop_flagged_;
  std::map<std::uint32_t, std::uint16_t> switch_epochs_;
  std::map<std::uint32_t, WorkerState> workers_;
  std::vector<Verdict> verdicts_;
  std::array<std::uint64_t, kKindCount> counts_{};
};

} // namespace switchml::inttel
