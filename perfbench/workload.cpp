// One workload of the wall-clock benchmark, run in its own single-threaded
// process against the unmodified simulator libraries.
//
//   perfbench_workload --workload NAME --seed N --reductions R
//                      [--trace SPANS.jsonl] [--corrupt]
//
// The process builds the workload's fabric, then runs R reductions back to
// back on it: a closed loop with one caller. It builds the fabric
// kSetups - 1 more times between the reductions to time the set-up, and
// times a fixed calibration before each reduction to follow the host's speed.
// Every call into a layer's public API is timed from here with
// std::chrono::steady_clock; nothing inside the program is instrumented.
// With --trace it also keeps spans in memory and writes them to SPANS.jsonl
// at the end, samples the engine's queue from a daemon timer, and runs the
// per-layer probes. --corrupt flips one output element of the first
// data-mode reduction, to show that the output check catches it.
//
// Prints one JSON object on stdout; perfbench/run.py turns it into metrics.
// Exit status: 0 when every check passed, 1 when a reduction failed a check,
// 2 on a usage error, 3 when the run could not finish.

#include <sys/resource.h>
#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "collectives/baseline_cluster.hpp"
#include "collectives/ring.hpp"
#include "common/attribution.hpp"
#include "common/histogram.hpp"
#include "common/int_telemetry.hpp"
#include "common/json.hpp"
#include "common/tracing.hpp"
#include "core/cluster.hpp"
#include "core/profiles.hpp"
#include "dataplane/pipeline.hpp"
#include "net/l2switch.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/reliable.hpp"

namespace {

using namespace switchml;
using Clock = std::chrono::steady_clock;

std::int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- workloads ----------------------------------------------------------------

enum class Kind { kRackTiming, kRing, kRackData };

struct Workload {
  const char* name;
  Kind kind;
  BitsPerSecond rate;
  int hosts;
  std::uint64_t elems; // elements per reduction (int32 or float)
  double loss;         // Bernoulli loss on every link, both directions
  int calibration_units; // run before each reduction: about a fifth of its time
};

// The reasons for each choice are in perfbench/README.md.
const Workload kWorkloads[] = {
    {"rack-timing-100g", Kind::kRackTiming, gbps(100), 8, 1u << 20, 0.0, 30},
    {"ring-timing-100g", Kind::kRing, gbps(100), 8, 1u << 20, 0.0, 5}, // 4 MiB of float
    {"rack-data-lossy-10g", Kind::kRackData, gbps(10), 8, 1u << 18, 1e-3, 18},
};

// Only the lossy workload draws random numbers, so only it takes the seed;
// the two no-loss workloads run the same simulation for every seed.
core::FabricConfig fabric_config(const Workload& w, std::uint64_t seed) {
  core::ClusterConfig c = core::ClusterConfig::for_rate(w.rate, w.hosts);
  c.timing_only = w.kind != Kind::kRackData;
  c.loss_prob = w.loss;
  if (w.kind == Kind::kRackData) c.seed = seed;
  return c.fabric();
}

core::BaselineProfile ring_profile(const Workload& w) { return core::nccl_tcp(w.rate); }

collectives::BaselineClusterConfig baseline_config(const Workload& w) {
  const core::BaselineProfile p = ring_profile(w);
  collectives::BaselineClusterConfig c;
  c.n_hosts = w.hosts;
  c.link_rate = w.rate;
  c.loss_prob = w.loss;
  c.nic = p.nic;
  return c;
}

// --- spans --------------------------------------------------------------------

// Spans of one traced run: name, start, end and parent, kept in memory and
// written out as JSON lines when the run ends. Disabled, it records nothing.
class SpanLog {
public:
  SpanLog(bool on, std::string run_id) : on_(on), run_id_(std::move(run_id)) {
    if (on_) spans_.reserve(1024);
  }

  // Opens a span under `parent` (-1 for the root); returns its id.
  int open(const char* name, int parent) {
    if (!on_) return -1;
    spans_.push_back({name, parent, ns_since(t0_), -1});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = ns_since(t0_);
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      json::Value line(json::Object{});
      line.set("run", run_id_);
      line.set("id", static_cast<std::int64_t>(i));
      line.set("parent", s.parent);
      line.set("name", s.name);
      line.set("start_ns", s.start_ns);
      line.set("end_ns", s.end_ns);
      out << line.dump() << '\n';
    }
    if (!out) throw std::runtime_error("cannot write spans to " + path);
  }

private:
  struct Span {
    const char* name;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  bool on_;
  std::string run_id_;
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

class ScopedSpan {
public:
  ScopedSpan(SpanLog& log, const char* name, int parent) : log_(log), id_(log.open(name, parent)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
  SpanLog& log_;
  int id_;
};

// --- engine sampler (traced runs only) ----------------------------------------

// A daemon timer that records the maxima of the event queue's size and of its
// inert keys (cancelled timers). It re-arms only while the simulation has live
// work, so run() still drains. It is kept out of untraced runs: the tick after
// the last live event advances the clock, which moves TATs that are read as
// "now minus start" after the queue drains (RingAllReduce::run).
class EngineSampler {
public:
  explicit EngineSampler(sim::Simulation& sim) : sim_(sim) {}
  EngineSampler(const EngineSampler&) = delete;
  EngineSampler& operator=(const EngineSampler&) = delete;

  // Call before each reduction.
  void arm() { sim_.schedule_daemon_timer(kPeriod, [this] { tick(); }); }

  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }
  [[nodiscard]] std::uint64_t peak_queue() const { return peak_queue_; }
  [[nodiscard]] std::uint64_t peak_cancelled() const { return peak_cancelled_; }

private:
  static constexpr Time kPeriod = usec(1);

  void tick() {
    ++ticks_;
    const std::uint64_t pending = sim_.pending_events();
    const std::uint64_t live = sim_.live_pending_events();
    peak_queue_ = std::max(peak_queue_, pending);
    peak_cancelled_ = std::max(peak_cancelled_, pending - live);
    if (live > 0) arm();
  }

  sim::Simulation& sim_;
  std::uint64_t ticks_ = 0;
  std::uint64_t peak_queue_ = 0;
  std::uint64_t peak_cancelled_ = 0;
};

// --- host-speed calibration ---------------------------------------------------

// Other guests on a shared host slow this one down, by up to 1.7x and in
// streaks of seconds to minutes: some through the cores they share, some
// through the cache and memory. A calibration unit is a fixed piece of work
// that uses nothing from src/ and meets both kinds of slowdown, each for about
// half its time: it churns a min-heap of keys that fits in L2, pop-min/push as
// a timer queue does, and makes dependent loads around a random cycle through
// 8 MiB. Units run on the workload's CPU just before each reduction, so their
// time follows the host's speed through the run; run.py divides it out of the
// reductions' wall time.
class Calibration {
public:
  Calibration() : cycle_(kCycle), heap_(kKeys) {
    // Sattolo's shuffle leaves one cycle through every entry.
    for (std::uint32_t i = 0; i < kCycle; ++i) cycle_[i] = i;
    for (std::uint32_t i = kCycle - 1; i > 0; --i) std::swap(cycle_[i], cycle_[next() % i]);
    for (std::uint64_t& key : heap_) key = next() >> 16;
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  // Runs `units` units; returns their wall nanoseconds. Both arrays are
  // flushed from the caches first, so that every call starts from memory
  // whatever the reduction before it left there: otherwise a change to the
  // program's memory use would move the calibration too (by up to 1.4x).
  std::int64_t run(int units) {
    flush(cycle_);
    flush(heap_);
    const auto t0 = Clock::now();
    for (int i = 0; i < units * kChurn; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      heap_.back() += 1 + (next() & 0xffff);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
    for (int i = 0; i < units * kChase; ++i) at_ = cycle_[at_];
    const std::int64_t ns = ns_since(t0);
    checksum_ += at_ + heap_.front();
    return ns;
  }

  // Printed, so that the compiler keeps the work.
  [[nodiscard]] std::uint64_t checksum() const { return checksum_; }

private:
  static constexpr std::uint32_t kCycle = 1u << 21; // 8 MiB of uint32
  static constexpr std::size_t kKeys = 1u << 15;    // 256 KiB of uint64
  static constexpr int kChurn = 40960; // about 2.0 ms on the tuning host
  static constexpr int kChase = 20480; // about 2.3 ms

  template <typename T>
  static void flush(const std::vector<T>& v) {
#if defined(__x86_64__) || defined(__i386__)
    const auto* bytes = reinterpret_cast<const char*>(v.data());
    for (std::size_t at = 0; at < v.size() * sizeof(T); at += 64) _mm_clflush(bytes + at);
    _mm_mfence();
#endif
  }

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  std::uint64_t state_ = 0x5eed;
  std::vector<std::uint32_t> cycle_;
  std::vector<std::uint64_t> heap_;
  std::uint32_t at_ = 0;
  std::uint64_t checksum_ = 0;
};

// Resident KiB of this process.
std::int64_t resident_kib() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * sysconf(_SC_PAGESIZE) / 1024;
}

// --- reductions ---------------------------------------------------------------

struct Reduction {
  std::int64_t calibration_ns = 0; // the units run just before it
  std::int64_t wall_ns = 0;
  std::vector<Time> tat; // one per worker; the ring returns one for all hosts
  std::string failure;   // empty when every check passed
};

// Every worker returned a positive TAT.
std::string check_tats(const std::vector<Time>& tat, std::size_t expected) {
  if (tat.size() != expected)
    return "returned " + std::to_string(tat.size()) + " TATs for " + std::to_string(expected) +
           " workers";
  for (Time t : tat)
    if (t <= 0) return "non-positive TAT " + std::to_string(t);
  return {};
}

// No worker declared the switch dead and the fabric never degraded to the
// streaming-PS fallback.
std::string check_recovery(core::Fabric& f) {
  if (f.fallback_engaged()) return "streaming-PS fallback engaged";
  for (int i = 0; i < f.n_workers(); ++i)
    if (f.worker(i).recovery().dead_declared != 0)
      return "worker " + std::to_string(i) + " declared the switch dead";
  return {};
}

// Inputs of the data-mode workload, drawn from the seed with splitmix64, and
// the wrapping int32 sum every worker must receive bit-exactly.
struct DataInputs {
  std::vector<std::vector<std::int32_t>> updates;
  std::vector<std::int32_t> expected;
};

DataInputs make_inputs(int workers, std::uint64_t elems, std::uint64_t seed) {
  std::uint64_t state = seed;
  auto next = [&state] {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  DataInputs in;
  in.updates.assign(static_cast<std::size_t>(workers), std::vector<std::int32_t>(elems));
  std::vector<std::uint32_t> sum(elems, 0);
  for (auto& u : in.updates)
    for (std::uint64_t j = 0; j < elems; ++j) {
      const auto v = static_cast<std::uint32_t>(next());
      u[j] = static_cast<std::int32_t>(v);
      sum[j] += v;
    }
  in.expected.assign(sum.begin(), sum.end());
  return in;
}

std::string check_outputs(const std::vector<std::vector<std::int32_t>>& outputs,
                          const std::vector<std::int32_t>& expected) {
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    const auto& o = outputs[i];
    if (o.size() != expected.size())
      return "worker " + std::to_string(i) + " output has " + std::to_string(o.size()) +
             " elements";
    if (std::memcmp(o.data(), expected.data(), o.size() * sizeof(std::int32_t)) != 0) {
      const auto at = std::mismatch(o.begin(), o.end(), expected.begin()).first - o.begin();
      return "worker " + std::to_string(i) + " output differs at element " + std::to_string(at);
    }
  }
  return {};
}

// --- per-layer counts ---------------------------------------------------------

using Counts = std::map<std::string, std::uint64_t>;

// Every layer's counts; the layers a workload bypasses read zero.
Counts zero_counts() {
  Counts c;
  for (const char* name :
       {"sim.events", "net.link.packets", "net.link.drops", "net.reliable.segments",
        "net.reliable.retransmissions", "net.reliable.timeouts", "worker.updates_sent",
        "worker.retransmissions", "worker.timeouts", "worker.duplicate_results",
        "worker.results_received", "worker.rtt_samples_held", "switchml_switch.updates",
        "switchml_switch.duplicates", "switchml_switch.completions",
        "switchml_switch.unicast_replies", "dataplane.register_accesses", "dataplane.packets"})
    c[name] = 0;
  return c;
}

void add_link(Counts& c, const net::Link& link, const net::Node& a, const net::Node& b) {
  for (const net::Node* from : {&a, &b}) {
    const auto& k = link.counters_from(*from);
    c.at("net.link.packets") += k.tx_packets;
    c.at("net.link.drops") += k.dropped_queue + k.dropped_loss + k.dropped_down + k.dropped_burst;
  }
}

Counts rack_counts(core::Fabric& f) {
  Counts c = zero_counts();
  for (int i = 0; i < f.n_workers(); ++i) {
    const worker::Worker& w = f.worker(i);
    add_link(c, f.link(static_cast<std::size_t>(i)), w, f.root());
    const auto& k = w.counters();
    c.at("worker.updates_sent") += k.updates_sent;
    c.at("worker.retransmissions") += k.retransmissions;
    c.at("worker.timeouts") += k.timeouts;
    c.at("worker.duplicate_results") += k.duplicate_results;
    c.at("worker.results_received") += k.results_received;
    c.at("worker.rtt_samples_held") += w.rtt().samples().size();
  }
  const auto& s = f.root().counters();
  c.at("switchml_switch.updates") = s.updates_received;
  c.at("switchml_switch.duplicates") = s.duplicate_updates;
  c.at("switchml_switch.completions") = s.completions;
  c.at("switchml_switch.unicast_replies") = s.unicast_replies;
  c.at("dataplane.register_accesses") = f.root().pipeline().register_accesses();
  c.at("dataplane.packets") = f.root().pipeline().packets_processed();
  return c;
}

Counts ring_counts(collectives::BaselineCluster& b) {
  Counts c = zero_counts();
  for (int i = 0; i < b.n_hosts(); ++i) {
    const net::TransportHost& h = b.host(i);
    const int port = b.fabric().port_of(h.id());
    add_link(c, *b.fabric().link_at(port), h, b.fabric());
    const auto& k = h.transport_counters();
    c.at("net.reliable.segments") += k.segments_sent;
    c.at("net.reliable.retransmissions") += k.retransmissions;
    c.at("net.reliable.timeouts") += k.timeouts;
  }
  return c;
}

// --- probes (traced runs only) ------------------------------------------------

// Median over `rounds` of the wall nanoseconds per operation of `round`.
template <typename F>
double probe_ns_per_op(int rounds, std::uint64_t ops, F&& round) {
  std::vector<double> per_op;
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = Clock::now();
    round();
    per_op.push_back(static_cast<double>(ns_since(t0)) / static_cast<double>(ops));
  }
  return median(per_op);
}

constexpr int kProbeRounds = 7;

class SinkNode final : public net::Node {
public:
  using net::Node::Node;
  void receive(net::Packet&&, int) override { ++received; }
  std::uint64_t received = 0;
};

// The packet each workload puts on its links most: a SwitchML update (with
// its 32 values in data mode) or a full reliable-transport segment.
net::Packet packet_shape(const Workload& w) {
  net::Packet p;
  if (w.kind == Kind::kRing) {
    p.kind = net::PacketKind::Segment;
    p.seg_len = static_cast<std::uint32_t>(ring_profile(w).transport.mss);
  } else {
    p.kind = net::PacketKind::SmlUpdate;
    p.elem_count = net::kDefaultElemsPerPacket;
    if (w.kind == Kind::kRackData) p.values.assign(p.elem_count, 0x5a5a5a5a);
  }
  return p;
}

// Link::send_from plus delivery through Simulation::run between two sinks.
double probe_link(const Workload& w) {
  constexpr std::uint64_t kPackets = 1 << 16;
  constexpr std::uint64_t kBatch = 64; // packets queued per run() call
  sim::Simulation sim;
  SinkNode a(sim, 1, "probe-a");
  SinkNode b(sim, 2, "probe-b");
  net::LinkConfig lc;
  lc.rate = w.rate;
  net::Link link(sim, lc, a, 0, b, 0, /*seed=*/1);
  const net::Packet shape = packet_shape(w);
  const double ns = probe_ns_per_op(kProbeRounds, kPackets, [&] {
    for (std::uint64_t i = 0; i < kPackets; i += kBatch) {
      for (std::uint64_t j = 0; j < kBatch; ++j) link.send_from(a, net::Packet(shape));
      sim.run();
    }
  });
  if (b.received != kProbeRounds * kPackets)
    throw std::runtime_error("link probe delivered " + std::to_string(b.received) + " packets");
  return ns;
}

// Packet::seal() followed by verify(), as a sender and a receiver do.
double probe_checksum(const Workload& w) {
  constexpr std::uint64_t kPackets = 1 << 16;
  net::Packet p = packet_shape(w);
  std::uint64_t rejected = 0;
  const double ns = probe_ns_per_op(kProbeRounds, kPackets, [&] {
    for (std::uint64_t i = 0; i < kPackets; ++i) {
      p.off = i;
      p.seal();
      rejected += p.verify() ? 0 : 1;
    }
  });
  if (rejected != 0) throw std::runtime_error("checksum probe rejected a sealed packet");
  return ns;
}

// RegisterArray::rmw through a Pipeline, laid out like the switch's value
// registers: 32 arrays over stages 2..11, one access each per packet.
double probe_dataplane() {
  constexpr int kArrays = 32;
  constexpr std::size_t kSlots = 512;
  constexpr std::uint64_t kPacketsPerRound = 1 << 15;
  dp::Pipeline pipeline(12);
  std::vector<std::unique_ptr<dp::RegisterArray>> pool;
  for (int j = 0; j < kArrays; ++j)
    pool.push_back(std::make_unique<dp::RegisterArray>(pipeline, "pool" + std::to_string(j),
                                                       2 + j * 10 / kArrays, kSlots));
  const double ns = probe_ns_per_op(kProbeRounds, kPacketsPerRound * kArrays, [&] {
    for (std::uint64_t pkt = 0; pkt < kPacketsPerRound; ++pkt) {
      pipeline.begin_packet();
      const std::int32_t v = static_cast<std::int32_t>(pkt & 0xff);
      for (auto& reg : pool)
        reg->rmw(pkt % kSlots, [v](std::uint64_t word) {
          const auto sum = static_cast<std::uint32_t>(dp::half_as_i32(word, 0)) +
                           static_cast<std::uint32_t>(v);
          return dp::half_store_i32(word, 0, static_cast<std::int32_t>(sum));
        });
    }
  });
  // Every round added sum(pkt & 0xff) over its packets to each array.
  std::uint32_t expected = 0;
  for (std::uint64_t pkt = 0; pkt < kPacketsPerRound; ++pkt)
    expected += static_cast<std::uint32_t>(pkt & 0xff);
  expected *= kProbeRounds;
  std::uint32_t total = 0;
  for (std::size_t idx = 0; idx < kSlots; ++idx) {
    pipeline.begin_packet();
    total += static_cast<std::uint32_t>(dp::half_as_i32(pool.back()->read(idx), 0));
  }
  if (total != expected) throw std::runtime_error("dataplane probe lost an update");
  return ns;
}

// --- the run ------------------------------------------------------------------

// Fabric builds per process: the one the reductions run on, then 200 more
// spread evenly between the reductions, so that one slow stretch of the host
// cannot set the set-up time alone.
constexpr int kSetups = 201;

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 42;
  int reductions = 0;
  std::optional<std::string> spans_path;
  bool corrupt = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_workload: %s\n"
               "usage: perfbench_workload --workload NAME --seed N --reductions R "
               "[--trace SPANS.jsonl] [--corrupt]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(flag + " needs a value");
      return argv[++i];
    };
    auto count = [&]() -> long long {
      const std::string v = value();
      try {
        std::size_t used = 0;
        const long long n = std::stoll(v, &used);
        if (used == v.size() && n >= 0) return n;
      } catch (const std::exception&) {
      }
      usage(flag + " needs a non-negative integer, got '" + v + "'");
    };
    if (flag == "--workload") {
      const std::string name = value();
      for (const Workload& w : kWorkloads)
        if (name == w.name) a.workload = &w;
      if (a.workload == nullptr) usage("unknown workload '" + name + "'");
    } else if (flag == "--seed") {
      a.seed = static_cast<std::uint64_t>(count());
    } else if (flag == "--reductions") {
      a.reductions = static_cast<int>(std::min(count(), 100000LL));
    } else if (flag == "--trace") {
      a.spans_path = value();
    } else if (flag == "--corrupt") {
      a.corrupt = true;
    } else {
      usage("unknown argument '" + flag + "'");
    }
  }
  if (a.workload == nullptr) usage("--workload is required");
  if (a.reductions < 1) usage("--reductions must be at least 1");
  return a;
}

json::Value provenance() {
  json::Value p(json::Object{});
#ifdef __clang__
  p.set("compiler", "clang " __clang_version__);
#else
  p.set("compiler", "gcc " __VERSION__);
#endif
  p.set("build_type", PERFBENCH_BUILD_TYPE);
  p.set("cxx_flags", PERFBENCH_CXX_FLAGS);
  json::Value gates(json::Object{});
  gates.set("attr::kCompiledIn", attr::kCompiledIn);
  gates.set("inttel::kCompiledIn", inttel::kCompiledIn);
  gates.set("net::kDefaultTransport",
            net::kDefaultTransport == net::TransportKind::kUdp ? "udp" : "rdma_uc");
  gates.set("kHistogramsCompiledIn", kHistogramsCompiledIn);
  gates.set("trace::kCompiledMask", static_cast<std::int64_t>(trace::kCompiledMask));
  p.set("gates", std::move(gates));
  return p;
}

json::Value to_json(const std::vector<double>& v) {
  json::Array a;
  for (double x : v) a.emplace_back(x);
  return a;
}

// Wall seconds of a layer's builds: `setup_s` from workload start until the
// fabric is ready (config built, fabric constructed), `build_s` the
// constructor alone.
struct BuildTimes {
  std::vector<double> setup_s;
  std::vector<double> build_s;
};

template <typename Fabric, typename MakeConfig>
std::unique_ptr<Fabric> timed_build(SpanLog& spans, const char* span, int parent,
                                    MakeConfig make_config, BuildTimes& times) {
  ScopedSpan s(spans, span, parent);
  const auto t0 = Clock::now();
  const auto cfg = make_config();
  const auto t1 = Clock::now();
  auto fabric = std::make_unique<Fabric>(cfg);
  times.setup_s.push_back(static_cast<double>(ns_since(t0)) * 1e-9);
  times.build_s.push_back(static_cast<double>(ns_since(t1)) * 1e-9);
  return fabric;
}

json::Value to_json(const BuildTimes& t) {
  json::Value v(json::Object{});
  v.set("setup_s", to_json(t.setup_s));
  v.set("build_s", to_json(t.build_s));
  return v;
}

int run(const Args& args) {
  const Workload& w = *args.workload;
  const bool traced = args.spans_path.has_value();
  const std::string run_id = std::string(w.name) + "-seed" + std::to_string(args.seed) + "-" +
                             std::to_string(std::chrono::system_clock::now().time_since_epoch() /
                                            std::chrono::microseconds(1));
  // Built before anything is timed. Its memory stays resident for the whole
  // run, so run.py takes it off the peak.
  const std::int64_t rss_before = resident_kib();
  Calibration calibration;
  const std::int64_t calibration_rss_kib = resident_kib() - rss_before;
  SpanLog spans(traced, run_id);
  const int root = spans.open("run", -1);
  const bool rack = w.kind != Kind::kRing;

  // The fabric the reductions run on is built first, the other kSetups - 1
  // between the reductions. A traced run also
  // builds the layer its workload does not use, at the workload's rate and
  // size, so that both build metrics are measured on every workload.
  BuildTimes core_builds, collectives_builds;
  auto build_core = [&](const char* span) {
    return timed_build<core::Fabric>(spans, span, root,
                                     [&] { return fabric_config(w, args.seed); }, core_builds);
  };
  auto build_collectives = [&](const char* span) {
    return timed_build<collectives::BaselineCluster>(
        spans, span, root, [&] { return baseline_config(w); }, collectives_builds);
  };
  auto build_between = [&](int r) {
    const std::int64_t rest = kSetups - 1;
    const std::int64_t n = rest * (r + 1) / args.reductions - rest * r / args.reductions;
    for (std::int64_t i = 0; i < n; ++i) {
      if (rack || traced) build_core(rack ? "core.build" : "probe.core.build");
      if (!rack || traced) build_collectives(rack ? "probe.collectives.build" : "collectives.build");
    }
  };
  std::unique_ptr<core::Fabric> fabric;
  std::unique_ptr<collectives::BaselineCluster> cluster;
  if (rack)
    fabric = build_core("core.build");
  else
    cluster = build_collectives("collectives.build");

  DataInputs inputs;
  if (w.kind == Kind::kRackData) {
    ScopedSpan s(spans, "bench.inputs", root);
    inputs = make_inputs(w.hosts, w.elems, args.seed);
  }

  sim::Simulation& sim = rack ? fabric->simulation() : cluster->simulation();
  std::optional<EngineSampler> sampler;
  if (traced) sampler.emplace(sim);
  std::optional<collectives::RingAllReduce> ring;
  if (!rack) ring.emplace(*cluster, ring_profile(w).transport);

  const std::uint64_t events_before = sim.events_executed();
  std::vector<Reduction> reductions(static_cast<std::size_t>(args.reductions));
  for (int r = 0; r < args.reductions; ++r) {
    Reduction& red = reductions[static_cast<std::size_t>(r)];
    {
      ScopedSpan s(spans, "bench.calibration", root);
      red.calibration_ns = calibration.run(w.calibration_units);
    }
    if (sampler) sampler->arm();
    std::optional<core::Fabric::DataReduceResult> data;
    {
      ScopedSpan s(spans, rack ? "core.reduce" : "collectives.ring_run", root);
      const auto t0 = Clock::now();
      try {
        switch (w.kind) {
          case Kind::kRackTiming:
            red.tat = fabric->reduce_timing(w.elems);
            break;
          case Kind::kRing:
            red.tat = {ring->run(static_cast<std::int64_t>(w.elems * sizeof(float)))};
            break;
          case Kind::kRackData:
            data = fabric->reduce_i32(inputs.updates);
            break;
        }
      } catch (const std::exception& e) {
        red.failure = std::string("threw: ") + e.what();
      }
      red.wall_ns = ns_since(t0);
    }
    {
      ScopedSpan s(spans, "bench.check", root);
      if (data) {
        red.tat = data->tat;
        if (args.corrupt && r == 0 && !data->outputs.empty() && !data->outputs[0].empty())
          data->outputs[0][data->outputs[0].size() / 2] ^= 1;
        if (red.failure.empty()) red.failure = check_outputs(data->outputs, inputs.expected);
      }
      if (red.failure.empty())
        red.failure = check_tats(red.tat, rack ? static_cast<std::size_t>(w.hosts) : 1);
      if (red.failure.empty() && rack) red.failure = check_recovery(*fabric);
    }
    build_between(r);
  }
  const std::uint64_t sampler_ticks = sampler ? sampler->ticks() : 0;
  Counts counts = rack ? rack_counts(*fabric) : ring_counts(*cluster);
  counts.at("sim.events") = sim.events_executed() - events_before - sampler_ticks;

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const std::int64_t peak_rss_kib = usage.ru_maxrss;

  json::Value probes(json::Object{});
  if (traced) {
    {
      ScopedSpan s(spans, "probe.net.link", root);
      probes.set("net.link.send_ns", probe_link(w));
    }
    {
      ScopedSpan s(spans, "probe.net.packet", root);
      probes.set("net.packet.checksum_ns", probe_checksum(w));
    }
    {
      ScopedSpan s(spans, "probe.dataplane", root);
      probes.set("dataplane.rmw_ns", probe_dataplane());
    }
    probes.set("sim.peak_queue", static_cast<std::int64_t>(sampler->peak_queue()));
    probes.set("sim.peak_cancelled", static_cast<std::int64_t>(sampler->peak_cancelled()));
    probes.set("sampler_ticks", static_cast<std::int64_t>(sampler_ticks));
  }
  spans.close(root);
  if (traced) spans.write(*args.spans_path);

  json::Value out(json::Object{});
  out.set("workload", w.name);
  out.set("seed", static_cast<std::int64_t>(args.seed));
  out.set("run_id", run_id);
  out.set("traced", traced);
  out.set("elems_per_reduction", static_cast<std::int64_t>(w.elems));
  out.set("setups", static_cast<std::int64_t>(kSetups));
  json::Value builds(json::Object{});
  builds.set("core", to_json(core_builds));
  builds.set("collectives", to_json(collectives_builds));
  out.set("builds", std::move(builds));
  json::Array wall, calibration_ns, tats, failures;
  std::int64_t failed = 0;
  for (std::size_t r = 0; r < reductions.size(); ++r) {
    const Reduction& red = reductions[r];
    wall.emplace_back(red.wall_ns);
    calibration_ns.emplace_back(red.calibration_ns);
    json::Array t;
    for (Time x : red.tat) t.emplace_back(static_cast<std::int64_t>(x));
    tats.emplace_back(std::move(t));
    if (!red.failure.empty()) {
      ++failed;
      json::Value f(json::Object{});
      f.set("reduction", static_cast<std::int64_t>(r));
      f.set("reason", red.failure);
      failures.push_back(std::move(f));
    }
  }
  out.set("attempted", static_cast<std::int64_t>(reductions.size()));
  out.set("failed", failed);
  out.set("failures", std::move(failures));
  out.set("wall_ns", std::move(wall));
  json::Value cal(json::Object{});
  cal.set("units_per_reduction", static_cast<std::int64_t>(w.calibration_units));
  cal.set("ns", std::move(calibration_ns));
  cal.set("rss_kib", calibration_rss_kib);
  cal.set("checksum", static_cast<std::int64_t>(calibration.checksum() >> 1)); // fits int64
  out.set("calibration", std::move(cal));
  out.set("tat_ns", std::move(tats));
  json::Value c(json::Object{});
  for (const auto& [name, v] : counts) c.set(name, static_cast<std::int64_t>(v));
  out.set("counts", std::move(c));
  out.set("peak_rss_kib", peak_rss_kib);
  out.set("probes", std::move(probes));
  out.set("provenance", provenance());
  std::cout << out.dump() << std::endl;
  return failed == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workload: %s\n", e.what());
    return 3;
  }
}
