// The unified fabric layer: one config, one build path, one owner for every
// deployment shape the paper evaluates.
//
// `FabricParams` carries the link/NIC/protocol parameters every deployment
// shares; `TopologySpec` selects the shape (§1 rack star, §6 multi-job
// tenancy, §6 two-level hierarchy, §6 arbitrary-depth tree, an explicit
// `IrregularSpec`, or the §5.3 streaming parameter server). Every SwitchML
// shape is one single-rooted switch tree, so `lower_topology` turns each
// into an `IrregularSpec` plus a job id per worker, and `Fabric` wires that
// adjacency with one loop and one rule:
//   * a fabric with one switch names it `switch` (id 10000); with several,
//     switch i is `sw-<i>` (id 30000 + i);
//   * worker g is `worker-<g>`, or `j<j>-worker-<i>` on a multi-job fabric;
//     its link seed is seed + g, and it advertises its job's size;
//   * a switch uplink's seed is seed + 7000 + the child switch's id;
//   * link i is worker i's uplink for i < n_workers; the switch uplinks
//     follow in switch order;
//   * a switch's child ports are the child indices and its parent port is
//     one past them; job j's multicast group is 1 + j.
// The streaming-PS shape extends the rule: its plain L2 switch is `switch`
// (id 10000), worker g is `worker-<g>` on port g, and dedicated PS host j is
// `ps-<j>` (id 1000 + j) on port n + j with link seed seed + 500 + j; the
// PS uplinks follow the worker uplinks.
// Callers build every shape the same way, `Fabric f(FabricConfig(params,
// spec))`; core/cluster.hpp's ClusterConfig is the §3.6 rack profile that
// lowers to a RackSpec.
//
// Construction also installs a `MetricsRegistry` scope, so every worker,
// switch, and link built here registers its counters; `Fabric::metrics()`
// exposes the registry for tests and for the bench telemetry sidecars.
#pragma once

#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "common/metrics.hpp"
#include "common/stats.hpp"
#include "core/fault_plan.hpp"
#include "core/profiles.hpp"
#include "net/link.hpp"
#include "switchml_switch/aggregation_switch.hpp"
#include "worker/worker.hpp"

namespace switchml::core {

class FaultInjector;

// Link/NIC/protocol parameters shared by every topology. Fields that only one
// deployment exercises (e.g. `sram_budget_bytes` for tenancy, the ablation
// switches for the rack benches) still live here: they default to the values
// the other topologies always used, so setting them is opt-in.
struct FabricParams {
  BitsPerSecond link_rate = gbps(10);
  // Switch-to-switch links (hierarchy/tree). 0 means "same as link_rate".
  BitsPerSecond uplink_rate = 0;
  Time propagation = nsec(500);
  std::int64_t queue_limit_bytes = 16 * kMiB;
  double loss_prob = 0.0;

  std::uint32_t pool_size = 128;                                // s (§3.6)
  std::uint32_t elems_per_packet = net::kDefaultElemsPerPacket; // k
  std::uint8_t wire_elem_bytes = 4;
  Time retransmit_timeout = msec(1);
  bool adaptive_rto = false; // §6: RTT-adaptive RTO (Jacobson/Karels)
  net::NicConfig nic = switchml_worker_nic_10g();
  // Host transport for every worker and PS host: the DPDK/UDP
  // datapath or RDMA UC with the cost knobs in `rdma`. UC carries no
  // transport-level ACK/RTO — loss repair stays with the slot protocol.
  net::TransportKind transport = net::kDefaultTransport;
  net::RdmaUcParams rdma;
  // Switches without value registers (the SRAM fig2's largest pools lack):
  // only size-only reductions run, and values throw at the switch.
  bool timing_only = false;
  // In-band telemetry mode for every worker's data packets (inttel::kModeOff
  // / kModePhantom / kModeOnWire). Non-off builds a fabric-wide
  // FaultLocalizer fed by every worker's IntCollector.
  std::uint8_t int_mode = inttel::kModeOff;
  bool mtu_emulation = false; // §5.5: switch forwards elements beyond 32 as-is
  Time switch_latency = nsec(400);
  std::uint64_t seed = 42;
  bool ablate_shadow_copy = false; // see AggregationConfig
  bool ablate_seen_bitmap = false;
  int fp16_frac_bits = 12; // switch ingress/egress table position (§3.7)
  // §3.2: run literal Algorithms 1/2 for lossless fabrics (Infiniband /
  // lossless RoCE): no bitmaps, shadow copies or timers. Requires
  // loss_prob == 0.
  bool lossless = false;
  // §6 tenancy: dataplane SRAM available for aggregation state.
  std::size_t sram_budget_bytes = 4 * kMiB;
  // Recovery escalation budgets, in CONSECUTIVE timeouts of one slot (0
  // disables the stage; see WorkerConfig). After sync_after the worker rides
  // a slot-state probe on each retransmission — the probe detects a switch
  // restart that raced a lost result and drives the rescue re-contribution.
  // After dead_after the worker declares the switch dead and the job
  // degrades to the streaming-PS fallback collective.
  int sync_after = 3;
  int dead_after = 25;
  // Modeled delay between the dead declaration and the fallback collective
  // taking over (provisioning the n dedicated PS machines it replays on).
  Time fallback_reprovision = msec(50);
  // Deterministic fault schedule (stragglers, link flaps, loss bursts, switch
  // restarts, switch kills) executed by a FaultInjector the fabric constructs
  // when the plan is non-empty. See core/fault_plan.hpp for the time
  // semantics.
  FaultPlan faults;
};

// --- topology shapes ---------------------------------------------------------

// n workers on one switch (§1: the prototype's rack-scale deployment).
struct RackSpec {
  int n_workers = 8;
};

// Several independent jobs sharing one switch, each with its own admitted
// aggregator pool (§6 multi-tenancy). Workers of different jobs are distinct
// machines on their own ports, so jobs contend only for switch pipeline and
// SRAM. Job j's worker i is Fabric::worker(j * workers_per_job + i).
struct MultiJobSpec {
  int n_jobs = 2;
  int workers_per_job = 4;
};

// Two-level root + per-rack leaves (§6 hierarchical composition).
struct HierarchySpec {
  int racks = 2;
  int workers_per_rack = 8;
};

// Arbitrary-depth tree of switches (§6: "a very large n coupled with a
// relatively small p would require a hierarchy with H > 3"); levels == 2
// matches HierarchySpec's shape.
struct TreeSpec {
  int levels = 3;           // including the root
  int branching = 2;        // children per non-leaf switch
  int workers_per_rack = 4; // workers per bottom-level switch
};

// Explicit switch/worker adjacency: any single-rooted switch tree, no shape
// constraints beyond what the aggregation protocol needs. Scenario files use
// this for asymmetric fabrics (uneven racks, lopsided trees) that none of the
// parametric specs can describe.
//
// `switch_parent[i]` is the parent switch of switch i: entry 0 must be -1
// (the root), and every other entry must name an earlier switch
// (0 <= switch_parent[i] < i), which makes the adjacency an acyclic
// single-rooted tree by construction. `worker_switch[w]` attaches worker w to
// that switch. Two structural rules, both enforced by lower_topology:
//   * a switch's children are either all workers or all switches — the
//     aggregation protocol addresses worker children by `wid - wid_base` in
//     its seen bitmaps, so a switch cannot mix contribution kinds;
//   * `worker_switch` is non-decreasing, so each leaf switch's workers hold
//     CONSECUTIVE global ids and worker w in the file is Fabric::worker(w).
struct IrregularSpec {
  std::vector<int> switch_parent = {-1};
  std::vector<int> worker_switch = {0, 0};
};

// The §5.3 streaming parameter server: n workers and n PS shards around one
// plain L2 switch (no aggregation switch, so n_switches() is 0 and root()
// throws). Slot idx is served by shard idx % n: dedicated shard j runs on
// its own PS host, colocated shard i on worker i's host (collectives/
// streaming_ps.hpp). The workers run the SwitchML worker protocol with
// pool_size, elems_per_packet, retransmit_timeout, nic, transport and rdma
// from FabricParams; recovery escalation (sync_after,
// dead_after), INT, the fp16 wire, lossless mode and the adaptive RTO stay
// off, so a FaultPlan may not restart or kill a switch here.
enum class PsPlacement : std::uint8_t { Dedicated, Colocated };
struct StreamingPsSpec {
  int n_workers = 8; // 1..64: a shard's seen bitmaps are 64 bits
  PsPlacement placement = PsPlacement::Dedicated;
};

using TopologySpec = std::variant<RackSpec, MultiJobSpec, HierarchySpec, TreeSpec, IrregularSpec,
                                  StreamingPsSpec>;

// A switch-tree TopologySpec in adjacency form: the IrregularSpec that wires
// it and each worker's job (0 everywhere except on a MultiJobSpec, whose jobs
// share its one switch). Trees number their switches in preorder, so switch
// 0 is the root and a hierarchy's leaf r is switch 1 + r. Pure; throws
// std::invalid_argument on an invalid shape and on a StreamingPsSpec, which
// is not a switch tree.
struct LoweredTopology {
  IrregularSpec spec;
  std::vector<int> worker_job;
};
[[nodiscard]] LoweredTopology lower_topology(const TopologySpec& topology);

// Checks any shape without building it, with the messages the fabric
// throws (std::invalid_argument): a switch tree by lowering it, a streaming
// PS by its worker count.
void validate_topology(const TopologySpec& topology);

struct FabricConfig : FabricParams {
  TopologySpec topology = RackSpec{};

  FabricConfig() = default;
  FabricConfig(const FabricParams& params, TopologySpec topo)
      : FabricParams(params), topology(std::move(topo)) {}
};

// --- the fabric --------------------------------------------------------------

// Owns the simulation, the wired nodes/links of one deployment, and the
// metrics registry those components registered into.
class Fabric {
public:
  explicit Fabric(FabricConfig config);
  ~Fabric(); // out of line: FaultInjector is incomplete here
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  [[nodiscard]] sim::Simulation& simulation() { return sim_; }
  [[nodiscard]] const FabricConfig& config() const { return config_; }
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }

  [[nodiscard]] int n_workers() const { return static_cast<int>(workers_.size()); }
  [[nodiscard]] worker::Worker& worker(int i) { return *workers_.at(static_cast<std::size_t>(i)); }

  // Aggregation switches in lowered-spec order: [0] is the root (or the only
  // switch); a two-level hierarchy's leaf r is switch_at(1 + r). A
  // streaming-PS fabric has none.
  [[nodiscard]] std::size_t n_switches() const { return switches_.size(); }
  [[nodiscard]] swprog::AggregationSwitch& switch_at(std::size_t i) { return *switches_.at(i); }
  [[nodiscard]] swprog::AggregationSwitch& root();

  [[nodiscard]] std::size_t n_links() const { return links_.size(); }
  [[nodiscard]] net::Link& link(std::size_t i) { return *links_.at(i); }

  // Jobs sharing the fabric: 1 except for MultiJobSpec.
  [[nodiscard]] int n_jobs() const { return n_jobs_; }
  [[nodiscard]] int workers_per_job() const { return workers_per_job_; }

  // Sets the Bernoulli loss probability on every link, both directions
  // (the §5.5 loss experiments apply uniform loss "on every link").
  void set_loss_prob(double p);

  // The fault injector executing config().faults; null when the plan is empty.
  [[nodiscard]] FaultInjector* fault_injector() { return faults_.get(); }

  // The online fault localizer fed by every worker's INT collector; null
  // unless config().int_mode != off.
  [[nodiscard]] inttel::FaultLocalizer* int_localizer() { return int_localizer_.get(); }

  // True once any reduction on this fabric degraded to the streaming-PS
  // fallback (after a worker declared the switch dead).
  [[nodiscard]] bool fallback_engaged() const { return fallbacks_ > 0; }

  // Runs one size-only aggregation of `total_elems` elements on all workers
  // and returns each worker's tensor aggregation time (TAT, §5.1).
  std::vector<Time> reduce_timing(std::uint64_t total_elems);

  // Size-only reduction on EVERY job concurrently; per-job, per-worker TATs.
  std::vector<std::vector<Time>> reduce_timing_all(std::uint64_t total_elems);

  // Data-mode aggregation: updates[i] is worker i's quantized model update;
  // returns each worker's aggregated result and TAT. Throws
  // std::logic_error on a timing_only fabric.
  struct DataReduceResult {
    std::vector<std::vector<std::int32_t>> outputs;
    std::vector<Time> tat;
  };
  DataReduceResult reduce_i32(const std::vector<std::vector<std::int32_t>>& updates);

  // Data mode for one job's workers (other jobs idle).
  DataReduceResult reduce_i32_job(int job, const std::vector<std::vector<std::int32_t>>& updates);

private:
  // Wire the lowered topology, or the streaming-PS shape, by the rule in the
  // file comment.
  void build(const LoweredTopology& topology);
  void build(const StreamingPsSpec& spec);

  // The one reduce loop over workers [first, first + count): size-only when
  // `updates` is null. Runs the fallback after a switch-dead declaration.
  std::vector<Time> reduce(std::size_t first, std::size_t count, std::uint64_t total_elems,
                           const std::vector<std::vector<std::int32_t>>* updates,
                           std::vector<std::vector<std::int32_t>>* outputs);

  // --- switch-dead fallback (graceful degradation) ---------------------------
  // A worker exhausting its dead_after retry budget fires on_switch_dead(),
  // which aborts every worker's reduction so the simulation drains; the
  // reduce_* call then replays the union of unconsumed chunks on a dedicated
  // streaming-PS fabric with honest TAT inflation (drain + reprovision + PS
  // time). Bit-exact in data mode: int32 sums are order-independent.
  struct FallbackPlan {
    Time drained_at = 0;
    std::vector<std::uint64_t> offsets; // union of unconsumed chunk offsets
    std::uint64_t replay_elems = 0;
  };
  void install_recovery();
  void install_observability();
  void on_switch_dead();
  FallbackPlan collect_fallback_plan(std::uint64_t total_elems);
  // Replays the plan and patches every unfinished worker's TAT; in data mode
  // (`updates` non-null) it also scatters the replayed sums into `outputs`.
  void fallback(std::uint64_t total_elems, const std::vector<Time>& start, std::vector<Time>& tat,
                const std::vector<std::vector<std::int32_t>>* updates = nullptr,
                std::vector<std::vector<std::int32_t>>* outputs = nullptr);

  FabricConfig config_;
  MetricsRegistry metrics_;
  sim::Simulation sim_;
  std::vector<std::unique_ptr<swprog::AggregationSwitch>> switches_; // [0] = root
  std::vector<std::unique_ptr<worker::Worker>> workers_;
  // Streaming-PS shape only: its L2 switch, then the dedicated PS hosts.
  std::vector<std::unique_ptr<net::Node>> ps_nodes_;
  std::vector<std::unique_ptr<net::Link>> links_;
  std::unique_ptr<FaultInjector> faults_;
  std::unique_ptr<inttel::FaultLocalizer> int_localizer_;
  int n_jobs_ = 1;
  int workers_per_job_ = 0;
  bool fallback_pending_ = false;
  std::uint64_t fallbacks_ = 0;
  std::uint64_t fallback_replay_elems_ = 0;
};

} // namespace switchml::core
