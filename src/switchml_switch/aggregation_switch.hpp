// The SwitchML switch program: streaming in-network aggregation with packet
// loss recovery, expressed against the dataplane register model.
//
// This is a faithful implementation of the paper's Algorithm 3 (which
// degenerates to Algorithm 1 when no losses occur):
//
//  * a pool of s aggregation slots, each aggregating a vector of k integers;
//  * TWO versions of every slot (active + shadow copy) living in the two
//    32-bit halves of 64-bit registers, selected by the packet's single-bit
//    `ver` field;
//  * a per-slot `seen` bitmap (one bit per worker per version) so duplicate
//    transmissions are ignored, with the alternate version's bit cleared by
//    the same single register access;
//  * a per-slot mod-n counter; the count wrapping to 0 means the slot is
//    complete, upon which the traffic manager multicasts the result and the
//    slot is immediately reusable (the completed value stays behind as the
//    shadow copy until the next phase overwrites it);
//  * retransmissions of already-aggregated updates for a COMPLETE slot are
//    answered with a unicast copy of the result read from the shadow copy.
//
// Every packet makes one pipeline pass (Appendix B), written once: a shared
// lookup (job, slot, local worker index), then for an update the seen
// bitmap and the count, then one fold of the values into the pool, and on
// completion one step that sends the result on. A rescue is the same fold,
// never the first of its phase, and leaves the seen bitmap alone.
//
// Multi-tenancy (§6): every job gets its own pool of aggregators, admitted
// by the control plane against the dataplane SRAM budget. Packets select
// their job's pool with the `job` header field. Every job, job 0 included,
// goes through admit_job().
//
// The same class implements the paper's §6 hierarchical composition: a
// switch with a parent port is a LEAF. It forwards each completed partial
// aggregate upstream as a single update packet (acting as one "worker" of
// its parent), relays parent results downward as a multicast, and converts
// worker retransmissions into upstream retransmissions so a loss anywhere in
// the tree is always repaired. A switch without one multicasts its results
// to its children.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/histogram.hpp"
#include "dataplane/pipeline.hpp"
#include "net/l2switch.hpp"
#include "quant/float16.hpp"

namespace switchml::swprog {

// Elements the ASIC can aggregate per packet (§3.4); with mtu_emulation the
// rest of a packet passes through.
constexpr std::uint32_t kHwElemsLimit = 32;
// Match-action stages of one pipeline: the bitmap, the counter, then the
// value registers spread over the rest.
constexpr int kPipelineStages = 12;
static_assert(kPipelineStages > 2, "the value registers need stages after seen and count");

// Per-job admission parameters (§6 multi-tenancy).
struct JobParams {
  int n_workers = 8;             // contributors per slot (workers, or leaves at the root)
  std::uint32_t pool_size = 128; // s
  std::uint16_t wid_base = 0;    // first worker id of this job
  std::uint32_t multicast_group = 1; // downstream replication group
};

struct AggregationConfig {
  std::uint32_t elems_per_packet = net::kDefaultElemsPerPacket; // k
  // No value registers (protocol state still exact): an update that carries
  // values throws std::logic_error.
  bool timing_only = false;
  bool mtu_emulation = false;    // §5.5: aggregate first kHwElemsLimit, pass the rest through
  // §3.7 16-bit wire format: packets with elem_bytes == 2 carry raw binary16
  // patterns; the switch converts them to fixed point with `fp16_frac_bits`
  // fractional bits via lookup tables at ingress and back at egress.
  int fp16_frac_bits = 12;
  // Dataplane SRAM available for aggregation state; admission control
  // rejects jobs that would exceed it (§6: "an admission mechanism would be
  // needed to control the assignment of jobs to pools").
  std::size_t sram_budget_bytes = 4 * kMiB;
  // A switch with a parent port is a leaf of a hierarchy (-1: none).
  int parent_port = -1;
  std::uint16_t leaf_wid = 0; // this switch's worker id at its parent

  // Ablation switches (bench/ablation_protocol): disable the two pieces of
  // loss-recovery state Algorithm 3 adds over Algorithm 1, to demonstrate
  // why each is necessary.
  bool ablate_shadow_copy = false; // completed-slot retransmissions are dropped
  bool ablate_seen_bitmap = false; // duplicates re-aggregate (Algorithm 1 behavior)

  // §3.2: "a SwitchML instance running in a lossless network such as
  // Infiniband or lossless RoCE" — the literal Algorithm 1: single pool
  // version, no seen bitmaps, no shadow copies, (paired with workers that
  // run Algorithm 2: no retransmission timers). Uses roughly half the
  // dataplane SRAM of the loss-tolerant program.
  bool lossless = false;
};

class AggregationSwitch : public net::L2Switch {
public:
  AggregationSwitch(sim::Simulation& simulation, net::NodeId id, std::string name,
                    AggregationConfig config, Time pipeline_latency = nsec(400));

  void receive(net::Packet&& p, int port) override;

  // --- control plane: job admission (§6 multi-tenancy) ----------------------
  // Returns false (and admits nothing) if the job's registers would not fit
  // in the SRAM budget or the id is taken. A new switch has no job: the
  // fabric admits each of its jobs, job 0 included.
  bool admit_job(std::uint8_t job, const JobParams& params);
  void evict_job(std::uint8_t job);

  // Fault injection: a switch restart that wipes the dataplane aggregation
  // state mid-run — every job's seen bitmaps, mod-n counters, and value pool
  // are reset out-of-band (control_plane_fill), as if the program was just
  // reloaded. In-flight packets are unaffected. Recovery rides the workers'
  // retransmission timers re-driving the wiped slots, plus the epoch/resync
  // protocol (SmlSyncQuery/SmlSyncResponse/SmlRescue) for the stranding race
  // where a restart destroys the shadow copy of a result that was
  // concurrently lost: the restart bumps `epoch()`, stamped on every emitted
  // result, and stranded workers learn the slot's post-wipe state through
  // sync queries and re-contribute the missing phase with rescue packets.
  void restart();

  // Fault injection: permanent switch death (SwitchKillSpec). A killed
  // switch drops every packet from now on; workers detect the silence via
  // their retry budgets and the job degrades to the streaming-PS fallback.
  void kill();
  [[nodiscard]] bool dead() const { return dead_; }

  // Monotonically increasing dataplane incarnation, bumped by restart().
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }
  [[nodiscard]] bool has_job(std::uint8_t job) const { return jobs_.count(job) != 0; }
  [[nodiscard]] std::size_t jobs_admitted() const { return jobs_.size(); }
  // The admission parameters of an admitted job (throws std::out_of_range).
  [[nodiscard]] const JobParams& job_params(std::uint8_t job) const {
    return jobs_.at(job).params;
  }
  [[nodiscard]] bool leaf() const { return config_.parent_port >= 0; }
  [[nodiscard]] std::size_t sram_free_bytes() const;

  struct Counters {
    std::uint64_t updates_received = 0;
    std::uint64_t duplicate_updates = 0;   // ignored via the seen bitmap
    std::uint64_t completions = 0;         // slots that finished aggregation
    std::uint64_t results_multicast = 0;   // packets replicated downstream
    std::uint64_t unicast_replies = 0;     // retransmit answers from the shadow copy
    std::uint64_t upstream_partials = 0;   // leaf -> parent packets (incl. retransmits)
    std::uint64_t results_from_parent = 0; // root results relayed by a leaf
    std::uint64_t unknown_job_drops = 0;   // packets for unadmitted jobs
    std::uint64_t checksum_drops = 0;      // corrupted updates discarded (§3.4)
    std::uint64_t restarts = 0;            // fault-injected dataplane wipes
    std::uint64_t sync_replies = 0;        // SmlSyncQuery packets answered
    std::uint64_t rescues_applied = 0;     // SmlRescue contributions aggregated
    std::uint64_t rescues_ignored = 0;     // stale/duplicate rescues dropped
    std::uint64_t dead_drops = 0;          // packets dropped after kill()
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  // Dataplane SRAM consumed by the aggregation state (§5.5 "switch
  // resources"): pool registers + counters + bitmaps, across all jobs.
  // In lossless mode the accounting reflects the Algorithm-1 layout (single
  // 32-bit version per element, no bitmap).
  [[nodiscard]] std::size_t register_bytes() const;
  [[nodiscard]] const dp::Pipeline& pipeline() const { return pipeline_; }
  [[nodiscard]] const AggregationConfig& config() const { return config_; }

  // Latency distributions across all jobs: slot dwell (first contribution of
  // a phase until the completing one) and the interval between consecutive
  // version flips of a slot — the switch-side view of the §3.5 pipelining
  // cadence.
  [[nodiscard]] const Histogram& slot_dwell_hist() const { return slot_dwell_ns_; }
  [[nodiscard]] const Histogram& version_flip_hist() const { return flip_interval_ns_; }

private:
  // Register layout (stage assignment mirrors Appendix B: bitmap first, then
  // the counter, then the value registers spread across remaining stages).
  struct JobState {
    JobParams params;
    std::unique_ptr<dp::RegisterArray> seen;  // [s] x (2 x 32-bit worker bitmaps)
    std::unique_ptr<dp::RegisterArray> count; // [s] x (2 x 32-bit mod-n counters)
    std::vector<std::unique_ptr<dp::RegisterArray>> pool; // per-element [s] x (2 x int32)
    // Pool version of each slot's most recent claim (255 = never claimed);
    // a claim under the other version marks the slot's generation turnover
    // ("version_flip" trace event). Not switch protocol state — pure telemetry.
    std::vector<std::uint8_t> claim_ver;
    // Telemetry timestamps per slot (-1 = never): the most recent claim
    // (feeds the claim->complete dwell histogram) and the most recent
    // version flip (feeds the flip-interval histogram).
    std::vector<Time> claim_at;
    std::vector<Time> flip_at;
    // Recovery-protocol state (modeled as the packet's `off` header field
    // latched into a per-slot register at claim time): the offset each
    // version is currently aggregating (kNoClaimOff when idle/wiped).
    // Reported by SmlSyncResponse so a stranded worker can tell whether its
    // peers sit one phase behind (rescue needed) or one phase ahead (wait).
    std::vector<std::uint64_t> claim_off[2];
    // Per-slot rescue dedup bitmap, same bit layout as `seen` (ver*32 + wid);
    // cleared when a version is freshly claimed, completed, or wiped.
    std::vector<std::uint64_t> rescue_seen;
    // Phases claimed but not yet completed, across both versions — the
    // "pool occupancy" the switch's INT record reports. Maintained
    // unconditionally (two integer ops); reset by a dataplane wipe.
    std::uint32_t active_phases = 0;
    // INT uplink echo state, allocated lazily on the first INT-carrying
    // update: per (slot, local worker), the arrival time and telemetry stack
    // of that contributor's most recent update for the slot. Updates
    // terminate here, so the switch echoes each worker's own uplink stack —
    // plus its own record — on that worker's result copy, the way a Tofino
    // INT sink reflects source-to-sink metadata back to the end host. Wiped
    // by restart() like the rest of the dataplane memory.
    struct IntContribution {
      Time at = -1;
      std::uint8_t mode = 0;
      std::vector<std::uint8_t> stack;
    };
    std::vector<IntContribution> int_rx; // [idx * n_workers + wid_local]
  };

  // The helpers every update runs are forced inline, so sharing them costs
  // the update path no call; aggregation_switch.cpp defines them.
  //
  // The packet's job, or null after counting (and tracing) the drop of a
  // packet for an unadmitted job.
  [[gnu::always_inline]] inline JobState* find_job(const net::Packet& p);
  // The lookup shared by updates, sync queries and rescues: find_job, the
  // slot-index range check, the sender's index among the job's contributors,
  // and the start of the packet's pipeline pass. `job` is null if dropped.
  struct Pass {
    JobState* job = nullptr;
    int wid_local = 0;
  };
  [[gnu::always_inline]] inline Pass begin_pass(const net::Packet& p);
  void handle_update(net::Packet&& p);
  void handle_sync_query(const net::Packet& p);
  void handle_rescue(net::Packet&& p);
  // Algorithm 3's value step for updates and rescues: the ingress fp16
  // conversion, one rmw per value register on version `ver` (overwriting it
  // when `first`), and when `complete` the result payload (egress). Values
  // on a switch without value registers throw std::logic_error.
  [[gnu::always_inline]] inline std::vector<std::int32_t> fold(JobState& job,
                                                                const net::Packet& p, int ver,
                                                                bool first, bool complete);
  // Completion's and the shadow-copy reply's payload step: the egress fp16
  // conversion of the k_agg sums, then the MTU pass-through of the rest.
  [[gnu::always_inline]] inline void egress(const net::Packet& p, std::size_t k_agg,
                                            std::vector<std::int32_t>& payload);
  // The completing contribution `p`: counters, dwell, trace and attribution,
  // then the result goes to the children, or upstream at a leaf.
  [[gnu::always_inline]] inline void complete_slot(JobState& job, const net::Packet& p,
                                                   int ver, std::vector<std::int32_t>&& values);
  // Sends `p` to the parent as an update from worker `leaf_wid`.
  void send_upstream(net::Packet&& p);

  // --- in-band telemetry ----------------------------------------------------
  // Latches the contributor's uplink stack for the slot (echoed on results).
  void store_int_contribution(JobState& job, std::uint32_t idx, int wid_local,
                              const net::Packet& p);
  // This switch's own INT record: per-contributor slot wait (now - `since`,
  // the contributor's update arrival) + pipeline latency, pool occupancy,
  // slot fan-in, and the dataplane epoch.
  [[nodiscard]] inttel::IntHopRecord int_switch_record(const JobState& job, std::uint32_t dst,
                                                       Time since) const;
  // Replaces `copy`'s stack with worker `wid_local`'s stored uplink echo and
  // appends the switch record.
  void attach_int_echo(const JobState& job, net::Packet& copy, int wid_local);
  // Multicasts result `p` to the job's children, with INT each copy carrying
  // its receiver's uplink echo plus this switch's record.
  void multicast_result(const JobState& job, const net::Packet& p);

  [[nodiscard]] std::size_t job_register_bytes(const JobParams& params) const;

  // Lazily-built §3.7 conversion tables (the Tofino implements these as
  // dataplane match tables; 256 KiB of table SRAM, separate from registers).
  const quant::Fp16Table& fp16_table();

  AggregationConfig config_;
  dp::Pipeline pipeline_;
  std::uint32_t epoch_ = 0;
  bool dead_ = false;
  std::map<std::uint8_t, JobState> jobs_;
  std::unique_ptr<quant::Fp16Table> fp16_table_;
  Counters counters_;
  Histogram slot_dwell_ns_;
  Histogram flip_interval_ns_;
};

} // namespace switchml::swprog
