#include "core/fabric.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>

#include "collectives/streaming_ps.hpp"
#include "common/attribution.hpp"
#include "common/tracing.hpp"
#include "core/fault.hpp"

namespace switchml::core {

namespace {
constexpr net::NodeId kSwitchId = 10'000;       // a fabric's only switch
constexpr net::NodeId kTreeSwitchBase = 30'000; // switch i of a multi-switch fabric
constexpr std::uint64_t kUplinkSeedBase = 7000; // + the child switch's id
constexpr net::NodeId kPsHostBase = 1000;       // dedicated PS host j
constexpr std::uint64_t kPsSeedBase = 500;      // + j, PS host j's link
constexpr std::uint64_t kFallbackSeedOffset = 9001; // the fallback replay's RNG streams

template <class... Ts> struct overloaded : Ts... { using Ts::operator()...; };
template <class... Ts> overloaded(Ts...) -> overloaded<Ts...>;

// Structural rules of an IrregularSpec (see its declaration).
void validate_irregular(const IrregularSpec& spec) {
  const auto m = static_cast<int>(spec.switch_parent.size());
  if (m < 1 || spec.switch_parent[0] != -1)
    throw std::invalid_argument(
        "IrregularSpec: switch_parent[0] must be -1 (switch 0 is the root)");
  for (int i = 1; i < m; ++i) {
    const int p = spec.switch_parent[static_cast<std::size_t>(i)];
    if (p < 0 || p >= i)
      throw std::invalid_argument(
          "IrregularSpec: switch_parent[" + std::to_string(i) + "] = " + std::to_string(p) +
          " must name an earlier switch (0 <= parent < " + std::to_string(i) +
          "), so the adjacency is an acyclic single-rooted tree");
  }
  if (spec.worker_switch.empty())
    throw std::invalid_argument("IrregularSpec: need at least one worker");
  std::vector<bool> has_switch_child(static_cast<std::size_t>(m), false);
  std::vector<bool> has_worker_child(static_cast<std::size_t>(m), false);
  for (int i = 1; i < m; ++i)
    has_switch_child[static_cast<std::size_t>(spec.switch_parent[static_cast<std::size_t>(i)])] =
        true;
  for (std::size_t w = 0; w < spec.worker_switch.size(); ++w) {
    const int s = spec.worker_switch[w];
    if (s < 0 || s >= m)
      throw std::invalid_argument("IrregularSpec: worker_switch[" + std::to_string(w) + "] = " +
                                  std::to_string(s) + " out of range (spec has " +
                                  std::to_string(m) + " switches)");
    if (w > 0 && s < spec.worker_switch[w - 1])
      throw std::invalid_argument(
          "IrregularSpec: worker_switch must be non-decreasing (worker_switch[" +
          std::to_string(w) + "] = " + std::to_string(s) + " after " +
          std::to_string(spec.worker_switch[w - 1]) +
          "); grouping workers by switch keeps each leaf switch's global worker ids "
          "consecutive, which the switch's seen bitmap indexing (wid - wid_base) requires");
    has_worker_child[static_cast<std::size_t>(s)] = true;
  }
  for (int i = 0; i < m; ++i) {
    if (has_switch_child[static_cast<std::size_t>(i)] &&
        has_worker_child[static_cast<std::size_t>(i)])
      throw std::invalid_argument(
          "IrregularSpec: switch " + std::to_string(i) +
          " has both worker and switch children; a switch's children must be all workers or "
          "all switches (its aggregation pool counts contributions of one kind)");
    if (!has_switch_child[static_cast<std::size_t>(i)] &&
        !has_worker_child[static_cast<std::size_t>(i)])
      throw std::invalid_argument("IrregularSpec: switch " + std::to_string(i) +
                                  " has no children (every switch must aggregate something)");
  }
}

void validate_streaming_ps(const StreamingPsSpec& spec) {
  if (spec.n_workers < 1 || spec.n_workers > 64)
    throw std::invalid_argument("Fabric: a streaming PS needs 1..64 workers (got " +
                                std::to_string(spec.n_workers) +
                                "; a shard's seen bitmaps are 64 bits)");
}

net::LinkConfig link_config(const FabricParams& p, BitsPerSecond rate) {
  net::LinkConfig lc;
  lc.rate = rate;
  lc.propagation = p.propagation;
  lc.queue_limit_bytes = p.queue_limit_bytes;
  lc.loss_prob = p.loss_prob;
  return lc;
}

// A complete tree in preorder: every switch is followed by its subtrees, and
// each bottom switch takes the next `workers_per_rack` workers.
IrregularSpec complete_tree(int levels, int branching, int workers_per_rack) {
  IrregularSpec spec{{}, {}};
  const auto grow = [&](const auto& self, int level, int parent) -> void {
    const int id = static_cast<int>(spec.switch_parent.size());
    spec.switch_parent.push_back(parent);
    if (level + 1 == levels) {
      spec.worker_switch.insert(spec.worker_switch.end(),
                                static_cast<std::size_t>(workers_per_rack), id);
      return;
    }
    for (int c = 0; c < branching; ++c) self(self, level + 1, id);
  };
  grow(grow, 0, -1);
  return spec;
}
} // namespace

LoweredTopology lower_topology(const TopologySpec& topology) {
  LoweredTopology out;
  std::visit(overloaded{
                 [&](const RackSpec& s) {
                   if (s.n_workers < 1)
                     throw std::invalid_argument("Fabric: need at least one worker");
                   out.spec = {{-1}, std::vector<int>(static_cast<std::size_t>(s.n_workers), 0)};
                 },
                 [&](const MultiJobSpec& s) {
                   if (s.n_jobs < 1 || s.workers_per_job < 1)
                     throw std::invalid_argument("Fabric: invalid multi-job shape");
                   const int n = s.n_jobs * s.workers_per_job;
                   out.spec = {{-1}, std::vector<int>(static_cast<std::size_t>(n), 0)};
                   for (int g = 0; g < n; ++g) out.worker_job.push_back(g / s.workers_per_job);
                 },
                 [&](const HierarchySpec& s) {
                   if (s.racks < 1 || s.workers_per_rack < 1)
                     throw std::invalid_argument("Fabric: invalid hierarchy shape");
                   out.spec = complete_tree(2, s.racks, s.workers_per_rack);
                 },
                 [&](const TreeSpec& s) {
                   if (s.levels < 2)
                     throw std::invalid_argument("Fabric: tree needs at least 2 levels");
                   if (s.branching < 1 || s.workers_per_rack < 1)
                     throw std::invalid_argument("Fabric: invalid tree shape");
                   out.spec = complete_tree(s.levels, s.branching, s.workers_per_rack);
                 },
                 [&](const IrregularSpec& s) {
                   validate_irregular(s);
                   out.spec = s;
                 },
                 [&](const StreamingPsSpec&) {
                   throw std::invalid_argument(
                       "lower_topology: a streaming-PS fabric is not a switch tree");
                 },
             },
             topology);
  out.worker_job.resize(out.spec.worker_switch.size(), 0);
  return out;
}

void validate_topology(const TopologySpec& topology) {
  if (const auto* ps = std::get_if<StreamingPsSpec>(&topology))
    validate_streaming_ps(*ps);
  else
    (void)lower_topology(topology);
}

Fabric::Fabric(FabricConfig config) : config_(std::move(config)) {
  if (config_.lossless && config_.loss_prob > 0)
    throw std::invalid_argument("Fabric: lossless mode requires loss_prob == 0");
  // Everything constructed while the fabric is built registers its counters —
  // including the fault injector, whose plan needs the built nodes/links.
  MetricsRegistry::Scope scope(&metrics_);
  if (const auto* ps = std::get_if<StreamingPsSpec>(&config_.topology))
    build(*ps);
  else
    build(lower_topology(config_.topology));
  install_recovery();
  install_observability();
  if (!config_.faults.empty()) faults_ = std::make_unique<FaultInjector>(*this, config_.faults);
}

void Fabric::install_observability() {
  // The streaming-PS shape has no INT (see StreamingPsSpec).
  if (inttel::kCompiledIn && config_.int_mode != inttel::kModeOff && !switches_.empty()) {
    // The localizer's verdicts print node names, not raw ids.
    std::map<std::uint32_t, std::string> names;
    for (auto& w : workers_) names.emplace(w->id(), w->name());
    for (auto& s : switches_) names.emplace(s->id(), s->name());
    int_localizer_ = std::make_unique<inttel::FaultLocalizer>(
        inttel::FaultLocalizer::Config{},
        [names = std::move(names)](std::uint32_t node) {
          auto it = names.find(node);
          return it != names.end() ? it->second : "node-" + std::to_string(node);
        });
    for (auto& w : workers_) w->set_int_localizer(int_localizer_.get());
    if (auto* ireg = MetricsRegistry::current()) {
      for (std::size_t k = 0; k < inttel::FaultLocalizer::kKindCount; ++k) {
        const auto kind = static_cast<inttel::FaultLocalizer::Verdict::Kind>(k);
        ireg->add_counter(std::string("int.verdicts.") + inttel::FaultLocalizer::to_string(kind),
                          [this, kind] { return int_localizer_->count(kind); });
      }
    }
  }
  // Registered ONLY when the ambient sink/ledger exists at construction, so
  // fabrics built without them keep a bit-identical registry (and timeline).
  auto* reg = MetricsRegistry::current();
  if (reg == nullptr) return;
  if (trace::TraceSink* sink = trace::TraceSink::current())
    reg->add_counter("trace.dropped_events", [sink] { return sink->total_drops(); });
  attr::SpanLedger* ledger = attr::SpanLedger::current();
  if (ledger == nullptr) return;
  for (std::size_t c = 0; c < attr::kComponentCount; ++c) {
    const auto comp = static_cast<attr::Component>(c);
    reg->add_counter(std::string("attr.total.") + attr::to_string(comp) + "_ns",
                     [ledger, comp] { return ledger->total(comp); });
  }
  reg->add_counter("attr.chunks_closed", [ledger] { return ledger->chunks_closed(); });
  reg->add_counter("attr.max_residual_ns", [ledger] { return ledger->max_residual_ns(); });
  reg->add_counter("attr.records_dropped", [ledger] { return ledger->records_dropped(); });
  for (auto& w : workers_) {
    const std::string p = "attr." + w->name() + ".";
    const std::uint32_t node = w->id();
    for (std::size_t c = 0; c < attr::kComponentCount; ++c) {
      const auto comp = static_cast<attr::Component>(c);
      reg->add_counter(p + attr::to_string(comp) + "_ns",
                       [ledger, node, comp] { return ledger->node_total(node, comp); });
    }
  }
}

Fabric::~Fabric() = default;

swprog::AggregationSwitch& Fabric::root() {
  if (switches_.empty())
    throw std::logic_error("Fabric::root: a streaming-PS fabric has no aggregation switch");
  return *switches_.front();
}

void Fabric::install_recovery() {
  if (auto* reg = MetricsRegistry::current()) {
    reg->add_counter("recovery.fallbacks", [this] { return fallbacks_; });
    reg->add_counter("recovery.fallback_replay_elems",
                     [this] { return fallback_replay_elems_; });
  }
  for (auto& w : workers_) w->set_switch_dead_handler([this] { on_switch_dead(); });
}

void Fabric::on_switch_dead() {
  if (fallback_pending_) return;
  fallback_pending_ = true;
  // Stop every worker's transmissions so the simulation drains; the pending
  // reduce_* call picks up the fallback once run() returns.
  for (auto& w : workers_) w->abort_reduction();
}

Fabric::FallbackPlan Fabric::collect_fallback_plan(std::uint64_t total_elems) {
  if (n_jobs_ != 1)
    throw std::runtime_error(
        "Fabric: switch declared dead on a multi-job fabric — the streaming-PS fallback "
        "replays one job's chunks and cannot arbitrate several tenants; rerun the surviving "
        "jobs on single-job fabrics");
  FallbackPlan plan;
  // The last live event, not now(): a timeline's closing daemon tick may run
  // after the drain and must not stretch the fallback's TAT or move its
  // fallback_begin event.
  plan.drained_at = sim_.last_live_at();
  for (auto& w : workers_) {
    const auto offs = w->unconsumed_chunks();
    plan.offsets.insert(plan.offsets.end(), offs.begin(), offs.end());
  }
  std::sort(plan.offsets.begin(), plan.offsets.end());
  plan.offsets.erase(std::unique(plan.offsets.begin(), plan.offsets.end()),
                     plan.offsets.end());
  for (std::uint64_t off : plan.offsets)
    plan.replay_elems += std::min<std::uint64_t>(config_.elems_per_packet, total_elems - off);
  ++fallbacks_;
  fallback_replay_elems_ += plan.replay_elems;
  trace::emit(trace::kCatFault, plan.drained_at, root().id(), "fallback_begin",
              {"chunks", static_cast<std::int64_t>(plan.offsets.size())},
              {"elems", static_cast<std::int64_t>(plan.replay_elems)});
  return plan;
}

void Fabric::fallback(std::uint64_t total_elems, const std::vector<Time>& start,
                      std::vector<Time>& tat, const std::vector<std::vector<std::int32_t>>* updates,
                      std::vector<std::vector<std::int32_t>>* outputs) {
  const FallbackPlan plan = collect_fallback_plan(total_elems);
  const auto chunk_elems = [&](std::uint64_t off) {
    return std::min<std::uint64_t>(config_.elems_per_packet, total_elems - off);
  };
  FabricParams params = config_;
  params.seed += kFallbackSeedOffset; // distinct RNG streams for the replay
  params.faults = {};
  std::vector<Time> ps_tat;
  std::vector<std::vector<std::int32_t>> replayed;
  {
    // The replay fabric's node ids collide with this one's; mask the ledger
    // so replay-internal spans cannot pollute the job's attribution.
    attr::SpanLedger::Scope mask(nullptr);
    Fabric ps(FabricConfig(params, StreamingPsSpec{workers_per_job_, PsPlacement::Dedicated}));
    if (updates == nullptr) {
      ps_tat = ps.reduce_timing(plan.replay_elems);
    } else {
      // Replay the union of unconsumed chunks, compacted into one contiguous
      // vector per worker. int32 sums are order-independent and
      // overflow-wrapping, so the PS result is bit-identical to what the
      // switch would have produced.
      std::vector<std::vector<std::int32_t>> compact(updates->size());
      for (std::size_t i = 0; i < compact.size(); ++i) {
        const auto& u = (*updates)[i];
        compact[i].reserve(plan.replay_elems);
        for (std::uint64_t off : plan.offsets)
          compact[i].insert(compact[i].end(), u.begin() + static_cast<std::ptrdiff_t>(off),
                            u.begin() + static_cast<std::ptrdiff_t>(off + chunk_elems(off)));
      }
      DataReduceResult r = ps.reduce_i32(compact);
      ps_tat = std::move(r.tat);
      replayed = std::move(r.outputs);
    }
  }
  for (std::size_t i = 0; i < tat.size(); ++i) {
    if (tat[i] >= 0) continue; // completed on the switch path before the abort
    if (outputs != nullptr) {
      // Scatter the replayed sums back to their offsets. Chunks this worker
      // DID consume before the abort are overwritten with the identical value.
      std::size_t pos = 0;
      for (std::uint64_t off : plan.offsets) {
        const auto c = chunk_elems(off);
        std::copy_n(replayed[i].begin() + static_cast<std::ptrdiff_t>(pos), c,
                    (*outputs)[i].begin() + static_cast<std::ptrdiff_t>(off));
        pos += c;
      }
    }
    tat[i] = (plan.drained_at - start[i]) + config_.fallback_reprovision + ps_tat[i];
    // The worker's surviving chunks were parked in kFallback at the abort;
    // they complete when the replay delivers, possibly past the fabric clock.
    attr::close_all(workers_[i]->id(), start[i] + tat[i]);
  }
  for (auto& w : workers_) w->finish_aborted_reduction();
  fallback_pending_ = false;
}

void Fabric::set_loss_prob(double p) {
  for (auto& l : links_) l->set_loss_prob(p);
}

std::vector<Time> Fabric::reduce_timing(std::uint64_t total_elems) {
  return reduce(0, workers_.size(), total_elems, nullptr, nullptr);
}

std::vector<std::vector<Time>> Fabric::reduce_timing_all(std::uint64_t total_elems) {
  std::vector<Time> tat = reduce_timing(total_elems);
  const auto per_job = static_cast<std::size_t>(workers_per_job_);
  std::vector<std::vector<Time>> out(static_cast<std::size_t>(n_jobs_));
  for (std::size_t i = 0; i < tat.size(); ++i) out[i / per_job].push_back(tat[i]);
  return out;
}

Fabric::DataReduceResult Fabric::reduce_i32(
    const std::vector<std::vector<std::int32_t>>& updates) {
  return reduce_i32_job(/*job=*/0, updates);
}

Fabric::DataReduceResult Fabric::reduce_i32_job(
    int job, const std::vector<std::vector<std::int32_t>>& updates) {
  if (config_.timing_only)
    throw std::logic_error("Fabric::reduce_i32 requires a data-mode cluster");
  if (job < 0 || job >= n_jobs_)
    throw std::invalid_argument("Fabric::reduce_i32: no such job");
  if (static_cast<int>(updates.size()) != workers_per_job_)
    throw std::invalid_argument("Fabric::reduce_i32: one update per worker required");

  DataReduceResult r;
  r.outputs.resize(updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) r.outputs[i].assign(updates[i].size(), 0);
  r.tat = reduce(static_cast<std::size_t>(job) * static_cast<std::size_t>(workers_per_job_),
                 updates.size(),
                 updates.empty() ? 0 : updates.front().size(), &updates, &r.outputs);
  return r;
}

std::vector<Time> Fabric::reduce(std::size_t first, std::size_t count, std::uint64_t total_elems,
                                 const std::vector<std::vector<std::int32_t>>* updates,
                                 std::vector<std::vector<std::int32_t>>* outputs) {
  std::vector<Time> start(count), tat(count, -1);
  for (std::size_t i = 0; i < count; ++i) {
    start[i] = sim_.now();
    auto done = [this, &start, &tat, i] { tat[i] = sim_.now() - start[i]; };
    worker::Worker& w = *workers_[first + i];
    if (updates != nullptr)
      w.start_reduction((*updates)[i], (*outputs)[i], done);
    else
      w.start_reduction(total_elems, done);
  }
  sim_.run();
  if (fallback_pending_) {
    fallback(total_elems, start, tat, updates, outputs);
    return tat;
  }
  for (Time t : tat)
    if (t < 0) throw std::runtime_error("Fabric: reduction did not complete");
  return tat;
}

// --- the one build path ------------------------------------------------------

void Fabric::build(const LoweredTopology& topology) {
  const IrregularSpec& spec = topology.spec;
  const std::vector<int>& job_of = topology.worker_job;
  const std::size_t m = spec.switch_parent.size();
  const std::size_t n = spec.worker_switch.size();
  const FabricParams& p = config_;
  n_jobs_ = 1 + *std::max_element(job_of.begin(), job_of.end());
  workers_per_job_ = static_cast<int>(std::count(job_of.begin(), job_of.end(), 0));

  // Each switch's children in port order: its workers, or its child switches
  // (never both). port[i] is switch i's port at its parent.
  std::vector<std::vector<int>> workers_at(m), switches_at(m);
  std::vector<int> port(m, -1);
  for (std::size_t w = 0; w < n; ++w)
    workers_at[static_cast<std::size_t>(spec.worker_switch[w])].push_back(static_cast<int>(w));
  for (std::size_t i = 1; i < m; ++i) {
    auto& siblings = switches_at[static_cast<std::size_t>(spec.switch_parent[i])];
    port[i] = static_cast<int>(siblings.size());
    siblings.push_back(static_cast<int>(i));
  }

  const bool lone = m == 1;
  for (std::size_t i = 0; i < m; ++i) {
    const std::vector<int>& workers = workers_at[i];
    const bool leaf = !workers.empty();
    const int n_children = static_cast<int>(leaf ? workers.size() : switches_at[i].size());
    // A child's wid at this switch: a worker's global id, or a switch's port.
    const auto wid_at = [&](int c) {
      return static_cast<std::uint16_t>(leaf ? workers[static_cast<std::size_t>(c)] : c);
    };
    // Child ports per job; a switch child contributes to job 0.
    std::vector<std::vector<int>> job_ports(static_cast<std::size_t>(n_jobs_));
    for (int c = 0; c < n_children; ++c) {
      const int job = leaf ? job_of[static_cast<std::size_t>(wid_at(c))] : 0;
      job_ports[static_cast<std::size_t>(job)].push_back(c);
    }

    swprog::AggregationConfig sc;
    sc.elems_per_packet = p.elems_per_packet;
    sc.timing_only = p.timing_only;
    sc.mtu_emulation = p.mtu_emulation;
    sc.fp16_frac_bits = p.fp16_frac_bits;
    sc.sram_budget_bytes = p.sram_budget_bytes;
    sc.ablate_shadow_copy = p.ablate_shadow_copy;
    sc.ablate_seen_bitmap = p.ablate_seen_bitmap;
    sc.lossless = p.lossless;
    if (spec.switch_parent[i] >= 0) {
      sc.parent_port = n_children; // one past the child ports
      sc.leaf_wid = static_cast<std::uint16_t>(port[i]);
    }
    auto sw = std::make_unique<swprog::AggregationSwitch>(
        sim_, lone ? kSwitchId : kTreeSwitchBase + static_cast<net::NodeId>(i),
        lone ? "switch" : "sw-" + std::to_string(i), sc, p.switch_latency);
    // Every job with children here goes through the §6 admission control.
    for (std::size_t j = 0; j < job_ports.size(); ++j) {
      const std::vector<int>& ports = job_ports[j];
      if (ports.empty()) continue;
      swprog::JobParams jp;
      jp.n_workers = static_cast<int>(ports.size());
      jp.pool_size = p.pool_size;
      jp.wid_base = wid_at(ports.front());
      jp.multicast_group = static_cast<std::uint32_t>(1 + j);
      if (!sw->admit_job(static_cast<std::uint8_t>(j), jp))
        throw std::runtime_error("Fabric: job " + std::to_string(j) +
                                 " rejected by admission control (SRAM budget)");
      sw->add_multicast_group(jp.multicast_group, ports);
    }
    switches_.push_back(std::move(sw));
  }

  for (std::size_t w = 0; w < n; ++w) {
    const auto s = static_cast<std::size_t>(spec.worker_switch[w]);
    swprog::AggregationSwitch& sw = *switches_[s];
    const int job = job_of[w];
    worker::WorkerConfig wc;
    wc.wid = static_cast<std::uint16_t>(w);
    wc.n_workers = workers_per_job_;
    wc.pool_size = p.pool_size;
    wc.elems_per_packet = p.elems_per_packet;
    wc.wire_elem_bytes = p.wire_elem_bytes;
    wc.retransmit_timeout = p.retransmit_timeout;
    wc.adaptive_rto = p.adaptive_rto;
    wc.nic = p.nic;
    wc.transport = p.transport;
    wc.rdma = p.rdma;
    wc.switch_id = sw.id();
    wc.job = static_cast<std::uint8_t>(job);
    wc.int_mode = p.int_mode;
    wc.lossless = p.lossless;
    // Lossless workers have no timers, so the timeout-driven escalation stages
    // can never fire; keep them disabled explicitly.
    wc.sync_after = p.lossless ? 0 : p.sync_after;
    wc.dead_after = p.lossless ? 0 : p.dead_after;
    const std::string name =
        n_jobs_ > 1 ? "j" + std::to_string(job) + "-worker-" +
                          std::to_string(static_cast<int>(w) - job * workers_per_job_)
                    : "worker-" + std::to_string(w);
    auto wk = std::make_unique<worker::Worker>(sim_, static_cast<net::NodeId>(w), name, wc);
    const int at = static_cast<int>(w) - workers_at[s].front();
    auto link = std::make_unique<net::Link>(sim_, link_config(p, p.link_rate), *wk, 0, sw, at,
                                            p.seed + static_cast<std::uint64_t>(w));
    wk->set_uplink(*link);
    sw.attach(at, *link);
    workers_.push_back(std::move(wk));
    links_.push_back(std::move(link));
  }
  const BitsPerSecond uplink_rate = p.uplink_rate != 0 ? p.uplink_rate : p.link_rate;
  for (std::size_t i = 1; i < m; ++i) {
    swprog::AggregationSwitch& child = *switches_[i];
    swprog::AggregationSwitch& parent = *switches_[static_cast<std::size_t>(spec.switch_parent[i])];
    const int up = child.config().parent_port;
    auto link = std::make_unique<net::Link>(sim_, link_config(p, uplink_rate), child, up, parent,
                                            port[i], p.seed + kUplinkSeedBase + child.id());
    child.attach(up, *link);
    parent.attach(port[i], *link);
    links_.push_back(std::move(link));
  }
}

void Fabric::build(const StreamingPsSpec& spec) {
  validate_streaming_ps(spec);
  const int n = spec.n_workers;
  const FabricParams& p = config_;
  const bool dedicated = spec.placement == PsPlacement::Dedicated;
  workers_per_job_ = n;

  auto l2 = std::make_unique<net::L2Switch>(sim_, kSwitchId, "switch", p.switch_latency);
  net::L2Switch& sw = *l2;
  ps_nodes_.push_back(std::move(l2));

  std::vector<net::NodeId> worker_ids(static_cast<std::size_t>(n));
  std::iota(worker_ids.begin(), worker_ids.end(), net::NodeId{0});
  // Slot idx is served by shard idx % n; colocated shard i lives on worker i.
  const auto ps_id = [dedicated, n](std::uint32_t idx) {
    const auto shard = static_cast<net::NodeId>(static_cast<int>(idx) % n);
    return dedicated ? kPsHostBase + shard : shard;
  };

  for (int i = 0; i < n; ++i) {
    worker::WorkerConfig wc;
    wc.wid = static_cast<std::uint16_t>(i);
    wc.n_workers = n;
    wc.pool_size = p.pool_size;
    wc.elems_per_packet = p.elems_per_packet;
    wc.retransmit_timeout = p.retransmit_timeout;
    wc.nic = p.nic;
    wc.transport = p.transport;
    wc.rdma = p.rdma;
    const auto id = static_cast<net::NodeId>(i);
    std::string name = "worker-" + std::to_string(i);
    std::unique_ptr<worker::Worker> w =
        dedicated ? std::make_unique<worker::Worker>(sim_, id, std::move(name), wc)
                  : std::make_unique<collectives::PsColocatedHost>(sim_, id, std::move(name), wc,
                                                                   worker_ids);
    w->set_destination_resolver(ps_id);
    auto link = std::make_unique<net::Link>(sim_, link_config(p, p.link_rate), *w, 0, sw, i,
                                            p.seed + static_cast<std::uint64_t>(i));
    w->set_uplink(*link);
    sw.attach(i, *link);
    workers_.push_back(std::move(w));
    links_.push_back(std::move(link));
  }
  if (!dedicated) return;
  for (int j = 0; j < n; ++j) {
    auto ps = std::make_unique<collectives::PsShardNode>(
        sim_, kPsHostBase + static_cast<net::NodeId>(j), "ps-" + std::to_string(j), p.nic,
        p.transport, p.rdma, worker_ids, p.pool_size);
    auto link = std::make_unique<net::Link>(sim_, link_config(p, p.link_rate), *ps, 0, sw, n + j,
                                            p.seed + kPsSeedBase + static_cast<std::uint64_t>(j));
    ps->set_uplink(*link);
    sw.attach(n + j, *link);
    ps_nodes_.push_back(std::move(ps));
    links_.push_back(std::move(link));
  }
}

} // namespace switchml::core
