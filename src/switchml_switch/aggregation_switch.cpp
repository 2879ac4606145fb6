#include "switchml_switch/aggregation_switch.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/attribution.hpp"
#include "common/metrics.hpp"
#include "common/tracing.hpp"

namespace switchml::swprog {

namespace {
constexpr std::uint64_t worker_bit(int ver, int wid_local) {
  return 1ull << (ver * 32 + wid_local);
}
} // namespace

AggregationSwitch::AggregationSwitch(sim::Simulation& simulation, net::NodeId id,
                                     std::string name, AggregationConfig config,
                                     Time pipeline_latency)
    : L2Switch(simulation, id, std::move(name), pipeline_latency),
      config_(config),
      pipeline_(kPipelineStages) {
  if (!config.mtu_emulation && config.elems_per_packet > kHwElemsLimit)
    throw std::invalid_argument(
        "AggregationSwitch: elems_per_packet exceeds the hardware per-packet limit; "
        "enable mtu_emulation to model the paper's enhanced baseline (§5.5)");

  if (auto* reg = MetricsRegistry::current()) {
    const std::string p = this->name() + ".";
    reg->add_counter(p + "updates_received", [this] { return counters_.updates_received; });
    reg->add_counter(p + "duplicate_updates", [this] { return counters_.duplicate_updates; });
    reg->add_counter(p + "completions", [this] { return counters_.completions; });
    reg->add_counter(p + "results_multicast", [this] { return counters_.results_multicast; });
    reg->add_counter(p + "unicast_replies", [this] { return counters_.unicast_replies; });
    reg->add_counter(p + "upstream_partials", [this] { return counters_.upstream_partials; });
    reg->add_counter(p + "results_from_parent", [this] { return counters_.results_from_parent; });
    reg->add_counter(p + "unknown_job_drops", [this] { return counters_.unknown_job_drops; });
    reg->add_counter(p + "checksum_drops", [this] { return counters_.checksum_drops; });
    reg->add_counter(p + "restarts", [this] { return counters_.restarts; });
    reg->add_counter(p + "recovery.sync_replies", [this] { return counters_.sync_replies; });
    reg->add_counter(p + "recovery.rescues_applied",
                     [this] { return counters_.rescues_applied; });
    reg->add_counter(p + "recovery.dead_drops", [this] { return counters_.dead_drops; });
    reg->add_gauge(p + "epoch", [this] { return static_cast<std::int64_t>(epoch_); });
    reg->add_gauge(p + "sram_used_bytes",
                   [this] { return static_cast<std::int64_t>(register_bytes()); });
    reg->add_histogram(p + "slot_dwell_ns", &slot_dwell_ns_);
    reg->add_histogram(p + "version_flip_interval_ns", &flip_interval_ns_);
  }
}

std::size_t AggregationSwitch::job_register_bytes(const JobParams& params) const {
  const std::size_t k_agg = config_.timing_only
                                ? 0
                                : std::min<std::size_t>(config_.elems_per_packet, kHwElemsLimit);
  if (config_.lossless) {
    // Algorithm 1: one 32-bit counter + one 32-bit value slot per element —
    // no shadow copies, no bitmaps (§3.5's memory-cost discussion).
    return (1 + k_agg) * params.pool_size * sizeof(std::uint32_t);
  }
  return (2 + k_agg) * params.pool_size * sizeof(std::uint64_t);
}

std::size_t AggregationSwitch::register_bytes() const {
  std::size_t total = 0;
  for (const auto& [id, state] : jobs_) total += job_register_bytes(state.params);
  return total;
}

std::size_t AggregationSwitch::sram_free_bytes() const {
  const std::size_t used = register_bytes();
  return used >= config_.sram_budget_bytes ? 0 : config_.sram_budget_bytes - used;
}

bool AggregationSwitch::admit_job(std::uint8_t job, const JobParams& params) {
  if (jobs_.count(job) != 0) return false;
  if (params.n_workers < 1 || params.n_workers > 32)
    throw std::invalid_argument(
        "AggregationSwitch: a single pipeline supports 1..32 directly-attached workers");
  if (params.pool_size == 0)
    throw std::invalid_argument("AggregationSwitch: pool_size must be positive");
  if (job_register_bytes(params) > sram_free_bytes()) return false;

  JobState state;
  state.params = params;
  state.claim_ver.assign(params.pool_size, 255);
  state.claim_at.assign(params.pool_size, -1);
  state.flip_at.assign(params.pool_size, -1);
  state.claim_off[0].assign(params.pool_size, net::kNoClaimOff);
  state.claim_off[1].assign(params.pool_size, net::kNoClaimOff);
  state.rescue_seen.assign(params.pool_size, 0);
  const std::string prefix = "job" + std::to_string(job) + ".";
  if (!config_.lossless)
    state.seen = std::make_unique<dp::RegisterArray>(pipeline_, prefix + "seen", 0,
                                                     params.pool_size);
  state.count = std::make_unique<dp::RegisterArray>(pipeline_, prefix + "count", 1,
                                                    params.pool_size);
  if (!config_.timing_only) {
    const std::size_t k_agg = std::min<std::size_t>(config_.elems_per_packet, kHwElemsLimit);
    const int value_stages = kPipelineStages - 2;
    state.pool.reserve(k_agg);
    for (std::size_t j = 0; j < k_agg; ++j) {
      // Spread the k value registers across the remaining stages,
      // non-decreasing in j so pipeline ordering holds.
      const int stage = 2 + static_cast<int>(j * static_cast<std::size_t>(value_stages) / k_agg);
      state.pool.push_back(std::make_unique<dp::RegisterArray>(
          pipeline_, prefix + "pool_" + std::to_string(j), stage, params.pool_size));
    }
  }
  jobs_.emplace(job, std::move(state));
  return true;
}

void AggregationSwitch::evict_job(std::uint8_t job) { jobs_.erase(job); }

void AggregationSwitch::restart() {
  for (auto& [id, job] : jobs_) {
    if (job.seen) job.seen->control_plane_fill(0);
    job.count->control_plane_fill(0);
    for (auto& arr : job.pool) arr->control_plane_fill(0);
    std::fill(job.claim_ver.begin(), job.claim_ver.end(), std::uint8_t{255});
    std::fill(job.claim_at.begin(), job.claim_at.end(), Time{-1});
    std::fill(job.flip_at.begin(), job.flip_at.end(), Time{-1});
    for (auto& offs : job.claim_off)
      std::fill(offs.begin(), offs.end(), net::kNoClaimOff);
    std::fill(job.rescue_seen.begin(), job.rescue_seen.end(), 0ull);
    job.active_phases = 0;
    job.int_rx.clear(); // telemetry echo state lives in the wiped dataplane
  }
  // The reloaded program comes up under a new incarnation; every result and
  // sync response from here on carries it, which is how workers learn their
  // pre-restart in-flight contributions are gone.
  ++epoch_;
  ++counters_.restarts;
  attr::sweep_switch(id(), attr::Component::kRecovery, sim_.now());
  trace::emit(trace::kCatFault, sim_.now(), id(), "switch_restart",
              {"jobs", static_cast<std::int64_t>(jobs_.size())},
              {"epoch", static_cast<std::int64_t>(epoch_)});
}

void AggregationSwitch::kill() {
  dead_ = true;
  trace::emit(trace::kCatFault, sim_.now(), id(), "switch_kill",
              {"epoch", static_cast<std::int64_t>(epoch_)});
}

const quant::Fp16Table& AggregationSwitch::fp16_table() {
  if (!fp16_table_) fp16_table_ = std::make_unique<quant::Fp16Table>(config_.fp16_frac_bits);
  return *fp16_table_;
}

AggregationSwitch::JobState* AggregationSwitch::find_job(const net::Packet& p) {
  auto it = jobs_.find(p.job);
  if (it != jobs_.end()) return &it->second;
  ++counters_.unknown_job_drops;
  trace::emit(trace::kCatSwitch, sim_.now(), id(), "unknown_job_drop", {"job", p.job});
  return nullptr;
}

AggregationSwitch::Pass AggregationSwitch::begin_pass(const net::Packet& p) {
  JobState* job = find_job(p);
  if (job == nullptr) return {};
  if (p.idx >= job->params.pool_size)
    throw std::runtime_error(name() + ": slot index out of range");
  const int wid_local = static_cast<int>(p.wid) - static_cast<int>(job->params.wid_base);
  if (wid_local < 0 || wid_local >= job->params.n_workers)
    throw std::runtime_error(name() + ": packet from unknown worker id " +
                             std::to_string(p.wid));
  pipeline_.begin_packet();
  return {job, wid_local};
}

void AggregationSwitch::receive(net::Packet&& p, int port) {
  if (dead_) {
    // A killed switch is silent: nothing is aggregated, forwarded, or
    // answered. Workers detect the black hole through their retry budgets.
    ++counters_.dead_drops;
    if (p.kind == net::PacketKind::SmlUpdate)
      attr::transition_matching(p.src, p.idx, p.off, attr::Component::kRecovery, sim_.now());
    return;
  }
  if (p.kind == net::PacketKind::SmlUpdate) {
    handle_update(std::move(p));
    return;
  }
  if (p.kind == net::PacketKind::SmlSyncQuery) {
    handle_sync_query(p);
    return;
  }
  if (p.kind == net::PacketKind::SmlRescue) {
    handle_rescue(std::move(p));
    return;
  }
  if (leaf() && p.kind == net::PacketKind::SmlResult && port == config_.parent_port) {
    // Root result arriving at a leaf: relay to our workers. Workers ignore
    // duplicates by offset matching, so re-multicasting a retransmitted root
    // result is safe. The epoch is rewritten to OUR incarnation: a worker's
    // epoch domain is its directly-attached switch, not the root.
    JobState* job = find_job(p);
    if (job == nullptr) return;
    ++counters_.results_from_parent;
    ++counters_.results_multicast;
    p.epoch = epoch_;
    p.seal();
    // Like the epoch, a worker's telemetry domain is its directly-attached
    // switch: with INT each copy's root-side stack is replaced by the
    // worker's own uplink echo plus THIS switch's record (now - uplink
    // arrival spans the whole root round trip, so hop sums stay
    // conservative).
    multicast_result(*job, p);
    return;
  }
  L2Switch::receive(std::move(p), port); // ordinary forwarding for other traffic
}

void AggregationSwitch::egress(const net::Packet& p, std::size_t k_agg,
                               std::vector<std::int32_t>& payload) {
  // Fixed point back to binary16 for the 16-bit wire format.
  if (p.elem_bytes == 2) {
    const quant::Fp16Table& table = fp16_table();
    for (std::size_t j = 0; j < k_agg; ++j) payload[j] = table.to_half(payload[j]);
  }
  // mtu_emulation: elements beyond the ASIC limit pass through as-is
  // (timing experiments only — the values are not actually aggregated).
  for (std::size_t j = k_agg; j < p.values.size(); ++j) payload[j] = p.values[j];
}

std::vector<std::int32_t> AggregationSwitch::fold(JobState& job, const net::Packet& p, int ver,
                                                  bool first, bool complete) {
  std::vector<std::int32_t> result;
  if (p.values.empty()) return result;
  if (job.pool.empty())
    throw std::logic_error(name() + ": an update carries values, but the switch was built "
                                    "without value registers (timing_only)");
  // §3.7 16-bit path: ingress tables turn binary16 wire values into fixed
  // point before aggregation.
  const bool fp16 = p.elem_bytes == 2;
  const quant::Fp16Table* table = fp16 ? &fp16_table() : nullptr;
  if (complete) result.resize(p.values.size());
  // The ASIC aggregates at most kHwElemsLimit elements, one value register
  // each.
  const std::size_t k_agg = std::min<std::size_t>(p.elem_count, job.pool.size());
  for (std::size_t j = 0; j < k_agg; ++j) {
    const std::int32_t x =
        fp16 ? table->to_fixed(static_cast<quant::half>(static_cast<std::uint32_t>(p.values[j])))
             : p.values[j];
    std::int32_t updated = 0;
    job.pool[j]->rmw(p.idx, [&](std::uint64_t w) {
      // Line 9: the first contribution of a phase OVERWRITES the slot.
      // Otherwise a two's-complement add with wraparound, exactly as the
      // switch ALU behaves on overflow (Appendix C relies on f keeping sums
      // in range).
      const std::int32_t old = dp::half_as_i32(w, ver);
      updated = first ? x
                      : static_cast<std::int32_t>(static_cast<std::uint32_t>(old) +
                                                  static_cast<std::uint32_t>(x));
      return dp::half_store_i32(w, ver, updated);
    });
    if (complete) result[j] = updated;
  }
  if (complete) egress(p, k_agg, result);
  return result;
}

void AggregationSwitch::complete_slot(JobState& job, const net::Packet& p, int ver,
                                      std::vector<std::int32_t>&& values) {
  const std::uint32_t idx = p.idx;
  ++counters_.completions;
  if (job.active_phases > 0) --job.active_phases;
  if (job.claim_at[idx] >= 0) slot_dwell_ns_.record(sim_.now() - job.claim_at[idx]);
  trace::emit(trace::kCatSwitch, sim_.now(), id(), "complete", {"slot", idx}, {"ver", ver},
              {"off", static_cast<std::int64_t>(p.off)});
  attr::complete_slot(id(), p.job, static_cast<std::uint32_t>(ver), idx, p.off, sim_.now());

  net::Packet result = net::Packet::reply(net::PacketKind::SmlResult, p);
  result.src = id();
  result.epoch = epoch_;
  result.values = std::move(values);
  if (leaf()) {
    // Completion at a leaf produces ONE partial-aggregate update packet for
    // the parent.
    send_upstream(std::move(result));
    return;
  }
  result.seal();
  ++counters_.results_multicast;
  multicast_result(job, result);
}

void AggregationSwitch::send_upstream(net::Packet&& p) {
  net::Link* up = link_at(config_.parent_port);
  if (up == nullptr) throw std::logic_error(name() + ": leaf has no parent link");
  ++counters_.upstream_partials;
  p.kind = net::PacketKind::SmlUpdate;
  p.src = id();
  p.dst = up->peer_of(*this).id();
  p.wid = config_.leaf_wid;
  p.seal();
  up->send_from(*this, std::move(p), sim_.now() + pipeline_latency());
}

void AggregationSwitch::handle_update(net::Packet&& p) {
  ++counters_.updates_received;
  if (!p.verify()) {
    // §3.4: the checksum discards corrupted updates; worker-side timers
    // retransmit them.
    ++counters_.checksum_drops;
    trace::emit(trace::kCatSwitch, sim_.now(), id(), "checksum_drop", {"slot", p.idx},
                {"wid", p.wid});
    attr::transition_matching(p.src, p.idx, p.off, attr::Component::kRtoStall, sim_.now());
    return;
  }
  const Pass pass = begin_pass(p);
  if (pass.job == nullptr) return;
  JobState& job = *pass.job;
  const int wid_local = pass.wid_local;
  const int ver = p.ver & 1;
  const std::uint32_t idx = p.idx;
  const auto n = static_cast<std::uint32_t>(job.params.n_workers);
  if (p.int_mode != inttel::kModeOff)
    store_int_contribution(job, idx, wid_local, p);

  // --- Algorithm 3, lines 5-7: one access sets our bit for this version and
  // clears our bit for the alternate version. (Algorithm 1 / lossless mode
  // has no bitmap: the network guarantees no duplicates ever arrive.)
  bool already_seen = false;
  if (!config_.lossless) {
    const std::uint64_t seen_before = job.seen->rmw(idx, [ver, wid_local](std::uint64_t w) {
      w |= worker_bit(ver, wid_local);
      w &= ~worker_bit(1 - ver, wid_local);
      return w;
    });
    already_seen = !config_.ablate_seen_bitmap &&
                   (seen_before & worker_bit(ver, wid_local)) != 0;
  }

  if (already_seen) {
    ++counters_.duplicate_updates;
    trace::emit(trace::kCatSwitch, sim_.now(), id(), "dup_update", {"slot", idx},
                {"wid", wid_local}, {"ver", ver});
    if (config_.ablate_shadow_copy) {
      // Ablation: no stored result to serve; the worker can only wait for the
      // (re)multicast, so its chunk re-enters the slot-wait phase.
      attr::transition_matching(p.src, p.idx, p.off, attr::Component::kSwitchWait, sim_.now());
      return;
    }
    // --- Algorithm 3, lines 19-23: duplicate. If the slot already completed
    // (count wrapped to 0), answer from the shadow copy; otherwise drop.
    const std::uint32_t count_now =
        static_cast<std::uint32_t>(dp::half_get(job.count->read(idx), ver));
    if (count_now != 0) {
      // Still aggregating: the duplicate is absorbed, the chunk keeps waiting
      // for the remaining workers.
      attr::transition_matching(p.src, p.idx, p.off, attr::Component::kSwitchWait, sim_.now());
      return;
    }
    trace::emit(trace::kCatSwitch, sim_.now(), id(), "shadow_reply", {"slot", idx},
                {"wid", wid_local}, {"ver", ver});
    attr::transition_matching(p.src, p.idx, p.off, attr::Component::kSwitchReady, sim_.now());
    std::vector<std::int32_t> values;
    if (!p.values.empty()) {
      const std::size_t k_agg = std::min<std::size_t>(p.elem_count, job.pool.size());
      values.resize(p.values.size());
      for (std::size_t j = 0; j < k_agg; ++j)
        values[j] = dp::half_as_i32(job.pool[j]->read(idx), ver);
      egress(p, k_agg, values);
    }
    if (leaf()) {
      // §6: convert the worker's retransmission into an upstream
      // retransmission of our partial aggregate; the parent will answer
      // with the (re)multicast of the final result.
      p.values = std::move(values);
      send_upstream(std::move(p));
      return;
    }
    ++counters_.unicast_replies;
    net::Packet reply = net::Packet::reply(net::PacketKind::SmlResult, p);
    reply.src = id();
    reply.dst = p.src;
    reply.epoch = epoch_;
    reply.values = std::move(values);
    if (reply.int_mode != inttel::kModeOff)
      attach_int_echo(job, reply, wid_local);
    reply.seal();
    forward(std::move(reply));
    return;
  }

  // --- Algorithm 3, line 8: count[ver, idx] = (count + 1) % n.
  const std::uint64_t count_before = job.count->rmw(idx, [ver, n](std::uint64_t w) {
    const std::uint32_t c = (static_cast<std::uint32_t>(dp::half_get(w, ver)) + 1) % n;
    return dp::half_set(w, ver, c);
  });
  const std::uint32_t new_count =
      (static_cast<std::uint32_t>(dp::half_get(count_before, ver)) + 1) % n;
  // Line 9: the first contribution of a phase overwrites the slot, which is
  // how a slot is recycled without an explicit reset. (With n == 1 every
  // packet is simultaneously first and complete.)
  const bool first = new_count == 1 || n == 1;
  const bool complete = new_count == 0;

  if (first) {
    ++job.active_phases;
    // Latch the offset this version is now aggregating (read by sync
    // responses) and reset the version's rescue dedup bits: a fresh claim
    // starts a fresh phase, so older rescues must not be confused with it.
    job.claim_off[ver][idx] = p.off;
    job.rescue_seen[idx] &= ~(0xFFFFFFFFull << (ver * 32));
    // Telemetry-only generation tracking: a claim under the other pool
    // version means this slot just turned over (Algorithm 4's ver flip).
    const std::uint8_t prev_ver = job.claim_ver[idx];
    job.claim_ver[idx] = static_cast<std::uint8_t>(ver);
    job.claim_at[idx] = sim_.now();
    if (prev_ver != 255 && prev_ver != static_cast<std::uint8_t>(ver)) {
      if (job.flip_at[idx] >= 0) flip_interval_ns_.record(sim_.now() - job.flip_at[idx]);
      job.flip_at[idx] = sim_.now();
      trace::emit(trace::kCatSwitch, sim_.now(), id(), "version_flip", {"slot", idx},
                  {"ver", ver});
    }
    trace::emit(trace::kCatSwitch, sim_.now(), id(), "claim", {"slot", idx},
                {"wid", wid_local}, {"ver", ver});
  } else {
    trace::emit(trace::kCatSwitch, sim_.now(), id(), "aggregate", {"slot", idx},
                {"wid", wid_local}, {"count", new_count});
  }
  attr::contribute(id(), p.job, static_cast<std::uint32_t>(ver), idx, p.src, p.off, sim_.now());
  trace::emit_flow(sim_.now(), id(), "chunk", trace::chunk_flow_id(p.src, p.off),
                   trace::FlowPhase::kStep);

  std::vector<std::int32_t> values = fold(job, p, ver, first, complete);
  if (complete) complete_slot(job, p, ver, std::move(values));
  // else: the update is absorbed into the slot
}

void AggregationSwitch::handle_sync_query(const net::Packet& p) {
  if (!p.verify()) {
    ++counters_.checksum_drops;
    return;
  }
  const Pass pass = begin_pass(p);
  if (pass.job == nullptr) return;
  JobState& job = *pass.job;

  // Control-plane read of the slot's registers: per-version counters, the
  // offsets currently claimed, and each worker's own seen bits. The state
  // snapshot is ANNOUNCED to the whole job (traffic-manager replication of
  // one probe reply, like a result multicast): a stranded worker's peers may
  // have already retired the slot after consuming its final result, and only
  // hear about the re-claimed phase — and volunteer the rescue — if the
  // announcement reaches them too. The query's offset is echoed so a worker
  // can match the reply to the stuck phase.
  net::Packet reply = net::Packet::reply(net::PacketKind::SmlSyncResponse, p);
  reply.src = id();
  reply.epoch = epoch_;
  // Register reads in pipeline-stage order: seen (stage 0) before count
  // (stage 1), exactly as a real probe packet would traverse them.
  std::uint64_t seen = 0;
  if (job.seen) seen = job.seen->read(p.idx);
  const std::uint64_t counts = job.count->read(p.idx);
  reply.sync_count0 = static_cast<std::uint32_t>(dp::half_get(counts, 0));
  reply.sync_count1 = static_cast<std::uint32_t>(dp::half_get(counts, 1));
  reply.sync_off0 = job.claim_off[0][p.idx];
  reply.sync_off1 = job.claim_off[1][p.idx];
  ++counters_.sync_replies;
  trace::emit(trace::kCatFault, sim_.now(), id(), "slot_sync", {"slot", p.idx},
              {"wid", pass.wid_local}, {"epoch", static_cast<std::int64_t>(epoch_)});
  multicast(job.params.multicast_group, reply, [&](net::Packet& copy, std::size_t i) {
    copy.wid = static_cast<std::uint16_t>(job.params.wid_base + i);
    // Each copy carries the RECEIVER's seen bits (bit 0 = version 0): the
    // replication engine rewrites the two bits per egress port.
    copy.sync_seen = static_cast<std::uint8_t>(((seen >> i) & 1) | (((seen >> (32 + i)) & 1) << 1));
    copy.seal();
  });
}

void AggregationSwitch::handle_rescue(net::Packet&& p) {
  if (!p.verify()) {
    ++counters_.checksum_drops;
    return;
  }
  const Pass pass = begin_pass(p);
  if (pass.job == nullptr) return;
  if (config_.lossless) {
    ++counters_.rescues_ignored;
    return;
  }
  JobState& job = *pass.job;
  const int wid_local = pass.wid_local;
  const int ver = p.ver & 1;
  const std::uint32_t idx = p.idx;
  const auto n = static_cast<std::uint32_t>(job.params.n_workers);
  if (p.int_mode != inttel::kModeOff)
    store_int_contribution(job, idx, wid_local, p);

  // A rescue is valid only against the version's CURRENT, still-incomplete
  // phase; anything else is stale evidence from before the state moved on.
  // The rescue bitmap makes retried rescues idempotent. The dedup bits and
  // claimed offsets are control-plane vectors, so the count register is
  // touched exactly once (a conditional rmw), respecting the one-access-per-
  // packet dataplane constraint.
  const std::uint64_t bit = worker_bit(ver, wid_local);
  bool applied = false;
  std::uint32_t new_count = 0;
  if ((job.rescue_seen[idx] & bit) == 0 && job.claim_off[ver][idx] == p.off) {
    job.count->rmw(idx, [&](std::uint64_t w) {
      const auto c = static_cast<std::uint32_t>(dp::half_get(w, ver));
      if (c == 0) return w; // version idle or already complete: stale rescue
      applied = true;
      new_count = (c + 1) % n;
      return dp::half_set(w, ver, new_count);
    });
  }
  if (!applied) {
    ++counters_.rescues_ignored;
    trace::emit(trace::kCatFault, sim_.now(), id(), "rescue_ignore", {"slot", idx},
                {"wid", wid_local}, {"ver", ver});
    return;
  }
  job.rescue_seen[idx] |= bit;
  ++counters_.rescues_applied;
  trace::emit(trace::kCatFault, sim_.now(), id(), "rescue_apply", {"slot", idx},
              {"wid", wid_local}, {"off", static_cast<std::int64_t>(p.off)});

  // Fold like a non-first contribution, WITHOUT touching the seen bitmap:
  // the rescuer's data-plane bits still describe its current-phase
  // contribution at the other version, and must stay that way.
  const bool complete = new_count == 0;
  std::vector<std::int32_t> values = fold(job, p, ver, /*first=*/false, complete);
  if (complete) complete_slot(job, p, ver, std::move(values));
}

void AggregationSwitch::store_int_contribution(JobState& job, std::uint32_t idx, int wid_local,
                                               const net::Packet& p) {
  if (job.int_rx.empty())
    job.int_rx.resize(static_cast<std::size_t>(job.params.pool_size) *
                      static_cast<std::size_t>(job.params.n_workers));
  auto& c = job.int_rx[static_cast<std::size_t>(idx) *
                           static_cast<std::size_t>(job.params.n_workers) +
                       static_cast<std::size_t>(wid_local)];
  c.at = sim_.now();
  c.mode = p.int_mode;
  c.stack = p.int_stack;
}

inttel::IntHopRecord AggregationSwitch::int_switch_record(const JobState& job, std::uint32_t dst,
                                                          Time since) const {
  inttel::IntHopRecord rec;
  rec.hop_id = id();
  rec.next_hop = dst;
  const Time lat = (since >= 0 ? sim_.now() - since : Time{0}) + pipeline_latency();
  rec.hop_latency_ns =
      lat > 0xFFFFFFFFll ? 0xFFFFFFFFu : static_cast<std::uint32_t>(lat < 0 ? 0 : lat);
  rec.flags = inttel::kHopFlagSwitch;
  rec.drops = counters_.checksum_drops > 0xFFFFFFFFull
                  ? 0xFFFFFFFFu
                  : static_cast<std::uint32_t>(counters_.checksum_drops);
  rec.pool_occupancy = job.active_phases;
  rec.fanin = static_cast<std::uint16_t>(job.params.n_workers);
  rec.epoch = static_cast<std::uint16_t>(epoch_);
  return rec;
}

void AggregationSwitch::attach_int_echo(const JobState& job, net::Packet& copy, int wid_local) {
  Time since = -1;
  copy.int_stack.clear();
  if (!job.int_rx.empty() && copy.idx < job.params.pool_size) {
    const auto& c = job.int_rx[static_cast<std::size_t>(copy.idx) *
                                   static_cast<std::size_t>(job.params.n_workers) +
                               static_cast<std::size_t>(wid_local)];
    if (c.at >= 0) {
      copy.int_stack = c.stack;
      since = c.at;
    }
  }
  inttel::append_record(copy.int_stack, int_switch_record(job, copy.dst, since));
}

void AggregationSwitch::multicast_result(const JobState& job, const net::Packet& p) {
  if (p.int_mode != inttel::kModeOff) {
    multicast(job.params.multicast_group, p, [&](net::Packet& copy, std::size_t i) {
      attach_int_echo(job, copy, static_cast<int>(i));
    });
  } else {
    multicast(job.params.multicast_group, p);
  }
}

} // namespace switchml::swprog
