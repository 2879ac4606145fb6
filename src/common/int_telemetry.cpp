#include "common/int_telemetry.hpp"

#include <algorithm>
#include <cstring>

#include "common/metrics.hpp"
#include "common/tracing.hpp"

namespace switchml::inttel {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xFF));
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

} // namespace

bool append_record(std::vector<std::uint8_t>& stack, const IntHopRecord& rec) {
  if (stack.empty()) {
    stack.reserve(kShimBytes + kRecordBytes * kMaxHops);
    stack.push_back(kMagic);
    stack.push_back(kVersion);
    stack.push_back(0); // hop count
    stack.push_back(0); // flags
  }
  if (stack.size() < kShimBytes || stack[0] != kMagic || stack[1] != kVersion) return false;
  if (stack[2] >= kMaxHops) {
    stack[3] |= kShimFlagTruncated;
    return false;
  }
  put_u32(stack, rec.hop_id);
  put_u32(stack, rec.next_hop);
  put_u32(stack, rec.hop_latency_ns);
  put_u32(stack, rec.queue_bytes);
  put_u16(stack, rec.queue_pkts);
  put_u16(stack, rec.flags);
  put_u32(stack, rec.drops);
  put_u32(stack, rec.pool_occupancy);
  put_u16(stack, rec.fanin);
  put_u16(stack, rec.epoch);
  ++stack[2];
  return true;
}

ParsedStack parse_stack(const std::uint8_t* data, std::size_t size) {
  ParsedStack out;
  if (size < kShimBytes) return out;
  if (data[0] != kMagic || data[1] != kVersion) return out;
  const std::size_t hops = data[2];
  if (hops > kMaxHops) return out;
  if (size != kShimBytes + hops * kRecordBytes) return out;
  out.truncated = (data[3] & kShimFlagTruncated) != 0;
  out.hops.reserve(hops);
  const std::uint8_t* p = data + kShimBytes;
  for (std::size_t i = 0; i < hops; ++i, p += kRecordBytes) {
    IntHopRecord rec;
    rec.hop_id = get_u32(p);
    rec.next_hop = get_u32(p + 4);
    rec.hop_latency_ns = get_u32(p + 8);
    rec.queue_bytes = get_u32(p + 12);
    rec.queue_pkts = get_u16(p + 16);
    rec.flags = get_u16(p + 18);
    rec.drops = get_u32(p + 20);
    rec.pool_occupancy = get_u32(p + 24);
    rec.fanin = get_u16(p + 28);
    rec.epoch = get_u16(p + 30);
    out.hops.push_back(rec);
  }
  out.ok = true;
  return out;
}

// --- IntCollector ------------------------------------------------------------

IntCollector::IntCollector(std::string prefix) : prefix_(std::move(prefix)) {
  if (MetricsRegistry* reg = MetricsRegistry::current()) {
    reg->add_counter(prefix_ + "records_parsed", [this] { return records_parsed_; });
    reg->add_counter(prefix_ + "parse_errors", [this] { return parse_errors_; });
    reg->add_counter(prefix_ + "truncated_stacks", [this] { return truncated_stacks_; });
  }
}

void IntCollector::declare_hop(const HopKey& key, const std::string& name) {
  HopState& st = hops_[key];
  if (!st.name.empty()) return; // already declared (and registered)
  st.name = name;
  if (MetricsRegistry* reg = MetricsRegistry::current()) {
    const std::string base = prefix_ + name + ".";
    reg->add_histogram(base + "hop_latency_ns", &st.latency);
    // HopState lives in a node-based map: &st stays valid for the registry's
    // lifetime (the worker owns the collector, the fabric owns both).
    reg->add_gauge(base + "queue_bytes", [&st] { return st.queue_bytes; });
    reg->add_gauge(base + "queue_pkts", [&st] { return st.queue_pkts; });
    reg->add_counter(base + "drops", [&st] { return st.drops; });
  }
}

void IntCollector::observe(std::uint32_t worker_node, const std::vector<std::uint8_t>& stack,
                           Time now, std::int64_t rtt_ns) {
  if (stack.empty()) return;
  const ParsedStack parsed = parse_stack(stack);
  if (!parsed.ok) {
    ++parse_errors_;
    return;
  }
  if (parsed.truncated) ++truncated_stacks_;
  std::int64_t hop_sum = 0;
  for (const IntHopRecord& rec : parsed.hops) {
    ++records_parsed_;
    const HopKey key = key_of(rec);
    HopState& st = hops_[key];
    st.latency.record(rec.hop_latency_ns);
    st.queue_bytes = rec.queue_bytes;
    st.queue_pkts = rec.queue_pkts;
    if (rec.drops > st.drops) st.drops = rec.drops;
    ++st.samples;
    hop_sum += rec.hop_latency_ns;
    if (localizer_ != nullptr) localizer_->on_record(worker_node, key, rec, now);
  }
  if (localizer_ != nullptr && rtt_ns >= 0) {
    localizer_->on_residual(worker_node, rtt_ns - hop_sum, now);
  }
}

std::vector<IntCollector::HopStats> IntCollector::hop_stats() const {
  std::vector<HopStats> out;
  out.reserve(hops_.size());
  for (const auto& [key, st] : hops_) {
    HopStats s;
    s.key = key;
    s.name = st.name;
    s.samples = st.samples;
    const auto q = st.latency.quantiles();
    s.latency_p50 = q.p50;
    s.latency_p99 = q.p99;
    s.latency_mean = st.latency.mean();
    s.queue_bytes = st.queue_bytes;
    s.queue_pkts = st.queue_pkts;
    s.drops = st.drops;
    out.push_back(std::move(s));
  }
  return out;
}

// --- FaultLocalizer ----------------------------------------------------------

const char* FaultLocalizer::to_string(Verdict::Kind kind) {
  switch (kind) {
    case Verdict::Kind::kSlowLink: return "slow_link";
    case Verdict::Kind::kCongestedHop: return "congested_hop";
    case Verdict::Kind::kStraggler: return "straggler";
    case Verdict::Kind::kSwitchRestarted: return "switch_restarted";
  }
  return "?";
}

FaultLocalizer::FaultLocalizer() : FaultLocalizer(Config{}) {}

FaultLocalizer::FaultLocalizer(Config config, std::function<std::string(std::uint32_t)> name_of)
    : config_(config), name_of_(std::move(name_of)) {
  if (!name_of_) {
    name_of_ = [](std::uint32_t id) { return "node-" + std::to_string(id); };
  }
}

void FaultLocalizer::emit(Verdict::Kind kind, std::uint32_t a, std::uint32_t b,
                          std::uint64_t detail, Time at) {
  verdicts_.push_back(Verdict{kind, a, b, detail, at});
  ++counts_[static_cast<std::size_t>(kind)];
  trace::emit(trace::kCatFault, at, a, "int_verdict",
              {"kind", static_cast<std::int64_t>(kind)}, {"peer", static_cast<std::int64_t>(b)},
              {"detail", static_cast<std::int64_t>(detail)});
}

void FaultLocalizer::on_record(std::uint32_t observer, const HopKey& key, const IntHopRecord& rec,
                               Time now) {
  (void)observer;
  if (key.kind == HopKey::kSwitch) {
    std::uint16_t& last = switch_epochs_[rec.hop_id]; // baseline 0: a fresh dataplane
    if (rec.epoch > last) {
      emit(Verdict::Kind::kSwitchRestarted, rec.hop_id, 0, rec.epoch, now);
      last = rec.epoch;
    }
    return;
  }
  if (key.kind != HopKey::kLink) return; // L2 pipeline records carry no drop counter
  LinkState& s = links_[key];
  if (!s.init) {
    s.init = true;
    s.last_drops = rec.drops;
    s.last_seen = now;
    s.obs = 1;
    return;
  }
  const Time gap = now - s.last_seen;
  s.last_seen = now;
  ++s.obs;
  const std::uint64_t delta = rec.drops > s.last_drops ? rec.drops - s.last_drops : 0;
  s.last_drops = rec.drops;
  if (delta > 0) {
    if (s.obs > static_cast<std::uint64_t>(config_.hop_warmup)) {
      const double threshold =
          std::max(config_.gap_factor * s.gap_ewma, static_cast<double>(config_.gap_floor));
      const Verdict::Kind kind = static_cast<double>(gap) > threshold
                                     ? Verdict::Kind::kSlowLink
                                     : Verdict::Kind::kCongestedHop;
      const std::uint32_t a = std::min(key.hop_id, key.next_hop);
      const std::uint32_t b = std::max(key.hop_id, key.next_hop);
      // One drop verdict per undirected link: both directions (and both
      // classifications) dedup to the first that fired.
      if (drop_flagged_.insert(std::pair{a, b}).second) emit(kind, a, b, delta, now);
    }
  } else if (!s.gap_init) {
    s.gap_ewma = static_cast<double>(gap);
    s.gap_init = true;
  } else {
    s.gap_ewma += config_.gap_alpha * (static_cast<double>(gap) - s.gap_ewma);
  }
}

void FaultLocalizer::on_residual(std::uint32_t worker_node, std::int64_t residual_ns, Time now) {
  WorkerState& s = workers_[worker_node];
  ++s.samples;
  if (s.samples == 1) {
    s.ewma = static_cast<double>(residual_ns);
  } else {
    s.ewma += config_.residual_alpha * (static_cast<double>(residual_ns) - s.ewma);
  }
  if (s.flagged) return;
  if (s.samples < static_cast<std::uint64_t>(config_.residual_warmup)) return;
  std::vector<double> fleet;
  fleet.reserve(workers_.size());
  for (const auto& [id, ws] : workers_) {
    if (ws.samples >= static_cast<std::uint64_t>(config_.residual_warmup)) {
      fleet.push_back(ws.ewma);
    }
  }
  if (fleet.size() < config_.min_workers) return;
  std::nth_element(fleet.begin(), fleet.begin() + fleet.size() / 2, fleet.end());
  const double median = fleet[fleet.size() / 2];
  if (s.ewma > config_.residual_ratio * median + static_cast<double>(config_.residual_floor)) {
    if (++s.consecutive >= config_.residual_consecutive) {
      s.flagged = true;
      emit(Verdict::Kind::kStraggler, worker_node, 0, static_cast<std::uint64_t>(s.ewma), now);
    }
  } else {
    s.consecutive = 0;
  }
}

std::string FaultLocalizer::subject(const Verdict& v) const {
  switch (v.kind) {
    case Verdict::Kind::kSlowLink:
    case Verdict::Kind::kCongestedHop:
      return name_of_(v.a) + "<->" + name_of_(v.b);
    case Verdict::Kind::kStraggler:
    case Verdict::Kind::kSwitchRestarted:
      return name_of_(v.a);
  }
  return name_of_(v.a);
}

json::Value FaultLocalizer::to_json(const Verdict& v) const {
  return json::Object{{"kind", to_string(v.kind)},
                      {"subject", subject(v)},
                      {"a", std::int64_t{v.a}},
                      {"b", std::int64_t{v.b}},
                      {"detail", static_cast<std::int64_t>(v.detail)},
                      {"at_ns", v.at}};
}

} // namespace switchml::inttel
