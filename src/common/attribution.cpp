#include "common/attribution.hpp"

#include <fstream>
#include <stdexcept>

#include "common/json.hpp"
#include "common/metrics.hpp"

namespace switchml::attr {

namespace {

SpanLedger*& ambient_ledger() {
  thread_local SpanLedger* current = nullptr;
  return current;
}

constexpr const char* kComponentNames[kComponentCount] = {
    "host_tx",   "link_queue",   "wire",    "prop",     "switch_wait",
    "switch_ready", "host_rx", "rto_stall", "recovery", "fallback"};

} // namespace

const char* to_string(Component c) { return kComponentNames[static_cast<std::size_t>(c)]; }

SpanLedger::SpanLedger(std::size_t record_capacity) : record_capacity_(record_capacity) {
  records_.reserve(record_capacity_);
}

SpanLedger::NodeSlab& SpanLedger::slab(std::uint32_t node) {
  if (node >= nodes_.size()) nodes_.resize(node + 1);
  auto& p = nodes_[node];
  if (!p) p = std::make_unique<NodeSlab>();
  return *p;
}

SpanLedger::ChunkState* SpanLedger::find(std::uint32_t node, std::uint32_t slot) {
  if (node >= nodes_.size()) return nullptr;
  NodeSlab* n = nodes_[node].get();
  if (n == nullptr || slot >= n->slots.size()) return nullptr;
  ChunkState& s = n->slots[slot];
  return s.is_open ? &s : nullptr;
}

SpanLedger::SwitchSlab& SpanLedger::switch_slab(std::uint64_t key) {
  for (SwitchSlab& s : switches_)
    if (s.key == key) return s;
  switches_.push_back(SwitchSlab{key, {}});
  return switches_.back();
}

// Closes the segment the chunk has been in since `since` and enters `c`.
// `at` may be computed ahead of sim-time; a stale timestamp (before the
// segment start) contributes a zero-length segment so the partition of
// [start, end] stays exact.
void SpanLedger::advance(ChunkState& s, Component c, Time at) {
  if (at > s.since) {
    s.acc[static_cast<std::size_t>(s.cur)] += static_cast<std::uint64_t>(at - s.since);
    s.since = at;
  }
  s.cur = c;
}

void SpanLedger::open(std::uint32_t node, std::uint32_t slot, std::uint64_t off, Time at) {
  NodeSlab& n = slab(node);
  if (slot >= n.slots.size()) n.slots.resize(slot + 1);
  ChunkState& s = n.slots[slot];
  if (s.is_open) ++reopened_;
  s = ChunkState{};
  s.is_open = true;
  s.cur = Component::kHostTx;
  s.start = s.since = at;
  s.off = off;
}

void SpanLedger::transition(std::uint32_t node, std::uint32_t slot, Component c, Time at) {
  if (ChunkState* s = find(node, slot)) advance(*s, c, at);
}

void SpanLedger::transition_matching(std::uint32_t node, std::uint32_t slot, std::uint64_t off,
                                     Component c, Time at) {
  if (ChunkState* s = find(node, slot); s != nullptr && s->off == off) advance(*s, c, at);
}

void SpanLedger::finish(std::uint32_t node, NodeSlab& n, std::uint32_t slot, ChunkState& s,
                        Time at) {
  advance(s, s.cur, at); // close the tail segment; end = max(at, since)
  const Time end = s.since;
  std::uint64_t sum = 0;
  for (std::size_t c = 0; c < kComponentCount; ++c) {
    n.totals[c] += s.acc[c];
    totals_[c] += s.acc[c];
    sum += s.acc[c];
  }
  const auto span = static_cast<std::uint64_t>(end - s.start);
  const std::uint64_t residual = sum > span ? sum - span : span - sum;
  if (residual > max_residual_) max_residual_ = residual;
  ++closed_;
  if (records_.size() < record_capacity_)
    records_.push_back(ChunkRecord{node, slot, s.off, s.start, end, s.acc});
  else
    ++record_drops_;
  s = ChunkState{};
}

void SpanLedger::close(std::uint32_t node, std::uint32_t slot, Time at) {
  if (node >= nodes_.size()) return;
  NodeSlab* n = nodes_[node].get();
  if (n == nullptr || slot >= n->slots.size()) return;
  ChunkState& s = n->slots[slot];
  if (s.is_open) finish(node, *n, slot, s, at);
}

void SpanLedger::transition_all(std::uint32_t node, Component c, Time at) {
  if (node >= nodes_.size()) return;
  NodeSlab* n = nodes_[node].get();
  if (n == nullptr) return;
  for (ChunkState& s : n->slots)
    if (s.is_open) advance(s, c, at);
}

void SpanLedger::close_all(std::uint32_t node, Time at) {
  if (node >= nodes_.size()) return;
  NodeSlab* n = nodes_[node].get();
  if (n == nullptr) return;
  for (std::uint32_t slot = 0; slot < n->slots.size(); ++slot) {
    ChunkState& s = n->slots[slot];
    if (s.is_open) finish(node, *n, slot, s, at);
  }
}

namespace {
// Slot indices are job-local (each job owns its own pool registers on a
// shared switch), so contributor lists key by (switch, job).
std::uint64_t switch_key(std::uint32_t switch_node, std::uint32_t job) {
  return (static_cast<std::uint64_t>(switch_node) << 8) | (job & 0xFFu);
}
} // namespace

void SpanLedger::contribute(std::uint32_t switch_node, std::uint32_t job, std::uint32_t ver,
                            std::uint32_t idx, std::uint32_t contributor, std::uint64_t off,
                            Time at) {
  SwitchSlab& sw = switch_slab(switch_key(switch_node, job));
  if (idx >= sw.slots.size()) sw.slots.resize(idx + 1);
  sw.slots[idx][ver & 1].push_back(contributor);
  transition_matching(contributor, idx, off, Component::kSwitchWait, at);
}

void SpanLedger::complete_slot(std::uint32_t switch_node, std::uint32_t job, std::uint32_t ver,
                               std::uint32_t idx, std::uint64_t off, Time at) {
  SwitchSlab& sw = switch_slab(switch_key(switch_node, job));
  if (idx >= sw.slots.size()) return;
  auto& list = sw.slots[idx][ver & 1];
  for (std::uint32_t node : list) transition_matching(node, idx, off, Component::kSwitchReady, at);
  list.clear();
}

void SpanLedger::sweep_switch(std::uint32_t switch_node, Component c, Time at) {
  // Every job's lists on this switch: the dataplane wipe is switch-wide.
  for (SwitchSlab& sw : switches_) {
    if ((sw.key >> 8) != switch_node) continue;
    for (std::uint32_t idx = 0; idx < sw.slots.size(); ++idx) {
      for (auto& list : sw.slots[idx]) {
        for (std::uint32_t node : list) transition(node, idx, c, at);
        list.clear();
      }
    }
  }
}

std::uint64_t SpanLedger::node_total(std::uint32_t node, Component c) const {
  if (node >= nodes_.size()) return 0;
  const NodeSlab* n = nodes_[node].get();
  return n == nullptr ? 0 : n->totals[static_cast<std::size_t>(c)];
}

std::uint64_t SpanLedger::total(Component c) const {
  return totals_[static_cast<std::size_t>(c)];
}

std::uint64_t SpanLedger::total_ns() const {
  std::uint64_t sum = 0;
  for (std::uint64_t t : totals_) sum += t;
  return sum;
}

std::string SpanLedger::jsonl() const {
  std::string out;
  for (const ChunkRecord& r : records_) {
    json::Value ns(json::Object{});
    for (std::size_t c = 0; c < kComponentCount; ++c)
      ns.set(kComponentNames[c], static_cast<std::int64_t>(r.ns[c]));
    json::Value line(json::Object{{"node", std::int64_t{r.node}}, {"slot", std::int64_t{r.slot}},
                                  {"off", static_cast<std::int64_t>(r.off)},
                                  {"start_ns", r.start}, {"end_ns", r.end}});
    line.set("ns", std::move(ns)); // moved in; an initializer list would copy it
    out += line.dump() + '\n';
  }
  if (record_drops_ > 0) {
    const json::Value marker(
        json::Object{{"records_dropped", static_cast<std::int64_t>(record_drops_)}});
    out += marker.dump() + '\n';
  }
  return out;
}

void SpanLedger::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("SpanLedger: cannot open '" + path + "' for writing");
  out << jsonl();
}

SpanLedger* SpanLedger::current() { return ambient_ledger(); }

SpanLedger::Scope::Scope(SpanLedger* ledger) : prev_(ambient_ledger()) {
  ambient_ledger() = ledger;
}

SpanLedger::Scope::~Scope() { ambient_ledger() = prev_; }

} // namespace switchml::attr
