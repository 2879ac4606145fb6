#include "scenario/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <variant>

#include "core/profiles.hpp"

namespace switchml::scenario {

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& why) {
  throw std::invalid_argument(path + ": " + why);
}

// One parsed JSON object plus its "$."-rooted path. Every key a loader reads
// goes through get()/require(), which records it as known; finish() then
// rejects anything left over, listing the valid keys — a typo fails loudly
// instead of silently falling back to a default.
class Obj {
public:
  Obj(const json::Value& v, std::string path) : v_(v), path_(std::move(path)) {
    if (!v_.is_object())
      fail(path_, std::string("expected an object, got ") + json::to_string(v_.kind()));
  }

  [[nodiscard]] const std::string& path() const { return path_; }

  [[nodiscard]] const json::Value* get(const std::string& key) {
    known_.push_back(key);
    return v_.find(key);
  }

  [[nodiscard]] const json::Value& require(const std::string& key) {
    const json::Value* v = get(key);
    if (v == nullptr) fail(path_, "missing required key \"" + key + "\"");
    return *v;
  }

  void finish() {
    for (const auto& [key, unused] : v_.as_object()) {
      (void)unused;
      if (std::find(known_.begin(), known_.end(), key) != known_.end()) continue;
      std::string valid;
      for (const auto& k : known_) valid += (valid.empty() ? "" : ", ") + k;
      fail(path_ + "." + key, "unknown key (valid keys here: " + valid + ")");
    }
  }

private:
  const json::Value& v_;
  std::string path_;
  std::vector<std::string> known_;
};

// Typed readers; each error names the path and the actual JSON kind.
std::int64_t as_int(const json::Value& v, const std::string& path) {
  if (!v.is_int())
    fail(path, std::string("expected an integer, got ") + json::to_string(v.kind()));
  return v.as_int();
}

double as_num(const json::Value& v, const std::string& path) {
  if (!v.is_number())
    fail(path, std::string("expected a number, got ") + json::to_string(v.kind()));
  return v.as_double();
}

bool as_bool(const json::Value& v, const std::string& path) {
  if (!v.is_bool())
    fail(path, std::string("expected a bool, got ") + json::to_string(v.kind()));
  return v.as_bool();
}

const std::string& as_str(const json::Value& v, const std::string& path) {
  if (!v.is_string())
    fail(path, std::string("expected a string, got ") + json::to_string(v.kind()));
  return v.as_string();
}

const json::Array& as_array(const json::Value& v, const std::string& path) {
  if (!v.is_array())
    fail(path, std::string("expected an array, got ") + json::to_string(v.kind()));
  return v.as_array();
}

// --- the schema --------------------------------------------------------------
//
// fields(s, f) below is the whole schema: for each section's struct, one row
// f(key, member, ...) per key, in the order to_json emits them. from_json
// walks it with a Reader, to_json with a Writer. An absent key keeps the
// member's initializer (FabricParams{}, Workload{}, the fault specs); only
// pool_size and elems_per_packet have a default rule (load_fabric).

// What a key's value must be, in the file's units: present when `required`;
// from lo to hi (hi excluded when hi_open), or one of `one_of` when that is
// non-empty. An integer must also fit its member.
struct Rule {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool hi_open = false;
  std::span<const double> one_of = {};
  bool required = false;
};

constexpr Rule at_least(double lo) { return {lo}; }
constexpr Rule kRequired{.required = true};
constexpr double kWireWidths[] = {1, 2, 4}; // int8, fp16, int32
// The two rates are written in Gbit/s and held in bit/s.
constexpr double kGbps = 1e9;

// A named value. from_json reads each name as its value; to_json writes a
// value's first name.
template <class T>
struct Name {
  const char* name;
  T value;
};

constexpr Name<net::TransportKind> kTransports[] = {{"udp", net::TransportKind::kUdp},
                                                    {"rdma_uc", net::TransportKind::kRdmaUc}};
constexpr Name<std::uint8_t> kIntModes[] = {
    {"off", inttel::kModeOff}, {"phantom", inttel::kModePhantom}, {"on_wire", inttel::kModeOnWire}};
constexpr Name<NicProfile> kNicProfiles[] = {{"switchml", NicProfile::kSwitchml},
                                             {"crossover_udp", NicProfile::kCrossoverUdp},
                                             {"ps_host", NicProfile::kPsHost}};
// The calibrated NIC of each profile, in NicProfile's order.
constexpr net::NicConfig (*kNicOf[])(BitsPerSecond, int) = {
    core::switchml_worker_nic, core::crossover_udp_nic, core::ps_host_nic};
constexpr Name<bool> kModes[] = {{"timing", true}, {"data", false}};
constexpr Name<core::PsPlacement> kPlacements[] = {{"dedicated", core::PsPlacement::Dedicated},
                                                   {"colocated", core::PsPlacement::Colocated}};

// TopologySpec's alternatives in order, each with its default spec.
std::span<const Name<core::TopologySpec>> kinds() {
  static const Name<core::TopologySpec> k[] = {
      {"rack", core::RackSpec{}},           {"multi_job", core::MultiJobSpec{}},
      {"hierarchy", core::HierarchySpec{}}, {"tree", core::TreeSpec{}},
      {"irregular", core::IrregularSpec{}}, {"streaming_ps", core::StreamingPsSpec{}}};
  return k;
}

// `s` is one section's struct, const when writing.
template <class S, class F>
void fields(S& s, F&& f) {
  using T = std::remove_const_t<S>;
  if constexpr (std::is_same_v<T, core::RackSpec>) {
    f("workers", s.n_workers);
  } else if constexpr (std::is_same_v<T, core::MultiJobSpec>) {
    f("jobs", s.n_jobs);
    f("workers_per_job", s.workers_per_job);
  } else if constexpr (std::is_same_v<T, core::HierarchySpec>) {
    f("racks", s.racks);
    f("workers_per_rack", s.workers_per_rack);
  } else if constexpr (std::is_same_v<T, core::TreeSpec>) {
    f("levels", s.levels);
    f("branching", s.branching);
    f("workers_per_rack", s.workers_per_rack);
  } else if constexpr (std::is_same_v<T, core::IrregularSpec>) {
    f("switch_parent", s.switch_parent, kRequired);
    f("worker_switch", s.worker_switch, kRequired);
  } else if constexpr (std::is_same_v<T, core::StreamingPsSpec>) {
    f("workers", s.n_workers);
    f("placement", s.placement, kPlacements);
  } else if constexpr (std::is_same_v<T, Scenario>) { // the fabric section
    auto& p = s.fabric;
    f("link_rate_gbps", p.link_rate, at_least(1e-9), kGbps); // >= 1 bit/s
    f("uplink_rate_gbps", p.uplink_rate, at_least(0), kGbps); // 0: as link_rate
    f("propagation_ns", p.propagation, at_least(0));
    f("switch_latency_ns", p.switch_latency, at_least(0));
    f("queue_limit_bytes", p.queue_limit_bytes); // at least one frame: load_fabric
    f("loss_prob", p.loss_prob, Rule{0, 1, true});
    f("pool_size", p.pool_size, at_least(1));
    // At most 2^24 values keep a frame's 32-bit wire size exact.
    f("elems_per_packet", p.elems_per_packet, Rule{1, 0x1p24});
    f("wire_elem_bytes", p.wire_elem_bytes, Rule{.one_of = kWireWidths});
    f("mtu_emulation", p.mtu_emulation);
    f("retransmit_timeout_ns", p.retransmit_timeout, at_least(1));
    f("adaptive_rto", p.adaptive_rto);
    f("lossless", p.lossless);
    f("sram_budget_bytes", p.sram_budget_bytes);
    f("fp16_frac_bits", p.fp16_frac_bits, Rule{0, 30}); // what quant::Fp16Table takes
    f("ablate_shadow_copy", p.ablate_shadow_copy);
    f("ablate_seen_bitmap", p.ablate_seen_bitmap);
    f("seed", p.seed);
    f("sync_after", p.sync_after, at_least(0)); // 0 disables the stage
    f("dead_after", p.dead_after, at_least(0));
    f("fallback_reprovision_ns", p.fallback_reprovision, at_least(0));
    f("transport", p.transport, kTransports);
    f("rdma", p.rdma);
    f("int_mode", p.int_mode, kIntModes);
    f("nic", s.nic_selection);
  } else if constexpr (std::is_same_v<T, net::RdmaUcParams>) {
    f("wqe_post_ns", s.wqe_post, at_least(0));
    f("doorbell_ns", s.doorbell, at_least(0));
    f("doorbell_batch", s.doorbell_batch, at_least(1));
    f("cqe_poll_ns", s.cqe_poll, at_least(0));
    f("tx_latency_ns", s.tx_latency, at_least(0));
    f("rx_latency_ns", s.rx_latency, at_least(0));
  } else if constexpr (std::is_same_v<T, NicSelection>) {
    f("profile", s.profile, kNicProfiles);
    f("cores", s.cores, at_least(1));
  } else if constexpr (std::is_same_v<T, Workload>) {
    f("mode", s.timing, kModes);
    f("tensor_elems", s.tensor_elems, at_least(1));
    f("reductions", s.reductions, at_least(1));
    f("data_seed", s.data_seed);
  } else if constexpr (std::is_same_v<T, core::FaultPlan>) {
    // Each kind's times, indices and factors are checked against the shape
    // by core::validate_fault_plan (from_json).
    f("stragglers", s.stragglers);
    f("flaps", s.flaps);
    f("flap_cycles", s.flap_cycles);
    f("bursts", s.bursts);
    f("switch_restarts", s.switch_restarts);
    f("switch_kills", s.switch_kills);
  } else if constexpr (std::is_same_v<T, core::StragglerSpec>) {
    f("worker", s.worker, kRequired);
    f("factor", s.factor, kRequired);
    f("start_ns", s.start);
    f("stop_ns", s.stop);
  } else if constexpr (std::is_same_v<T, core::LinkFlapSpec>) {
    f("link", s.link, kRequired);
    f("down_ns", s.down_at, kRequired);
    f("up_ns", s.up_at, kRequired);
  } else if constexpr (std::is_same_v<T, core::LinkFlapCycleSpec>) {
    f("link", s.link, kRequired);
    f("period_ns", s.period, kRequired);
    f("duty_down", s.duty_down, kRequired);
    f("start_ns", s.start);
    f("cycles", s.cycles);
  } else if constexpr (std::is_same_v<T, core::BurstLossSpec>) {
    f("link", s.link);
    f("p_enter", s.gilbert.p_enter, kRequired);
    f("p_exit", s.gilbert.p_exit, kRequired);
    f("loss_good", s.gilbert.loss_good);
    f("loss_bad", s.gilbert.loss_bad, kRequired);
  } else { // a switch restart or kill
    static_assert(std::is_same_v<T, core::SwitchRestartSpec> ||
                  std::is_same_v<T, core::SwitchKillSpec>);
    f("switch", s.switch_index, kRequired);
    f("at_ns", s.at, kRequired);
  }
}

// --- walking the schema ------------------------------------------------------

std::string str(double x) {
  if (x == std::trunc(x) && std::abs(x) < 0x1p53)
    return std::to_string(static_cast<std::int64_t>(x));
  return json::Value(x).dump();
}

// "must be ..."; a bound at or past a JSON integer's reach is no bound.
std::string describe(const Rule& r) {
  std::string s;
  for (double x : r.one_of) s += (s.empty() ? "one of " : ", ") + str(x);
  if (!s.empty()) return s;
  if (r.hi >= 0x1p63) return ">= " + str(r.lo);
  return "in [" + str(r.lo) + ", " + str(r.hi) + (r.hi_open ? ")" : "]");
}

bool allows(const Rule& r, double x) {
  if (!r.one_of.empty()) return std::find(r.one_of.begin(), r.one_of.end(), x) != r.one_of.end();
  return x >= r.lo && (r.hi_open ? x < r.hi : x <= r.hi);
}

// A bool or a number held in a T, `scale` member units to one file unit.
template <class T>
T read_number(const json::Value& v, const std::string& path, Rule r, double scale) {
  if constexpr (std::is_same_v<T, bool>) {
    return as_bool(v, path);
  } else {
    if constexpr (std::is_integral_v<T>) { // cut to what T holds
      r.lo = std::max(r.lo, static_cast<double>(std::numeric_limits<T>::min()) / scale);
      const double top = (static_cast<double>(std::numeric_limits<T>::max()) + 1) / scale;
      if (top <= r.hi) {
        r.hi = scale == 1 ? top - 1 : top;
        r.hi_open = scale != 1;
      }
    }
    const bool exact = std::is_integral_v<T> && scale == 1;
    const double x = exact ? static_cast<double>(as_int(v, path)) : as_num(v, path);
    if (!allows(r, x)) fail(path, "must be " + describe(r));
    if constexpr (std::is_integral_v<T>)
      return exact ? static_cast<T>(v.as_int()) : static_cast<T>(std::llround(x * scale));
    else
      return x;
  }
}

template <class T>
const Name<T>& by_name(std::span<const Name<T>> names, const std::string& name,
                       const std::string& path, const std::string& what) {
  for (const Name<T>& n : names)
    if (name == n.name) return n;
  std::string valid;
  for (const Name<T>& n : names) valid += (valid.empty() ? "" : ", ") + std::string(n.name);
  fail(path, "unknown " + what + " \"" + name + "\" (valid: " + valid + ")");
}

template <class S> void read_section(const json::Value& v, const std::string& path, S& s);
template <class S> json::Value write_section(const S& s);

// Reads each row's key of one object into its member.
class Reader {
public:
  explicit Reader(Obj& o) : o_(o) {}

  template <class T>
    requires std::is_arithmetic_v<T>
  void operator()(const char* key, T& m, const Rule& rule = {}, double scale = 1) {
    if (const json::Value* v = find(key, rule)) m = read_number<T>(*v, at(key), rule, scale);
  }

  template <class T, std::size_t N>
  void operator()(const char* key, T& m, const Name<T> (&names)[N]) {
    if (const json::Value* v = find(key, {}))
      m = by_name<T>(names, as_str(*v, at(key)), at(key), key).value;
  }

  void operator()(const char* key, std::vector<int>& m, const Rule& rule) {
    const json::Value* v = find(key, rule);
    if (v == nullptr) return;
    const json::Array& a = as_array(*v, at(key));
    m.clear();
    for (std::size_t i = 0; i < a.size(); ++i)
      m.push_back(read_number<int>(a[i], at(key) + "[" + std::to_string(i) + "]", {}, 1));
  }

  template <class E>
  void operator()(const char* key, std::vector<E>& m) {
    if (const json::Value* v = find(key, {})) {
      const json::Array& a = as_array(*v, at(key));
      for (std::size_t i = 0; i < a.size(); ++i)
        read_section(a[i], at(key) + "[" + std::to_string(i) + "]", m.emplace_back());
    }
  }

  template <class M>
    requires std::is_class_v<M>
  void operator()(const char* key, M& m) {
    if (const json::Value* v = find(key, {})) read_section(*v, at(key), m);
  }

private:
  const json::Value* find(const char* key, const Rule& rule) {
    return rule.required ? &o_.require(key) : o_.get(key);
  }
  std::string at(const char* key) const { return o_.path() + "." + key; }

  Obj& o_;
};

// Writes each row's member under its key, in schema order.
class Writer {
public:
  explicit Writer(json::Value& out) : out_(out) {}

  template <class T>
    requires std::is_arithmetic_v<T>
  void operator()(const char* key, const T& m, const Rule& = {}, double scale = 1) {
    if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>)
      out_.set(key, scale != 1 ? json::Value(static_cast<double>(m) / scale)
                               : json::Value(static_cast<std::int64_t>(m)));
    else
      out_.set(key, m);
  }

  // The first name of the value.
  template <class T, std::size_t N>
  void operator()(const char* key, const T& m, const Name<T> (&names)[N]) {
    for (const Name<T>& n : names)
      if (n.value == m) return out_.set(key, n.name);
    throw std::logic_error(std::string("to_json: no name for this ") + key);
  }

  void operator()(const char* key, const std::vector<int>& m, const Rule&) {
    out_.set(key, json::Array(m.begin(), m.end()));
  }

  // Written only when non-empty.
  template <class E>
  void operator()(const char* key, const std::vector<E>& m) {
    if (m.empty()) return;
    json::Array a;
    for (const E& e : m) a.push_back(write_section(e));
    out_.set(key, std::move(a));
  }

  template <class M>
    requires std::is_class_v<M>
  void operator()(const char* key, const M& m) {
    out_.set(key, write_section(m));
  }

private:
  json::Value& out_;
};

template <class S>
void read_section(const json::Value& v, const std::string& path, S& s) {
  Obj o(v, path);
  fields(s, Reader(o));
  o.finish();
}

template <class S>
json::Value write_section(const S& s) {
  json::Value out;
  fields(s, Writer(out));
  return out;
}

// --- sections with more than their rows --------------------------------------

core::TopologySpec load_topology(const json::Value& v, const std::string& path) {
  Obj o(v, path);
  const std::string& kind = as_str(o.require("kind"), path + ".kind");
  core::TopologySpec spec = by_name(kinds(), kind, path + ".kind", "topology kind").value;
  std::visit([&](auto& t) { fields(t, Reader(o)); }, spec);
  o.finish();
  // Structural validation now, with the topology's path on the error.
  try {
    core::validate_topology(spec);
  } catch (const std::invalid_argument& e) {
    fail(path, e.what());
  }
  return spec;
}

// Workers a parameter server answers on this fabric: a streaming PS's, or,
// on a single-job switch tree whose workers may declare the switch dead, the
// job's, which Fabric::fallback replays on a dedicated PS; 0 when no PS runs.
int ps_served_workers(const Scenario& s) {
  if (const auto* ps = std::get_if<core::StreamingPsSpec>(&s.topology)) return ps->n_workers;
  if (s.fabric.dead_after == 0 || s.fabric.lossless) return 0;
  const std::vector<int> jobs = core::lower_topology(s.topology).worker_job;
  if (std::any_of(jobs.begin(), jobs.end(), [](int j) { return j != 0; })) return 0; // no fallback
  return static_cast<int>(jobs.size());
}

void load_fabric(const json::Value& v, const std::string& path, Scenario& s) {
  read_section(v, path, s);
  core::FabricParams& p = s.fabric;
  // The two keys whose default follows another key's value.
  if (v.find("pool_size") == nullptr) p.pool_size = core::switchml_pool_size(p.link_rate);
  if (v.find("elems_per_packet") == nullptr)
    p.elems_per_packet = p.mtu_emulation ? net::kMtuElemsPerPacket : net::kDefaultElemsPerPacket;
  p.nic = kNicOf[static_cast<std::size_t>(s.nic_selection.profile)](p.link_rate,
                                                                    s.nic_selection.cores);

  if (p.lossless && p.loss_prob > 0)
    fail(path, "lossless mode requires loss_prob == 0 (the network contract IS zero loss)");
  // Link::transmit drops a frame its queue cannot hold, so a queue smaller
  // than one update (with a full INT stack when that is on the wire) drops
  // every update.
  net::Packet frame;
  frame.kind = net::PacketKind::SmlUpdate;
  frame.transport = p.transport;
  frame.elem_count = p.elems_per_packet;
  frame.elem_bytes = p.wire_elem_bytes;
  frame.int_mode = p.int_mode;
  frame.int_stack.resize(inttel::kShimBytes + inttel::kMaxHops * inttel::kRecordBytes);
  if (p.queue_limit_bytes < frame.wire_bytes())
    fail(path + ".queue_limit_bytes",
         "must hold one update frame (" + std::to_string(frame.wire_bytes()) + " bytes)");
  // The workers run in lockstep, so every worker's copy of a slot reaches
  // the PS's switch port at the same instant; a queue that holds fewer
  // frames than that drops the same copies every round, and no slot ever
  // completes.
  const std::int64_t served = ps_served_workers(s);
  if (p.queue_limit_bytes < served * frame.wire_bytes())
    fail(path + ".queue_limit_bytes",
         "must hold one update frame per worker the parameter server serves (" +
             std::to_string(served) + " x " + std::to_string(frame.wire_bytes()) + " = " +
             std::to_string(served * frame.wire_bytes()) + " bytes)");
}

} // namespace

core::FaultTargets shape_counts(const core::TopologySpec& topology) {
  if (const auto* ps = std::get_if<core::StreamingPsSpec>(&topology)) {
    core::validate_topology(topology);
    // No aggregation switch; a worker uplink each, plus a PS uplink each
    // when the PS hosts are dedicated.
    const auto n = static_cast<std::size_t>(ps->n_workers);
    const bool dedicated = ps->placement == core::PsPlacement::Dedicated;
    return core::FaultTargets{ps->n_workers, dedicated ? 2 * n : n, 0};
  }
  const core::IrregularSpec spec = core::lower_topology(topology).spec;
  const std::size_t switches = spec.switch_parent.size();
  const std::size_t workers = spec.worker_switch.size();
  // One uplink per worker and per non-root switch.
  return core::FaultTargets{static_cast<int>(workers), workers + switches - 1, switches};
}

Scenario from_json(const json::Value& doc) {
  Obj o(doc, "$");
  Scenario s;
  const std::int64_t version = as_int(o.require("schema_version"), "$.schema_version");
  if (version != Scenario::kSchemaVersion)
    fail("$.schema_version", "unsupported version " + std::to_string(version) + " (this build reads " +
                                 std::to_string(Scenario::kSchemaVersion) + ")");
  s.name = as_str(o.require("name"), "$.name");
  if (s.name.empty()) fail("$.name", "must be non-empty");
  if (const json::Value* d = o.get("description")) s.description = as_str(*d, "$.description");
  s.topology = load_topology(o.require("topology"), "$.topology");
  // An absent fabric section is an empty one: the same defaults and NIC.
  const json::Value* fabric = o.get("fabric");
  load_fabric(fabric != nullptr ? *fabric : json::Value(json::Object{}), "$.fabric", s);
  if (const json::Value* w = o.get("workload")) read_section(*w, "$.workload", s.workload);
  if (const json::Value* f = o.get("faults")) read_section(*f, "$.faults", s.fabric.faults);
  o.finish();

  // Eager FaultPlan validation against the shape — the PR 5 messages
  // ("FaultPlan: flap_cycles[2] at t=... ns: ...") surface at load time,
  // JSON-path-qualified, without building a fabric.
  try {
    core::validate_fault_plan(s.fabric.faults, shape_counts(s.topology), s.fabric.lossless);
  } catch (const std::invalid_argument& e) {
    fail("$.faults", e.what());
  }
  return s;
}

Scenario load_string(std::string_view text) { return from_json(json::parse(text)); }

Scenario load_file(const std::string& path) {
  try {
    return from_json(json::parse_file(path));
  } catch (const json::ParseError&) {
    throw; // already carries the file name
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

json::Value to_json(const Scenario& s) {
  json::Value doc;
  doc.set("schema_version", Scenario::kSchemaVersion);
  doc.set("name", s.name);
  if (!s.description.empty()) doc.set("description", s.description);
  json::Value topo;
  topo.set("kind", kinds()[s.topology.index()].name);
  std::visit([&](const auto& t) { fields(t, Writer(topo)); }, s.topology);
  doc.set("topology", std::move(topo));
  doc.set("fabric", write_section(s));
  doc.set("workload", write_section(s.workload));
  if (!s.fabric.faults.empty()) doc.set("faults", write_section(s.fabric.faults));
  return doc;
}

core::FabricConfig to_fabric_config(const Scenario& s) {
  core::FabricConfig fc(s.fabric, s.topology);
  fc.timing_only = s.workload.timing;
  return fc;
}

std::vector<std::vector<std::int32_t>> make_updates(int workers, std::uint64_t elems,
                                                    std::uint64_t seed) {
  std::vector<std::vector<std::int32_t>> u(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    auto& vec = u[static_cast<std::size_t>(w)];
    vec.resize(elems);
    // splitmix64 stream per (seed, worker).
    std::uint64_t x = seed ^ (0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(w + 1));
    for (auto& v : vec) {
      x += 0x9E3779B97F4A7C15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      z ^= z >> 31;
      v = static_cast<std::int32_t>(z & 0xFFFF) - 0x8000;
    }
  }
  return u;
}

std::vector<std::int32_t> expected_sum(const std::vector<std::vector<std::int32_t>>& updates) {
  std::vector<std::int32_t> out(updates.empty() ? 0 : updates.front().size(), 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::uint32_t acc = 0; // wrapping, order-independent — like the switch ALU
    for (const auto& u : updates) acc += static_cast<std::uint32_t>(u[i]);
    out[i] = static_cast<std::int32_t>(acc);
  }
  return out;
}

RunResult run(const Scenario& s, const RunHooks& hooks) {
  core::Fabric fabric(to_fabric_config(s));
  if (hooks.on_built) hooks.on_built(fabric);
  RunResult out;
  out.data_bit_exact = true;
  for (int rep = 0; rep < s.workload.reductions; ++rep) {
    std::vector<Time> tats;
    if (s.workload.timing) {
      tats = fabric.reduce_timing(s.workload.tensor_elems);
    } else {
      const auto updates = make_updates(fabric.workers_per_job(), s.workload.tensor_elems,
                                        s.workload.data_seed + static_cast<std::uint64_t>(rep));
      auto r = fabric.reduce_i32_job(0, updates);
      const auto want = expected_sum(updates);
      out.data_checked = true;
      for (const auto& got : r.outputs)
        if (got != want) out.data_bit_exact = false;
      tats = std::move(r.tat);
    }
    if (hooks.on_reduction) hooks.on_reduction(fabric, rep, tats);
    out.tats.push_back(std::move(tats));
  }
  if (!out.data_checked) out.data_bit_exact = false;
  out.fallback_engaged = fabric.fallback_engaged();
  for (int i = 0; i < fabric.n_workers(); ++i)
    out.dead_declared += fabric.worker(i).recovery().dead_declared;
  return out;
}

} // namespace switchml::scenario
