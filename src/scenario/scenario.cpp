#include "scenario/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/profiles.hpp"

namespace switchml::scenario {

namespace {

template <class... Ts> struct overloaded : Ts... { using Ts::operator()...; };
template <class... Ts> overloaded(Ts...) -> overloaded<Ts...>;

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

std::int64_t opt_int(Obj& o, const std::string& key, std::int64_t fallback) {
  const json::Value* v = o.get(key);
  return v != nullptr ? as_int(*v, o.path() + "." + key) : fallback;
}

double opt_num(Obj& o, const std::string& key, double fallback) {
  const json::Value* v = o.get(key);
  return v != nullptr ? as_num(*v, o.path() + "." + key) : fallback;
}

bool opt_bool(Obj& o, const std::string& key, bool fallback) {
  const json::Value* v = o.get(key);
  return v != nullptr ? as_bool(*v, o.path() + "." + key) : fallback;
}

std::string opt_str(Obj& o, const std::string& key, std::string fallback) {
  const json::Value* v = o.get(key);
  return v != nullptr ? as_str(*v, o.path() + "." + key) : std::move(fallback);
}

std::vector<int> as_int_array(const json::Value& v, const std::string& path) {
  if (!v.is_array())
    fail(path, std::string("expected an array of integers, got ") + json::to_string(v.kind()));
  std::vector<int> out;
  const auto& a = v.as_array();
  out.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    out.push_back(
        static_cast<int>(as_int(a[i], path + "[" + std::to_string(i) + "]")));
  return out;
}

// --- sections ----------------------------------------------------------------

core::TopologySpec load_topology(const json::Value& v, const std::string& path) {
  Obj o(v, path);
  const std::string kind = as_str(o.require("kind"), path + ".kind");
  core::TopologySpec spec;
  if (kind == "rack") {
    core::RackSpec s;
    s.n_workers = static_cast<int>(opt_int(o, "workers", s.n_workers));
    spec = s;
  } else if (kind == "multi_job") {
    core::MultiJobSpec s;
    s.n_jobs = static_cast<int>(opt_int(o, "jobs", s.n_jobs));
    s.workers_per_job = static_cast<int>(opt_int(o, "workers_per_job", s.workers_per_job));
    spec = s;
  } else if (kind == "hierarchy") {
    core::HierarchySpec s;
    s.racks = static_cast<int>(opt_int(o, "racks", s.racks));
    s.workers_per_rack = static_cast<int>(opt_int(o, "workers_per_rack", s.workers_per_rack));
    spec = s;
  } else if (kind == "tree") {
    core::TreeSpec s;
    s.levels = static_cast<int>(opt_int(o, "levels", s.levels));
    s.branching = static_cast<int>(opt_int(o, "branching", s.branching));
    s.workers_per_rack = static_cast<int>(opt_int(o, "workers_per_rack", s.workers_per_rack));
    spec = s;
  } else if (kind == "irregular") {
    core::IrregularSpec s;
    s.switch_parent = as_int_array(o.require("switch_parent"), path + ".switch_parent");
    s.worker_switch = as_int_array(o.require("worker_switch"), path + ".worker_switch");
    spec = s;
  } else if (kind == "streaming_ps") {
    core::StreamingPsSpec s;
    s.n_workers = static_cast<int>(opt_int(o, "workers", s.n_workers));
    const std::string placement = opt_str(o, "placement", "dedicated");
    if (placement == "colocated")
      s.placement = core::PsPlacement::Colocated;
    else if (placement != "dedicated")
      fail(path + ".placement",
           "unknown placement \"" + placement + "\" (valid: dedicated, colocated)");
    spec = s;
  } else {
    fail(path + ".kind",
         "unknown topology kind \"" + kind +
             "\" (valid: rack, multi_job, hierarchy, tree, irregular, streaming_ps)");
  }
  o.finish();
  // Structural validation now, with the topology's path on the error.
  try {
    core::validate_topology(spec);
  } catch (const std::invalid_argument& e) {
    fail(path, e.what());
  }
  return spec;
}

void load_faults(const json::Value& v, const std::string& path, core::FaultPlan& plan) {
  Obj o(v, path);
  const auto each = [&](const char* key, auto&& parse_one) {
    const json::Value* arr = o.get(key);
    if (arr == nullptr) return;
    const std::string apath = path + "." + key;
    if (!arr->is_array())
      fail(apath, std::string("expected an array, got ") + json::to_string(arr->kind()));
    const auto& a = arr->as_array();
    for (std::size_t i = 0; i < a.size(); ++i)
      parse_one(a[i], apath + "[" + std::to_string(i) + "]");
  };
  each("stragglers", [&](const json::Value& e, const std::string& p) {
    Obj f(e, p);
    core::StragglerSpec s;
    s.worker = static_cast<int>(as_int(f.require("worker"), p + ".worker"));
    s.factor = as_num(f.require("factor"), p + ".factor");
    s.start = opt_int(f, "start_ns", 0);
    s.stop = opt_int(f, "stop_ns", -1);
    f.finish();
    plan.stragglers.push_back(s);
  });
  each("flaps", [&](const json::Value& e, const std::string& p) {
    Obj f(e, p);
    core::LinkFlapSpec s;
    s.link = static_cast<std::size_t>(as_int(f.require("link"), p + ".link"));
    s.down_at = as_int(f.require("down_ns"), p + ".down_ns");
    s.up_at = as_int(f.require("up_ns"), p + ".up_ns");
    f.finish();
    plan.flaps.push_back(s);
  });
  each("flap_cycles", [&](const json::Value& e, const std::string& p) {
    Obj f(e, p);
    core::LinkFlapCycleSpec s;
    s.link = static_cast<std::size_t>(as_int(f.require("link"), p + ".link"));
    s.period = as_int(f.require("period_ns"), p + ".period_ns");
    s.duty_down = as_num(f.require("duty_down"), p + ".duty_down");
    s.start = opt_int(f, "start_ns", 0);
    s.cycles = static_cast<int>(opt_int(f, "cycles", 0));
    f.finish();
    plan.flap_cycles.push_back(s);
  });
  each("bursts", [&](const json::Value& e, const std::string& p) {
    Obj f(e, p);
    core::BurstLossSpec s;
    s.link = static_cast<int>(opt_int(f, "link", -1));
    s.gilbert.p_enter = as_num(f.require("p_enter"), p + ".p_enter");
    s.gilbert.p_exit = as_num(f.require("p_exit"), p + ".p_exit");
    s.gilbert.loss_good = opt_num(f, "loss_good", 0.0);
    s.gilbert.loss_bad = as_num(f.require("loss_bad"), p + ".loss_bad");
    f.finish();
    plan.bursts.push_back(s);
  });
  each("switch_restarts", [&](const json::Value& e, const std::string& p) {
    Obj f(e, p);
    core::SwitchRestartSpec s;
    s.switch_index = static_cast<std::size_t>(as_int(f.require("switch"), p + ".switch"));
    s.at = as_int(f.require("at_ns"), p + ".at_ns");
    f.finish();
    plan.switch_restarts.push_back(s);
  });
  each("switch_kills", [&](const json::Value& e, const std::string& p) {
    Obj f(e, p);
    core::SwitchKillSpec s;
    s.switch_index = static_cast<std::size_t>(as_int(f.require("switch"), p + ".switch"));
    s.at = as_int(f.require("at_ns"), p + ".at_ns");
    f.finish();
    plan.switch_kills.push_back(s);
  });
  o.finish();
}

void load_fabric(const json::Value& v, const std::string& path, Scenario& s) {
  Obj o(v, path);
  core::FabricParams& p = s.fabric;
  const double rate_gbps = opt_num(o, "link_rate_gbps", 10.0);
  if (rate_gbps <= 0) fail(path + ".link_rate_gbps", "rate must be > 0");
  p.link_rate = static_cast<BitsPerSecond>(std::llround(rate_gbps * 1e9));
  const double up_gbps = opt_num(o, "uplink_rate_gbps", 0.0);
  if (up_gbps < 0) fail(path + ".uplink_rate_gbps", "rate must be >= 0 (0 = same as link)");
  p.uplink_rate = static_cast<BitsPerSecond>(std::llround(up_gbps * 1e9));
  p.propagation = opt_int(o, "propagation_ns", p.propagation);
  p.switch_latency = opt_int(o, "switch_latency_ns", p.switch_latency);
  p.queue_limit_bytes = opt_int(o, "queue_limit_bytes", p.queue_limit_bytes);
  p.loss_prob = opt_num(o, "loss_prob", 0.0);
  if (p.loss_prob < 0 || p.loss_prob >= 1) fail(path + ".loss_prob", "must be in [0, 1)");
  // Absent pool_size follows ClusterConfig::for_rate's §3.6 rule so a
  // scenario file matches what the benches build for the same rate.
  const std::int64_t pool =
      opt_int(o, "pool_size", p.link_rate >= gbps(100) ? 512 : 128);
  if (pool < 1) fail(path + ".pool_size", "must be >= 1");
  p.pool_size = static_cast<std::uint32_t>(pool);
  p.mtu_emulation = opt_bool(o, "mtu_emulation", false);
  p.elems_per_packet = static_cast<std::uint32_t>(
      opt_int(o, "elems_per_packet",
              p.mtu_emulation ? net::kMtuElemsPerPacket : net::kDefaultElemsPerPacket));
  p.wire_elem_bytes = static_cast<std::uint8_t>(opt_int(o, "wire_elem_bytes", 4));
  p.retransmit_timeout = opt_int(o, "retransmit_timeout_ns", p.retransmit_timeout);
  p.adaptive_rto = opt_bool(o, "adaptive_rto", false);
  p.lossless = opt_bool(o, "lossless", false);
  p.sram_budget_bytes =
      static_cast<std::size_t>(opt_int(o, "sram_budget_bytes",
                                       static_cast<std::int64_t>(p.sram_budget_bytes)));
  p.fp16_frac_bits = static_cast<int>(opt_int(o, "fp16_frac_bits", p.fp16_frac_bits));
  p.ablate_shadow_copy = opt_bool(o, "ablate_shadow_copy", false);
  p.ablate_seen_bitmap = opt_bool(o, "ablate_seen_bitmap", false);
  p.seed = static_cast<std::uint64_t>(opt_int(o, "seed", static_cast<std::int64_t>(p.seed)));
  p.sync_after = static_cast<int>(opt_int(o, "sync_after", p.sync_after));
  p.dead_after = static_cast<int>(opt_int(o, "dead_after", p.dead_after));
  p.fallback_reprovision =
      opt_int(o, "fallback_reprovision_ns", p.fallback_reprovision);

  const std::string transport = opt_str(o, "transport", "default");
  if (transport == "udp") p.transport = net::TransportKind::kUdp;
  else if (transport == "rdma_uc") p.transport = net::TransportKind::kRdmaUc;
  else if (transport == "default") p.transport = net::kDefaultTransport;
  else fail(path + ".transport", "unknown transport \"" + transport +
                                     "\" (valid: udp, rdma_uc, default)");
  if (const json::Value* rv = o.get("rdma")) {
    const std::string rp = path + ".rdma";
    Obj r(*rv, rp);
    p.rdma.wqe_post = opt_int(r, "wqe_post_ns", p.rdma.wqe_post);
    p.rdma.doorbell = opt_int(r, "doorbell_ns", p.rdma.doorbell);
    p.rdma.doorbell_batch = static_cast<int>(opt_int(r, "doorbell_batch", p.rdma.doorbell_batch));
    p.rdma.cqe_poll = opt_int(r, "cqe_poll_ns", p.rdma.cqe_poll);
    p.rdma.tx_latency = opt_int(r, "tx_latency_ns", p.rdma.tx_latency);
    p.rdma.rx_latency = opt_int(r, "rx_latency_ns", p.rdma.rx_latency);
    r.finish();
  }

  const std::string int_mode = opt_str(o, "int_mode", "off");
  if (int_mode == "off") p.int_mode = inttel::kModeOff;
  else if (int_mode == "phantom") p.int_mode = inttel::kModePhantom;
  else if (int_mode == "on_wire") p.int_mode = inttel::kModeOnWire;
  else fail(path + ".int_mode", "unknown int_mode \"" + int_mode +
                                    "\" (valid: off, phantom, on_wire)");

  if (const json::Value* nv = o.get("nic")) {
    const std::string np = path + ".nic";
    Obj n(*nv, np);
    const std::string profile = opt_str(n, "profile", "switchml");
    if (profile == "switchml") s.nic_selection.profile = NicProfile::kSwitchml;
    else if (profile == "crossover_udp") s.nic_selection.profile = NicProfile::kCrossoverUdp;
    else if (profile == "ps_host") s.nic_selection.profile = NicProfile::kPsHost;
    else fail(np + ".profile", "unknown NIC profile \"" + profile +
                                   "\" (valid: switchml, crossover_udp, ps_host)");
    s.nic_selection.cores = static_cast<int>(opt_int(n, "cores", 4));
    if (s.nic_selection.cores < 1) fail(np + ".cores", "must be >= 1");
    n.finish();
  }
  switch (s.nic_selection.profile) {
  case NicProfile::kSwitchml:
    p.nic = core::switchml_worker_nic(p.link_rate, s.nic_selection.cores);
    break;
  case NicProfile::kCrossoverUdp:
    p.nic = core::crossover_udp_nic(p.link_rate, s.nic_selection.cores);
    break;
  case NicProfile::kPsHost:
    p.nic = core::ps_host_nic(p.link_rate, s.nic_selection.cores);
    break;
  }
  o.finish();

  if (p.lossless && p.loss_prob > 0)
    fail(path, "lossless mode requires loss_prob == 0 (the network contract IS zero loss)");
}

void load_workload(const json::Value& v, const std::string& path, Workload& w) {
  Obj o(v, path);
  const std::string mode = opt_str(o, "mode", "timing");
  if (mode == "timing") w.timing = true;
  else if (mode == "data") w.timing = false;
  else fail(path + ".mode", "unknown mode \"" + mode + "\" (valid: timing, data)");
  const std::int64_t elems =
      opt_int(o, "tensor_elems", static_cast<std::int64_t>(w.tensor_elems));
  if (elems < 1) fail(path + ".tensor_elems", "must be >= 1");
  w.tensor_elems = static_cast<std::uint64_t>(elems);
  w.reductions = static_cast<int>(opt_int(o, "reductions", 1));
  if (w.reductions < 1) fail(path + ".reductions", "must be >= 1");
  w.data_seed =
      static_cast<std::uint64_t>(opt_int(o, "data_seed", static_cast<std::int64_t>(w.data_seed)));
  o.finish();
}

} // namespace

const char* to_string(NicProfile p) {
  switch (p) {
  case NicProfile::kSwitchml: return "switchml";
  case NicProfile::kCrossoverUdp: return "crossover_udp";
  case NicProfile::kPsHost: return "ps_host";
  }
  return "?";
}

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
  s.description = opt_str(o, "description", "");
  s.topology = load_topology(o.require("topology"), "$.topology");
  if (const json::Value* f = o.get("fabric")) load_fabric(*f, "$.fabric", s);
  else {
    // Defaults still resolve the NIC from the (default 10G) rate.
    s.fabric.nic = core::switchml_worker_nic(s.fabric.link_rate, s.nic_selection.cores);
  }
  if (const json::Value* w = o.get("workload")) load_workload(*w, "$.workload", s.workload);
  if (const json::Value* f = o.get("faults")) load_faults(*f, "$.faults", s.fabric.faults);
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
  std::visit(overloaded{
                 [&](const core::RackSpec& t) {
                   topo.set("kind", "rack");
                   topo.set("workers", t.n_workers);
                 },
                 [&](const core::MultiJobSpec& t) {
                   topo.set("kind", "multi_job");
                   topo.set("jobs", t.n_jobs);
                   topo.set("workers_per_job", t.workers_per_job);
                 },
                 [&](const core::HierarchySpec& t) {
                   topo.set("kind", "hierarchy");
                   topo.set("racks", t.racks);
                   topo.set("workers_per_rack", t.workers_per_rack);
                 },
                 [&](const core::TreeSpec& t) {
                   topo.set("kind", "tree");
                   topo.set("levels", t.levels);
                   topo.set("branching", t.branching);
                   topo.set("workers_per_rack", t.workers_per_rack);
                 },
                 [&](const core::IrregularSpec& t) {
                   topo.set("kind", "irregular");
                   json::Array parent, ws;
                   for (int p : t.switch_parent) parent.emplace_back(p);
                   for (int w : t.worker_switch) ws.emplace_back(w);
                   topo.set("switch_parent", std::move(parent));
                   topo.set("worker_switch", std::move(ws));
                 },
                 [&](const core::StreamingPsSpec& t) {
                   topo.set("kind", "streaming_ps");
                   topo.set("workers", t.n_workers);
                   topo.set("placement", t.placement == core::PsPlacement::Dedicated
                                             ? "dedicated"
                                             : "colocated");
                 },
             },
             s.topology);
  doc.set("topology", std::move(topo));

  const core::FabricParams& p = s.fabric;
  json::Value fab;
  fab.set("link_rate_gbps", static_cast<double>(p.link_rate) / 1e9);
  fab.set("uplink_rate_gbps", static_cast<double>(p.uplink_rate) / 1e9);
  fab.set("propagation_ns", p.propagation);
  fab.set("switch_latency_ns", p.switch_latency);
  fab.set("queue_limit_bytes", p.queue_limit_bytes);
  fab.set("loss_prob", p.loss_prob);
  fab.set("pool_size", static_cast<std::int64_t>(p.pool_size));
  fab.set("elems_per_packet", static_cast<std::int64_t>(p.elems_per_packet));
  fab.set("wire_elem_bytes", static_cast<std::int64_t>(p.wire_elem_bytes));
  fab.set("mtu_emulation", p.mtu_emulation);
  fab.set("retransmit_timeout_ns", p.retransmit_timeout);
  fab.set("adaptive_rto", p.adaptive_rto);
  fab.set("lossless", p.lossless);
  fab.set("sram_budget_bytes", static_cast<std::int64_t>(p.sram_budget_bytes));
  fab.set("fp16_frac_bits", p.fp16_frac_bits);
  fab.set("ablate_shadow_copy", p.ablate_shadow_copy);
  fab.set("ablate_seen_bitmap", p.ablate_seen_bitmap);
  fab.set("seed", static_cast<std::int64_t>(p.seed));
  fab.set("sync_after", p.sync_after);
  fab.set("dead_after", p.dead_after);
  fab.set("fallback_reprovision_ns", p.fallback_reprovision);
  fab.set("transport", p.transport == net::TransportKind::kUdp ? "udp" : "rdma_uc");
  json::Value rdma;
  rdma.set("wqe_post_ns", p.rdma.wqe_post);
  rdma.set("doorbell_ns", p.rdma.doorbell);
  rdma.set("doorbell_batch", p.rdma.doorbell_batch);
  rdma.set("cqe_poll_ns", p.rdma.cqe_poll);
  rdma.set("tx_latency_ns", p.rdma.tx_latency);
  rdma.set("rx_latency_ns", p.rdma.rx_latency);
  fab.set("rdma", std::move(rdma));
  fab.set("int_mode", p.int_mode == inttel::kModeOff
                          ? "off"
                          : (p.int_mode == inttel::kModePhantom ? "phantom" : "on_wire"));
  json::Value nic;
  nic.set("profile", to_string(s.nic_selection.profile));
  nic.set("cores", s.nic_selection.cores);
  fab.set("nic", std::move(nic));
  doc.set("fabric", std::move(fab));

  json::Value wl;
  wl.set("mode", s.workload.timing ? "timing" : "data");
  wl.set("tensor_elems", static_cast<std::int64_t>(s.workload.tensor_elems));
  wl.set("reductions", s.workload.reductions);
  wl.set("data_seed", static_cast<std::int64_t>(s.workload.data_seed));
  doc.set("workload", std::move(wl));

  const core::FaultPlan& fp = p.faults;
  if (!fp.empty()) {
    json::Value faults;
    if (!fp.stragglers.empty()) {
      json::Array a;
      for (const auto& f : fp.stragglers) {
        json::Value e;
        e.set("worker", f.worker);
        e.set("factor", f.factor);
        e.set("start_ns", f.start);
        e.set("stop_ns", f.stop);
        a.push_back(std::move(e));
      }
      faults.set("stragglers", std::move(a));
    }
    if (!fp.flaps.empty()) {
      json::Array a;
      for (const auto& f : fp.flaps) {
        json::Value e;
        e.set("link", static_cast<std::int64_t>(f.link));
        e.set("down_ns", f.down_at);
        e.set("up_ns", f.up_at);
        a.push_back(std::move(e));
      }
      faults.set("flaps", std::move(a));
    }
    if (!fp.flap_cycles.empty()) {
      json::Array a;
      for (const auto& f : fp.flap_cycles) {
        json::Value e;
        e.set("link", static_cast<std::int64_t>(f.link));
        e.set("period_ns", f.period);
        e.set("duty_down", f.duty_down);
        e.set("start_ns", f.start);
        e.set("cycles", f.cycles);
        a.push_back(std::move(e));
      }
      faults.set("flap_cycles", std::move(a));
    }
    if (!fp.bursts.empty()) {
      json::Array a;
      for (const auto& f : fp.bursts) {
        json::Value e;
        e.set("link", f.link);
        e.set("p_enter", f.gilbert.p_enter);
        e.set("p_exit", f.gilbert.p_exit);
        e.set("loss_good", f.gilbert.loss_good);
        e.set("loss_bad", f.gilbert.loss_bad);
        a.push_back(std::move(e));
      }
      faults.set("bursts", std::move(a));
    }
    if (!fp.switch_restarts.empty()) {
      json::Array a;
      for (const auto& f : fp.switch_restarts) {
        json::Value e;
        e.set("switch", static_cast<std::int64_t>(f.switch_index));
        e.set("at_ns", f.at);
        a.push_back(std::move(e));
      }
      faults.set("switch_restarts", std::move(a));
    }
    if (!fp.switch_kills.empty()) {
      json::Array a;
      for (const auto& f : fp.switch_kills) {
        json::Value e;
        e.set("switch", static_cast<std::int64_t>(f.switch_index));
        e.set("at_ns", f.at);
        a.push_back(std::move(e));
      }
      faults.set("switch_kills", std::move(a));
    }
    doc.set("faults", std::move(faults));
  }
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
