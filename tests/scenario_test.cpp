// Scenario engine tests: strict-loader semantics (unknown keys, JSON-path
// errors, every range and name the schema checks, eager FaultPlan
// validation), normalized round-trips, shape_counts and the one wiring rule
// vs built fabrics, the IrregularSpec build path — and the corpus contract:
// every scenarios/*.json is its own normal form, and every ported bench
// configuration reproduces its committed baseline metric bit-identically
// (BenchReport::kSimTol).
#include "scenario/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "core/cluster.hpp"
#include "core/fault.hpp"
#include "scenario/fuzz.hpp"

namespace switchml::scenario {
namespace {

std::string scenario_dir() { return SWITCHML_SCENARIO_DIR; }
std::string baseline_dir() { return SWITCHML_BASELINE_DIR; }

// --- loader semantics --------------------------------------------------------

Scenario minimal(const std::string& topo = R"({"kind": "rack", "workers": 4})") {
  return load_string(R"({"schema_version": 1, "name": "t", "topology": )" + topo + "}");
}

void expect_load_error(const std::string& text, const std::string& needle) {
  try {
    (void)load_string(text);
    FAIL() << "loaded: " << text;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "error \"" << e.what() << "\" lacks \"" << needle << "\"";
  }
}

TEST(ScenarioLoader, MinimalScenarioGetsDefaults) {
  const Scenario s = minimal();
  EXPECT_EQ(s.fabric.pool_size, 128u); // for_rate rule at the default 10G
  EXPECT_EQ(s.fabric.link_rate, gbps(10));
  EXPECT_EQ(s.fabric.elems_per_packet, net::kDefaultElemsPerPacket);
  EXPECT_EQ(s.fabric.transport, net::kDefaultTransport);
  EXPECT_TRUE(s.workload.timing);
  EXPECT_EQ(s.workload.tensor_elems, 256u * 1024u);
  EXPECT_EQ(std::get<core::RackSpec>(s.topology).n_workers, 4);
}

TEST(ScenarioLoader, RateDerivedDefaults) {
  const Scenario s = load_string(R"({"schema_version": 1, "name": "t",
    "topology": {"kind": "rack"},
    "fabric": {"link_rate_gbps": 100, "mtu_emulation": true}})");
  EXPECT_EQ(s.fabric.pool_size, 512u); // >= 100G rule
  EXPECT_EQ(s.fabric.elems_per_packet, net::kMtuElemsPerPacket);
  EXPECT_EQ(s.fabric.nic.per_packet_tx, core::switchml_worker_nic(gbps(100)).per_packet_tx);
}

TEST(ScenarioLoader, UnknownKeysRejectedWithPathAndValidKeys) {
  expect_load_error(R"({"schema_version": 1, "name": "t",
                        "topology": {"kind": "rack"}, "wokload": {}})",
                    "$.wokload: unknown key");
  expect_load_error(R"({"schema_version": 1, "name": "t",
                        "topology": {"kind": "rack", "wrokers": 4}})",
                    "$.topology.wrokers: unknown key");
  expect_load_error(R"({"schema_version": 1, "name": "t",
                        "topology": {"kind": "rack"},
                        "fabric": {"pool_sze": 8}})",
                    "valid keys here");
}

TEST(ScenarioLoader, TypeErrorsNameThePath) {
  expect_load_error(R"({"schema_version": 1, "name": "t",
                        "topology": {"kind": "rack", "workers": "eight"}})",
                    "$.topology.workers: expected an integer, got string");
  expect_load_error(R"({"schema_version": 1, "name": "t", "topology": []})",
                    "$.topology: expected an object, got array");
  expect_load_error(R"({"schema_version": 1, "name": 7, "topology": {"kind": "rack"}})",
                    "$.name");
}

TEST(ScenarioLoader, SchemaVersionAndNameRequired) {
  expect_load_error(R"({"name": "t", "topology": {"kind": "rack"}})", "schema_version");
  expect_load_error(R"({"schema_version": 2, "name": "t", "topology": {"kind": "rack"}})",
                    "unsupported version 2");
  expect_load_error(R"({"schema_version": 1, "topology": {"kind": "rack"}})",
                    "missing required key \"name\"");
}

TEST(ScenarioLoader, BadTopologyRejected) {
  expect_load_error(R"({"schema_version": 1, "name": "t", "topology": {"kind": "ring"}})",
                    "unknown topology kind \"ring\"");
  // IrregularSpec structural errors surface under $.topology, one message
  // per rule.
  const auto irregular = [](const std::string& parents, const std::string& workers) {
    return R"({"schema_version": 1, "name": "t", "topology": {"kind": "irregular",
              "switch_parent": )" + parents + R"(, "worker_switch": )" + workers + "}}";
  };
  expect_load_error(irregular("[0]", "[0, 0]"), "$.topology: IrregularSpec: switch_parent[0]");
  expect_load_error(irregular("[-1, 1]", "[1]"),
                    "switch_parent[1] = 1 must name an earlier switch");
  expect_load_error(irregular("[-1]", "[]"), "need at least one worker");
  expect_load_error(irregular("[-1]", "[0, 1]"), "worker_switch[1] = 1 out of range");
  expect_load_error(irregular("[-1, 0, 0]", "[2, 1]"), "worker_switch must be non-decreasing");
  expect_load_error(irregular("[-1, 0]", "[0, 1]"), "switch 0 has both worker and switch children");
  expect_load_error(irregular("[-1, 0, 0]", "[1, 1]"), "switch 2 has no children");
  // Parametric shapes are checked by the same lowering the fabric builds
  // from, with the fabric's messages.
  expect_load_error(R"({"schema_version": 1, "name": "t",
                        "topology": {"kind": "rack", "workers": 0}})",
                    "$.topology: Fabric: need at least one worker");
  expect_load_error(R"({"schema_version": 1, "name": "t",
                        "topology": {"kind": "hierarchy", "racks": -1,
                                     "workers_per_rack": -2}})",
                    "$.topology: Fabric: invalid hierarchy shape");
  // The streaming PS: 1..64 workers, a known placement, and no switch to
  // restart or kill.
  for (const char* workers : {"0", "65"})
    expect_load_error(R"({"schema_version": 1, "name": "t",
                          "topology": {"kind": "streaming_ps", "workers": )" +
                          std::string(workers) + "}}",
                      "$.topology: Fabric: a streaming PS needs 1..64 workers");
  expect_load_error(R"({"schema_version": 1, "name": "t",
                        "topology": {"kind": "streaming_ps", "placement": "rack"}})",
                    "$.topology.placement: unknown placement \"rack\"");
  expect_load_error(R"({"schema_version": 1, "name": "t",
                        "topology": {"kind": "streaming_ps", "workers": 4},
                        "faults": {"switch_kills": [{"switch": 0, "at_ns": 1000}]}})",
                    "$.faults: FaultPlan: switch_kills[0] at t=1000 ns: switch 0 out of range "
                    "(fabric has 0 switches)");
}

// One key's edge: `bad`, a value just outside what the loader accepts, must
// fail naming `path`, and `good`, the boundary value where there is one,
// must load. Each is the body of section `section` on a 2-worker rack.
struct EdgeCase {
  std::string section;
  std::string bad;
  std::string good;
  std::string path;
};

std::string with_section(const std::string& section, const std::string& body) {
  if (section == "topology")
    return R"({"schema_version": 1, "name": "t", "topology": )" + body + "}";
  return R"({"schema_version": 1, "name": "t", "topology": {"kind": "rack", "workers": 2},
             ")" + section + R"(": )" + body + "}";
}

void expect_edges(const std::vector<EdgeCase>& cases) {
  for (const EdgeCase& c : cases) {
    SCOPED_TRACE(c.section + " " + c.bad);
    expect_load_error(with_section(c.section, c.bad), c.path + ":");
    EXPECT_NO_THROW((void)load_string(with_section(c.section, c.good)));
  }
}

TEST(ScenarioLoader, EveryRangeAndNameIsChecked) {
  expect_edges({
      {"fabric", R"({"link_rate_gbps": 0})", R"({"link_rate_gbps": 1e-9})",
       "$.fabric.link_rate_gbps"},
      {"fabric", R"({"uplink_rate_gbps": -1e-9})", R"({"uplink_rate_gbps": 0})",
       "$.fabric.uplink_rate_gbps"},
      {"fabric", R"({"loss_prob": -1e-9})", R"({"loss_prob": 0})", "$.fabric.loss_prob"},
      {"fabric", R"({"loss_prob": 1})", R"({"loss_prob": 0.999999})", "$.fabric.loss_prob"},
      {"fabric", R"({"pool_size": 0})", R"({"pool_size": 1})", "$.fabric.pool_size"},
      {"fabric", R"({"nic": {"cores": 0}})", R"({"nic": {"cores": 1}})", "$.fabric.nic.cores"},
      {"workload", R"({"tensor_elems": 0})", R"({"tensor_elems": 1})",
       "$.workload.tensor_elems"},
      {"workload", R"({"reductions": 0})", R"({"reductions": 1})", "$.workload.reductions"},
      {"fabric", R"({"lossless": true, "loss_prob": 1e-9})",
       R"({"lossless": true, "loss_prob": 0})", "$.fabric"},
      {"fabric", R"({"transport": "tcp"})", R"({"transport": "rdma_uc"})",
       "$.fabric.transport"},
      {"fabric", R"({"int_mode": "full"})", R"({"int_mode": "on_wire"})", "$.fabric.int_mode"},
      {"fabric", R"({"nic": {"profile": "cx5"}})", R"({"nic": {"profile": "ps_host"}})",
       "$.fabric.nic.profile"},
      {"workload", R"({"mode": "train"})", R"({"mode": "data"})", "$.workload.mode"},
      {"fabric", R"({"rdma": {"doorbel_ns": 5}})", R"({"rdma": {"doorbell_ns": 5}})",
       "$.fabric.rdma.doorbel_ns"},
      {"fabric", R"({"nic": {"core": 2}})", R"({"nic": {"cores": 2}})", "$.fabric.nic.core"},
  });
}

// An integer that does not fit its member, and a value the fabric cannot
// run (a negative time, a zero RTO, a wire width the switch has no format
// for, a queue that cannot hold one update frame), fail at load time.
TEST(ScenarioLoader, ValuesThatDoNotFitOrCannotRunAreRejected) {
  expect_edges({
      {"fabric", R"({"wire_elem_bytes": 260})", R"({"wire_elem_bytes": 4})",
       "$.fabric.wire_elem_bytes"},
      {"fabric", R"({"wire_elem_bytes": 3})", R"({"wire_elem_bytes": 2})",
       "$.fabric.wire_elem_bytes"},
      {"fabric", R"({"wire_elem_bytes": 0})", R"({"wire_elem_bytes": 1})",
       "$.fabric.wire_elem_bytes"},
      {"fabric", R"({"pool_size": 4294967297})", R"({"pool_size": 4294967295})",
       "$.fabric.pool_size"},
      {"fabric", R"({"elems_per_packet": -1})", R"({"elems_per_packet": 1})",
       "$.fabric.elems_per_packet"},
      {"fabric", R"({"elems_per_packet": 0})", R"({"elems_per_packet": 1})",
       "$.fabric.elems_per_packet"},
      {"topology", R"({"kind": "rack", "workers": 4294967300})",
       R"({"kind": "rack", "workers": 4})", "$.topology.workers"},
      {"fabric", R"({"fp16_frac_bits": 99})", R"({"fp16_frac_bits": 30})",
       "$.fabric.fp16_frac_bits"},
      {"fabric", R"({"fp16_frac_bits": -1})", R"({"fp16_frac_bits": 0})",
       "$.fabric.fp16_frac_bits"},
      {"fabric", R"({"propagation_ns": -1000})", R"({"propagation_ns": 0})",
       "$.fabric.propagation_ns"},
      {"fabric", R"({"switch_latency_ns": -1})", R"({"switch_latency_ns": 0})",
       "$.fabric.switch_latency_ns"},
      {"fabric", R"({"retransmit_timeout_ns": 0})", R"({"retransmit_timeout_ns": 1})",
       "$.fabric.retransmit_timeout_ns"},
      {"fabric", R"({"fallback_reprovision_ns": -1})", R"({"fallback_reprovision_ns": 0})",
       "$.fabric.fallback_reprovision_ns"},
      {"fabric", R"({"sync_after": -1})", R"({"sync_after": 0})", "$.fabric.sync_after"},
      {"fabric", R"({"dead_after": -1})", R"({"dead_after": 0})", "$.fabric.dead_after"},
      {"fabric", R"({"sram_budget_bytes": -1})", R"({"sram_budget_bytes": 0})",
       "$.fabric.sram_budget_bytes"},
      {"fabric", R"({"seed": -1})", R"({"seed": 0})", "$.fabric.seed"},
      {"fabric", R"({"rdma": {"doorbell_batch": 0}})", R"({"rdma": {"doorbell_batch": 1}})",
       "$.fabric.rdma.doorbell_batch"},
      {"fabric", R"({"rdma": {"cqe_poll_ns": -1}})", R"({"rdma": {"cqe_poll_ns": 0}})",
       "$.fabric.rdma.cqe_poll_ns"},
      {"workload", R"({"data_seed": -1})", R"({"data_seed": 0})", "$.workload.data_seed"},
      // One update frame: 52 header bytes and 32 4-byte values over UDP,
      // one 58-byte segment header and a 10-byte app header over RDMA UC,
      // and 366 values per frame under MTU emulation. `dead_after: 0` keeps
      // the streaming-PS fallback, and its bound of one frame per worker,
      // out of these cases.
      {"fabric", R"({"queue_limit_bytes": -5})", R"({"queue_limit_bytes": 1048576})",
       "$.fabric.queue_limit_bytes"},
      {"fabric", R"({"transport": "udp", "dead_after": 0, "queue_limit_bytes": 179})",
       R"({"transport": "udp", "dead_after": 0, "queue_limit_bytes": 180})",
       "$.fabric.queue_limit_bytes"},
      {"fabric", R"({"transport": "rdma_uc", "dead_after": 0, "queue_limit_bytes": 195})",
       R"({"transport": "rdma_uc", "dead_after": 0, "queue_limit_bytes": 196})",
       "$.fabric.queue_limit_bytes"},
      {"fabric",
       R"({"transport": "udp", "mtu_emulation": true, "dead_after": 0,
           "queue_limit_bytes": 1515})",
       R"({"transport": "udp", "mtu_emulation": true, "dead_after": 0,
           "queue_limit_bytes": 1516})",
       "$.fabric.queue_limit_bytes"},
  });
  // With INT on the wire a frame may also carry a full stack: a 4-byte shim
  // and eight 32-byte hop records.
  expect_edges({{"fabric",
                 R"({"transport": "udp", "int_mode": "on_wire", "dead_after": 0,
                     "queue_limit_bytes": 439})",
                 R"({"transport": "udp", "int_mode": "on_wire", "dead_after": 0,
                     "queue_limit_bytes": 440})",
                 "$.fabric.queue_limit_bytes"}});
}

// A parameter server answers a completed slot with one result per worker,
// and the lockstep workers' copies of a slot reach its switch port at once:
// a queue below one 180-byte frame per served worker drops the same copies
// every round and never ends. The loader rejects it on both placements and
// on a rack whose dead_after can move it to the streaming-PS fallback; a
// multi-job rack has no fallback. At the bound the run ends.
TEST(ScenarioLoader, PsQueueHoldsOneFramePerServedWorker) {
  const auto file = [](const std::string& topology, std::int64_t queue) {
    return R"({"schema_version": 1, "name": "t", "topology": )" + topology +
           R"(, "fabric": {"transport": "udp", "queue_limit_bytes": )" +
           std::to_string(queue) + R"(}, "workload": {"tensor_elems": 4096}})";
  };
  const std::pair<std::string, std::int64_t> served[] = {
      {R"({"kind": "streaming_ps", "workers": 2, "placement": "dedicated"})", 2},
      {R"({"kind": "streaming_ps", "workers": 2, "placement": "colocated"})", 2},
      {R"({"kind": "streaming_ps", "workers": 3, "placement": "dedicated"})", 3},
      {R"({"kind": "streaming_ps", "workers": 3, "placement": "colocated"})", 3},
      {R"({"kind": "rack", "workers": 2})", 2},
      {R"({"kind": "hierarchy", "racks": 2, "workers_per_rack": 2})", 4},
  };
  for (const auto& [topology, n] : served) {
    SCOPED_TRACE(topology);
    expect_load_error(file(topology, (n - 1) * 180),
                      "$.fabric.queue_limit_bytes: must hold one update frame per worker the "
                      "parameter server serves (" +
                          std::to_string(n) + " x 180 = " + std::to_string(n * 180) + " bytes)");
    const Scenario s = load_string(file(topology, n * 180));
    if (n > 2) continue;
    const RunResult r = run(s);
    ASSERT_EQ(r.tats.size(), 1u);
    for (Time t : r.tats[0]) EXPECT_GT(t, 0);
    // Two frames on a rack's uplinks drop most of each initial window, so
    // its workers declare the switch dead and the run ends on the fallback.
    EXPECT_EQ(r.fallback_engaged, topology.find(R"("rack")") != std::string::npos);
  }
  EXPECT_NO_THROW((void)load_string(
      file(R"({"kind": "multi_job", "jobs": 2, "workers_per_job": 2})", 180)));
}

TEST(ScenarioLoader, FaultPlanValidatedEagerlyWithPath) {
  // PR 5 message text, behind the $.faults prefix — no fabric was built.
  expect_load_error(R"({"schema_version": 1, "name": "t",
                        "topology": {"kind": "rack", "workers": 4},
                        "faults": {"stragglers": [
                          {"worker": 9, "factor": 4.0}]}})",
                    "$.faults: FaultPlan: stragglers[0]");
  expect_load_error(R"({"schema_version": 1, "name": "t",
                        "topology": {"kind": "rack", "workers": 4},
                        "faults": {"flap_cycles": [
                          {"link": 0, "period_ns": 1000, "duty_down": 1.5}]}})",
                    "duty_down in (0, 1)");
  expect_load_error(R"({"schema_version": 1, "name": "t",
                        "topology": {"kind": "rack", "workers": 4},
                        "faults": {"flaps": [
                          {"link": 2, "down_ns": 100, "up_ns": 900},
                          {"link": 2, "down_ns": 500, "up_ns": 1500}]}})",
                    "overlaps flaps[0]");
  // Lossless fabrics reject loss-inducing classes at load time too.
  expect_load_error(R"({"schema_version": 1, "name": "t",
                        "topology": {"kind": "rack", "workers": 4},
                        "fabric": {"lossless": true},
                        "faults": {"bursts": [
                          {"p_enter": 0.01, "p_exit": 0.3, "loss_bad": 0.5}]}})",
                    "$.faults: FaultPlan:");
}

// Satellite (b): the gaps are now caught eagerly by validate_fault_plan
// itself, independent of the loader and of injector arming.
TEST(FaultPlanValidation, DutyAndOverlapCaughtBeforeArming) {
  const core::FaultTargets t{4, 4, 1};
  core::FaultPlan bad_duty;
  bad_duty.flap_cycles.push_back({0, usec(700), 1.5, 0, 0});
  EXPECT_THROW(core::validate_fault_plan(bad_duty, t, false), std::invalid_argument);
  bad_duty.flap_cycles[0].duty_down = 0.0;
  EXPECT_THROW(core::validate_fault_plan(bad_duty, t, false), std::invalid_argument);

  core::FaultPlan overlap;
  overlap.flaps.push_back({1, 100, 1000});
  overlap.flaps.push_back({1, 999, 2000});
  try {
    core::validate_fault_plan(overlap, t, false);
    FAIL() << "overlapping one-shot flaps accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("flaps[1]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("overlaps flaps[0]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("idempotent"), std::string::npos) << msg;
  }
  // Back-to-back windows ([100,1000) then [1000,2000)) are fine.
  overlap.flaps[1].down_at = 1000;
  EXPECT_NO_THROW(core::validate_fault_plan(overlap, t, false));
  // Same windows on different links are fine.
  overlap.flaps[1] = {2, 999, 2000};
  EXPECT_NO_THROW(core::validate_fault_plan(overlap, t, false));
}

// --- round trips -------------------------------------------------------------

// The streaming-PS shapes: n workers, no aggregation switch, n worker
// uplinks plus n PS uplinks when the PS hosts are dedicated.
const core::StreamingPsSpec kPsShapes[] = {{3, core::PsPlacement::Dedicated},
                                           {3, core::PsPlacement::Colocated}};

TEST(ScenarioRoundTrip, NormalizedFormIsAFixedPoint) {
  const auto round_trip = [](const Scenario& s) {
    const std::string once = to_json(s).dump(true);
    const Scenario loaded = load_string(once);
    EXPECT_EQ(to_json(loaded).dump(true), once);
  };
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Scenario s = fuzz_scenario(seed);
    fuzz_faults(s, seed, msec(1));
    round_trip(s);
    // The same knobs and a plan for this seed on the two streaming-PS shapes.
    for (const core::StreamingPsSpec& ps : kPsShapes) {
      s.topology = ps;
      s.fabric.faults = {};
      fuzz_faults(s, seed, msec(1));
      round_trip(s);
    }
  }
}

// --- shape_counts and the wiring rule vs built fabrics -----------------------

// One shape with its adjacency written out by hand: the parent of every
// switch (preorder) and the switch of every worker.
struct ShapeCase {
  core::TopologySpec topo;
  std::vector<int> switch_parent;
  std::vector<int> worker_switch;
  int jobs = 1;
  // Star fabrics only: per-worker TATs and per-link dropped_loss (worker
  // direction, then switch direction) after one 8192-element timing
  // reduction at 1 % loss, recorded before every shape shared one build path.
  std::vector<Time> lossy_tats = {};
  std::vector<std::uint64_t> lossy_drops = {};
};

std::vector<ShapeCase> shape_cases() {
  return {
      {core::RackSpec{5}, {-1}, {0, 0, 0, 0, 0}, 1,
       {3019520, 3019520, 3019520, 3019520, 3019520},
       {4, 3, 3, 3, 5, 1, 4, 3, 2, 5}},
      {core::MultiJobSpec{3, 2}, {-1}, {0, 0, 0, 0, 0, 0}, 3,
       {1034064, 1031328, 3019520, 3019520, 1037088, 1037088},
       {1, 3, 3, 4, 2, 1, 2, 6, 7, 4, 1, 6}},
      {core::HierarchySpec{3, 4}, {-1, 0, 0, 0}, {1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}},
      {core::TreeSpec{3, 2, 2}, {-1, 0, 1, 1, 0, 4, 4}, {2, 2, 3, 3, 5, 5, 6, 6}},
      {core::TreeSpec{2, 3, 4}, {-1, 0, 0, 0}, {1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}},
      {core::IrregularSpec{{-1, 0, 0, 1}, {2, 2, 3, 3, 3}}, {-1, 0, 0, 1}, {2, 2, 3, 3, 3}},
      {core::IrregularSpec{{-1}, {0, 0, 0}}, {-1}, {0, 0, 0}},
  };
}

TEST(ScenarioShapes, CountsMatchBuiltFabric) {
  core::FabricParams p;
  p.timing_only = true;
  for (const ShapeCase& c : shape_cases()) {
    const core::FaultTargets t = shape_counts(c.topo);
    core::Fabric f(core::FabricConfig(p, c.topo));
    EXPECT_EQ(t.n_workers, f.n_workers());
    EXPECT_EQ(t.n_links, f.n_links());
    EXPECT_EQ(t.n_switches, f.n_switches());
    EXPECT_EQ(t.n_switches, c.switch_parent.size());
    EXPECT_EQ(t.n_workers, static_cast<int>(c.worker_switch.size()));
  }
  for (const core::StreamingPsSpec& ps : kPsShapes) {
    const core::FaultTargets t = shape_counts(ps);
    core::Fabric f(core::FabricConfig(p, ps));
    EXPECT_EQ(t.n_workers, f.n_workers());
    EXPECT_EQ(t.n_links, f.n_links());
    EXPECT_EQ(t.n_switches, f.n_switches());
    EXPECT_EQ(t.n_switches, 0u);
    EXPECT_EQ(t.n_links, ps.placement == core::PsPlacement::Dedicated ? 6u : 3u);
  }
}

// Every shape is wired by one rule: a lone switch is `switch` (id 10000),
// otherwise switch i is `sw-<i>` (id 30000 + i); worker g is `worker-<g>`
// (`j<j>-worker-<i>` with several jobs) and advertises its job's size; a
// switch's child ports are the child indices and its parent port is one past
// them; link i is worker i's uplink, then the switch uplinks in switch order.
TEST(ScenarioShapes, WiringFollowsOneRule) {
  const std::vector<ShapeCase> cases = shape_cases();
  for (std::size_t k = 0; k < cases.size(); ++k) {
    const ShapeCase& c = cases[k];
    SCOPED_TRACE("shape " + std::to_string(k));
    core::FabricParams p;
    p.timing_only = true;
    p.transport = net::TransportKind::kUdp; // the lossy pins were recorded on UDP
    core::Fabric f(core::FabricConfig(p, c.topo));
    const std::size_t m = c.switch_parent.size();
    const int n = static_cast<int>(c.worker_switch.size());
    const int job_size = n / c.jobs;
    ASSERT_EQ(f.n_switches(), m);
    ASSERT_EQ(f.n_workers(), n);
    ASSERT_EQ(f.n_links(), static_cast<std::size_t>(n) + m - 1);

    // Each switch's children in port order: its workers, or its switches.
    std::vector<std::vector<const net::Node*>> children(m);
    for (int w = 0; w < n; ++w)
      children[static_cast<std::size_t>(c.worker_switch[static_cast<std::size_t>(w)])].push_back(
          &f.worker(w));
    for (std::size_t i = 1; i < m; ++i)
      children[static_cast<std::size_t>(c.switch_parent[i])].push_back(&f.switch_at(i));

    for (std::size_t i = 0; i < m; ++i) {
      swprog::AggregationSwitch& sw = f.switch_at(i);
      EXPECT_EQ(sw.name(), m == 1 ? "switch" : "sw-" + std::to_string(i));
      EXPECT_EQ(sw.id(), m == 1 ? 10'000u : 30'000u + i);
      const auto& kids = children[i];
      for (std::size_t port = 0; port < kids.size(); ++port)
        EXPECT_EQ(sw.port_of(kids[port]->id()), static_cast<int>(port)) << "switch " << i;
      const bool leaf = std::count(c.worker_switch.begin(), c.worker_switch.end(),
                                   static_cast<int>(i)) > 0;
      const int parent = c.switch_parent[i];
      const swprog::AggregationConfig& sc = sw.config();
      const swprog::JobParams& job0 = sw.job_params(0);
      EXPECT_EQ(job0.n_workers, static_cast<int>(kids.size()) / (leaf ? c.jobs : 1));
      EXPECT_EQ(job0.wid_base, leaf ? kids.front()->id() : 0u) << "switch " << i;
      EXPECT_EQ(sw.leaf(), parent >= 0) << "switch " << i;
      if (parent < 0) {
        EXPECT_EQ(sc.parent_port, -1);
        continue;
      }
      const auto& siblings = children[static_cast<std::size_t>(parent)];
      EXPECT_EQ(sc.parent_port, static_cast<int>(kids.size())) << "switch " << i;
      EXPECT_EQ(sc.leaf_wid, std::find(siblings.begin(), siblings.end(), &sw) - siblings.begin());
      net::Link& uplink = f.link(static_cast<std::size_t>(n) + i - 1);
      EXPECT_EQ(&uplink.peer_of(sw), &f.switch_at(static_cast<std::size_t>(parent)));
    }

    for (int w = 0; w < n; ++w) {
      worker::Worker& wk = f.worker(w);
      const int job = w / job_size;
      EXPECT_EQ(wk.id(), static_cast<net::NodeId>(w));
      EXPECT_EQ(wk.name(), c.jobs > 1 ? "j" + std::to_string(job) + "-worker-" +
                                            std::to_string(w % job_size)
                                      : "worker-" + std::to_string(w));
      const auto& home =
          f.switch_at(static_cast<std::size_t>(c.worker_switch[static_cast<std::size_t>(w)]));
      EXPECT_EQ(&f.link(static_cast<std::size_t>(w)).peer_of(wk), &home) << "worker " << w;
      EXPECT_EQ(wk.config().switch_id, home.id());
      EXPECT_EQ(wk.config().n_workers, job_size) << "worker " << w;
      EXPECT_EQ(wk.config().job, job);
    }

    if (c.lossy_tats.empty()) continue;
    f.set_loss_prob(0.01);
    EXPECT_EQ(f.reduce_timing(8192), c.lossy_tats);
    std::vector<std::uint64_t> drops;
    for (int w = 0; w < n; ++w) {
      const net::Link& l = f.link(static_cast<std::size_t>(w));
      drops.push_back(l.counters_from(f.worker(w)).dropped_loss);
      drops.push_back(l.counters_from(f.root()).dropped_loss);
    }
    EXPECT_EQ(drops, c.lossy_drops);
  }

  // The streaming-PS shape extends the rule: its plain L2 switch is `switch`
  // (id 10000), worker g is `worker-<g>` on port g, dedicated PS host j is
  // `ps-<j>` (id 1000 + j) on port n + j with link seed seed + 500 + j; the
  // PS uplinks follow the worker uplinks. Names and seeds key each link's
  // loss draws, so per-worker TATs and per-link dropped_loss (host direction,
  // then switch direction) after one 8192-element timing reduction at 1 %
  // loss pin them; recorded when the PS became a fabric shape.
  const std::vector<Time> ps_lossy_tats[] = {{3039040, 4039040, 3039328},
                                             {3039040, 3039184, 3033316}};
  const std::vector<std::uint64_t> ps_lossy_drops[] = {{4, 3, 3, 4, 5, 1, 6, 1, 0, 2, 3, 3},
                                                       {5, 3, 4, 6, 9, 4}};
  for (std::size_t k = 0; k < std::size(kPsShapes); ++k) {
    const core::StreamingPsSpec& ps = kPsShapes[k];
    const bool dedicated = ps.placement == core::PsPlacement::Dedicated;
    SCOPED_TRACE(dedicated ? "dedicated PS" : "colocated PS");
    core::FabricParams p;
    p.timing_only = true;
    p.transport = net::TransportKind::kUdp;
    core::Fabric f(core::FabricConfig(p, ps));
    const int n = ps.n_workers;
    ASSERT_EQ(f.n_switches(), 0u);
    ASSERT_EQ(f.n_links(), static_cast<std::size_t>(dedicated ? 2 * n : n));
    EXPECT_THROW((void)f.root(), std::logic_error);
    auto& sw = dynamic_cast<net::L2Switch&>(f.link(0).peer_of(f.worker(0)));
    EXPECT_EQ(sw.name(), "switch");
    EXPECT_EQ(sw.id(), 10'000u);
    for (int w = 0; w < n; ++w) {
      worker::Worker& wk = f.worker(w);
      EXPECT_EQ(wk.id(), static_cast<net::NodeId>(w));
      EXPECT_EQ(wk.name(), "worker-" + std::to_string(w));
      EXPECT_EQ(&f.link(static_cast<std::size_t>(w)).peer_of(wk), &sw) << "worker " << w;
      EXPECT_EQ(sw.port_of(wk.id()), w);
      EXPECT_EQ(wk.config().n_workers, n);
    }
    for (int j = 0; j < (dedicated ? n : 0); ++j) {
      const net::Node& host = f.link(static_cast<std::size_t>(n + j)).peer_of(sw);
      EXPECT_EQ(host.name(), "ps-" + std::to_string(j));
      EXPECT_EQ(host.id(), 1000u + static_cast<unsigned>(j));
      EXPECT_EQ(sw.port_of(host.id()), n + j);
    }

    f.set_loss_prob(0.01);
    EXPECT_EQ(f.reduce_timing(8192), ps_lossy_tats[k]);
    std::vector<std::uint64_t> drops;
    for (std::size_t i = 0; i < f.n_links(); ++i) {
      net::Link& l = f.link(i);
      drops.push_back(l.counters_from(l.peer_of(sw)).dropped_loss);
      drops.push_back(l.counters_from(sw).dropped_loss);
    }
    EXPECT_EQ(drops, ps_lossy_drops[k]);
  }
}

TEST(ScenarioShapes, IrregularReducesBitExact) {
  Scenario s;
  s.name = "irr";
  s.topology = core::IrregularSpec{{-1, 0, 0, 1}, {2, 2, 3, 3, 3}};
  s.fabric.pool_size = 8;
  s.workload.timing = false;
  s.workload.tensor_elems = 2048;
  s.workload.reductions = 2;
  const RunResult r = run(s);
  EXPECT_TRUE(r.data_checked);
  EXPECT_TRUE(r.data_bit_exact);
  EXPECT_FALSE(r.fallback_engaged);
}

TEST(ScenarioShapes, IrregularSingleSwitchMatchesRack) {
  // A 1-switch irregular fabric and a rack are the same wiring; same switch,
  // same seed, same TATs.
  core::FabricParams p;
  p.timing_only = true;
  core::Fabric rack(core::FabricConfig(p, core::RackSpec{3}));
  core::Fabric irr(core::FabricConfig(p, core::IrregularSpec{{-1}, {0, 0, 0}}));
  EXPECT_EQ(irr.root().name(), rack.root().name());
  EXPECT_EQ(irr.root().id(), rack.root().id());
  EXPECT_EQ(rack.reduce_timing(4096), irr.reduce_timing(4096));
}

// --- the committed corpus ----------------------------------------------------

enum class Stat { kTatMaxMs, kTatMedianMs };

// The committed bench metric a corpus file reproduces.
struct Guard {
  std::string baseline_file; // results/baselines/<file>; empty = no baseline
  std::string metric;        // guarded metric in that baseline
  Stat stat = Stat::kTatMaxMs;
};

// The files ported from the --fast fault_sweep and recovery_sweep configs.
// The other files (the custom_scenario port and the showcases) have no
// baseline; they must converge explicitly.
const std::map<std::string, Guard>& guards() {
  const std::string fs = "BENCH_fault_sweep.json";
  const std::string rs = "BENCH_recovery_sweep.json";
  static const std::map<std::string, Guard> g = {
      {"fault_clean.json", {fs, "clean.tat_max_ms"}},
      {"fault_straggler_4x.json", {fs, "straggler-4x.tat_max_ms"}},
      {"fault_straggler_16x.json", {fs, "straggler-16x.tat_max_ms"}},
      {"fault_straggler_64x.json", {fs, "straggler-64x.tat_max_ms"}},
      {"fault_flap_5pct.json", {fs, "flap-5pct.tat_max_ms"}},
      {"fault_flap_10pct.json", {fs, "flap-10pct.tat_max_ms"}},
      {"fault_flap_20pct.json", {fs, "flap-20pct.tat_max_ms"}},
      {"fault_flap_period_350us.json", {fs, "flap-period-350us.tat_max_ms"}},
      {"fault_flap_period_1400us.json", {fs, "flap-period-1400us.tat_max_ms"}},
      {"fault_bernoulli_matched.json", {fs, "bernoulli-matched.tat_ms", Stat::kTatMedianMs}},
      {"fault_gilbert_elliott.json", {fs, "gilbert-elliott.tat_ms", Stat::kTatMedianMs}},
      {"fault_hierarchy_clean.json", {fs, "hierarchy-clean.tat_max_ms"}},
      {"fault_hierarchy_restart.json", {fs, "hierarchy-restart.tat_max_ms"}},
      {"recovery_burst_only.json", {rs, "burst-only.tat_max_ms"}},
      {"recovery_restart_25pct.json", {rs, "restart-25pct.tat_max_ms"}},
      {"recovery_restart_50pct.json", {rs, "restart-50pct.tat_max_ms"}},
      {"recovery_restart_75pct.json", {rs, "restart-75pct.tat_max_ms"}},
      {"recovery_kill_rack.json", {rs, "kill-rack.tat_max_ms"}},
      {"recovery_kill_root.json", {rs, "kill-root.tat_max_ms"}},
  };
  return g;
}

// Every committed file, by name.
std::vector<std::string> corpus_files() {
  std::vector<std::string> out;
  for (const auto& e : std::filesystem::directory_iterator(scenario_dir()))
    if (e.path().extension() == ".json") out.push_back(e.path().filename().string());
  std::sort(out.begin(), out.end());
  return out;
}

struct CorpusEntry {
  std::string file;  // scenarios/<file>
  Scenario scenario; // as loaded from it; empty when it does not load
  Guard guard;
};

std::vector<CorpusEntry> corpus() {
  std::vector<CorpusEntry> out;
  for (const std::string& f : corpus_files()) {
    CorpusEntry e{f, {}, {}};
    try {
      e.scenario = load_file(scenario_dir() + "/" + f);
    } catch (const std::exception&) {
      // EveryFileLoadsAndRoundTrips reports why.
    }
    if (const auto g = guards().find(f); g != guards().end()) e.guard = g->second;
    out.push_back(std::move(e));
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return in ? ss.str() : std::string{};
}

// Each file is its own normal form, so the files are the only definition of
// the corpus; and no guard names a file that is not there.
TEST(ScenarioCorpus, EveryFileLoadsAndRoundTrips) {
  const std::vector<std::string> files = corpus_files();
  for (const std::string& f : files) {
    SCOPED_TRACE(f);
    const std::string path = scenario_dir() + "/" + f;
    Scenario s;
    ASSERT_NO_THROW(s = load_file(path));
    EXPECT_EQ(to_json(s).dump(true) + "\n", read_file(path));
  }
  for (const auto& [file, guard] : guards())
    EXPECT_TRUE(std::binary_search(files.begin(), files.end(), file)) << file;
}

double run_stat(const Scenario& s, Stat stat) {
  const RunResult r = run(s);
  if (stat == Stat::kTatMaxMs) {
    Time max_tat = 0;
    for (const auto& rep : r.tats)
      for (Time t : rep) max_tat = std::max(max_tat, t);
    return to_msec(max_tat);
  }
  Summary ms; // the benches take the median over one rep's workers
  for (const auto& rep : r.tats)
    for (Time t : rep) ms.add(to_msec(t));
  return ms.median();
}

double baseline_value(const std::string& file, const std::string& metric) {
  const json::Value doc = json::parse_file(baseline_dir() + "/" + file);
  const json::Value* metrics = doc.find("metrics");
  if (metrics == nullptr) throw std::runtime_error(file + ": no metrics");
  const json::Value* m = metrics->find(metric);
  if (m == nullptr) throw std::runtime_error(file + ": no metric " + metric);
  return m->find("value")->as_double();
}

// One ctest entry per corpus file so the (real) simulations run in parallel.
class CorpusReproduction : public testing::TestWithParam<CorpusEntry> {};

TEST_P(CorpusReproduction, GuardedMetricMatchesBaseline) {
  const CorpusEntry& e = GetParam();
  const Scenario& s = e.scenario;
  ASSERT_FALSE(s.name.empty()) << e.file << " does not load";
  if (e.guard.baseline_file.empty()) {
    // Showcases + the example port: the contract is explicit convergence.
    const RunResult r = run(s);
    if (s.workload.timing) {
      EXPECT_FALSE(r.tats.empty());
    } else {
      EXPECT_TRUE(r.data_checked);
      EXPECT_TRUE(r.data_bit_exact);
    }
    return;
  }
  const double want = baseline_value(e.guard.baseline_file, e.guard.metric);
  const double got = run_stat(s, e.guard.stat);
  EXPECT_NEAR(got, want, std::abs(want) * 1e-9) << e.guard.metric;
}

INSTANTIATE_TEST_SUITE_P(AllFiles, CorpusReproduction, testing::ValuesIn(corpus()),
                         [](const testing::TestParamInfo<CorpusEntry>& info) {
                           std::string n = info.param.file;
                           for (char& c : n)
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           return n;
                         });

// The custom_scenario port must be the SAME simulation as the in-code
// ClusterConfig the example builds — every worker's TAT identical, not just a
// summary statistic.
TEST(ScenarioCorpus, CustomScenarioPortMatchesInCodeConfig) {
  const Scenario s = load_file(scenario_dir() + "/custom_rack_lossy.json");
  core::ClusterConfig cfg = core::ClusterConfig::for_rate(gbps(10), 8);
  cfg.timing_only = true;
  cfg.loss_prob = 0.001;
  cfg.adaptive_rto = true;
  cfg.transport = net::TransportKind::kUdp;
  core::Fabric cluster(cfg.fabric());
  const auto want = cluster.reduce_timing(250000);
  const RunResult r = run(s);
  ASSERT_EQ(r.tats.size(), 1u);
  EXPECT_EQ(r.tats[0], want);
}

} // namespace
} // namespace switchml::scenario
