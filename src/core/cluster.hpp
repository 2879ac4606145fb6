// The four deployment shapes the paper evaluates, as thin facades over the
// unified fabric layer (core/fabric.hpp). Each facade pairs a legacy config
// struct — now just FabricParams plus the shape fields — with the accessors
// its callers always had; all wiring lives in the fabric's one build path.
#pragma once

#include <cstdint>
#include <vector>

#include "core/fabric.hpp"

namespace switchml::core {

// Rack-scale cluster (§1): n workers attached to one programmable
// aggregation switch, each over its own full-duplex link.
struct ClusterConfig : FabricParams {
  int n_workers = 8;

  // Convenience: profile for `rate` with the matching NIC and pool size.
  static ClusterConfig for_rate(BitsPerSecond rate, int n_workers = 8);

  [[nodiscard]] FabricConfig fabric() const {
    return FabricConfig(*this, RackSpec{n_workers});
  }
};

class Cluster {
public:
  explicit Cluster(const ClusterConfig& config) : config_(config), fabric_(config.fabric()) {}
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] sim::Simulation& simulation() { return fabric_.simulation(); }
  [[nodiscard]] int n_workers() const { return fabric_.n_workers(); }
  [[nodiscard]] worker::Worker& worker(int i) { return fabric_.worker(i); }
  [[nodiscard]] swprog::AggregationSwitch& agg_switch() { return fabric_.root(); }
  [[nodiscard]] net::Link& link(int i) { return fabric_.link(static_cast<std::size_t>(i)); }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  [[nodiscard]] Fabric& fabric() { return fabric_; }
  [[nodiscard]] MetricsRegistry& metrics() { return fabric_.metrics(); }

  // Sets the Bernoulli loss probability on every link, both directions
  // (the §5.5 loss experiments apply uniform loss "on every link").
  void set_loss_prob(double p) { fabric_.set_loss_prob(p); }

  // Runs one timing-only aggregation of `total_elems` elements on all
  // workers and returns each worker's tensor aggregation time (TAT, §5.1).
  std::vector<Time> reduce_timing(std::uint64_t total_elems) {
    return fabric_.reduce_timing(total_elems);
  }

  // Data-mode aggregation: updates[i] is worker i's quantized model update;
  // returns each worker's aggregated result and TAT.
  using DataReduceResult = Fabric::DataReduceResult;
  DataReduceResult reduce_i32(const std::vector<std::vector<std::int32_t>>& updates) {
    return fabric_.reduce_i32(updates);
  }

private:
  ClusterConfig config_;
  Fabric fabric_;
};

// --- §6: multi-job (tenancy) -------------------------------------------------

// Several independent training jobs sharing ONE switch, each with its own
// admitted aggregator pool. Workers of different jobs are distinct machines
// on their own ports, so jobs contend only for switch pipeline/SRAM — which
// is the paper's point: one reduction uses well under 10% of the chip, so
// concurrent jobs do not slow each other down.
struct MultiJobConfig : FabricParams {
  int n_jobs = 2;
  int workers_per_job = 4;

  [[nodiscard]] FabricConfig fabric() const {
    return FabricConfig(*this, MultiJobSpec{n_jobs, workers_per_job});
  }
};

class MultiJobCluster {
public:
  explicit MultiJobCluster(const MultiJobConfig& config)
      : config_(config), fabric_(config.fabric()) {}
  MultiJobCluster(const MultiJobCluster&) = delete;
  MultiJobCluster& operator=(const MultiJobCluster&) = delete;

  [[nodiscard]] sim::Simulation& simulation() { return fabric_.simulation(); }
  [[nodiscard]] int n_jobs() const { return fabric_.n_jobs(); }
  [[nodiscard]] worker::Worker& worker(int job, int i) {
    return fabric_.worker(job * config_.workers_per_job + i);
  }
  [[nodiscard]] swprog::AggregationSwitch& agg_switch() { return fabric_.root(); }
  [[nodiscard]] const MultiJobConfig& config() const { return config_; }
  [[nodiscard]] Fabric& fabric() { return fabric_; }
  [[nodiscard]] MetricsRegistry& metrics() { return fabric_.metrics(); }

  // Runs one timing-only reduction of `total_elems` on EVERY job
  // concurrently; returns per-job, per-worker TATs.
  std::vector<std::vector<Time>> reduce_timing_all(std::uint64_t total_elems) {
    return fabric_.reduce_timing_all(total_elems);
  }

  // Data mode for one job (other jobs idle).
  Cluster::DataReduceResult reduce_i32(int job,
                                       const std::vector<std::vector<std::int32_t>>& updates) {
    return fabric_.reduce_i32_job(job, updates);
  }

private:
  MultiJobConfig config_;
  Fabric fabric_;
};

// --- §6: hierarchical multi-rack composition --------------------------------

struct HierarchyConfig : FabricParams {
  int racks = 2;
  int workers_per_rack = 8;

  [[nodiscard]] FabricConfig fabric() const {
    return FabricConfig(*this, HierarchySpec{racks, workers_per_rack});
  }
};

class HierarchicalCluster {
public:
  explicit HierarchicalCluster(const HierarchyConfig& config)
      : config_(config), fabric_(config.fabric()) {}
  HierarchicalCluster(const HierarchicalCluster&) = delete;
  HierarchicalCluster& operator=(const HierarchicalCluster&) = delete;

  [[nodiscard]] sim::Simulation& simulation() { return fabric_.simulation(); }
  [[nodiscard]] int n_workers() const { return fabric_.n_workers(); }
  [[nodiscard]] worker::Worker& worker(int i) { return fabric_.worker(i); }
  [[nodiscard]] swprog::AggregationSwitch& leaf(int r) {
    return fabric_.switch_at(1 + static_cast<std::size_t>(r));
  }
  [[nodiscard]] swprog::AggregationSwitch& root() { return fabric_.root(); }
  [[nodiscard]] const HierarchyConfig& config() const { return config_; }
  [[nodiscard]] Fabric& fabric() { return fabric_; }
  [[nodiscard]] MetricsRegistry& metrics() { return fabric_.metrics(); }

  void set_loss_prob(double p) { fabric_.set_loss_prob(p); }
  std::vector<Time> reduce_timing(std::uint64_t total_elems) {
    return fabric_.reduce_timing(total_elems);
  }
  Cluster::DataReduceResult reduce_i32(const std::vector<std::vector<std::int32_t>>& updates) {
    return fabric_.reduce_i32(updates);
  }

private:
  HierarchyConfig config_;
  Fabric fabric_;
};

// Arbitrary-depth tree of aggregation switches (§6: "a very large n coupled
// with a relatively small p would require a hierarchy with H > 3"). Level 0
// is the root; every internal switch runs the Leaf role toward its parent,
// which composes recursively: completion forwards ONE partial upstream,
// results cascade downward, and worker retransmissions regenerate partials
// at every affected level.
struct TreeConfig : FabricParams {
  int levels = 3;           // including the root (2 == HierarchicalCluster)
  int branching = 2;        // children per non-leaf switch
  int workers_per_rack = 4; // workers per bottom-level switch

  TreeConfig() { pool_size = 64; }

  [[nodiscard]] FabricConfig fabric() const {
    return FabricConfig(*this, TreeSpec{levels, branching, workers_per_rack});
  }
};

class TreeCluster {
public:
  explicit TreeCluster(const TreeConfig& config) : config_(config), fabric_(config.fabric()) {}
  TreeCluster(const TreeCluster&) = delete;
  TreeCluster& operator=(const TreeCluster&) = delete;

  [[nodiscard]] sim::Simulation& simulation() { return fabric_.simulation(); }
  [[nodiscard]] int n_workers() const { return fabric_.n_workers(); }
  [[nodiscard]] worker::Worker& worker(int i) { return fabric_.worker(i); }
  [[nodiscard]] swprog::AggregationSwitch& root() { return fabric_.root(); }
  [[nodiscard]] std::size_t n_switches() const { return fabric_.n_switches(); }
  [[nodiscard]] swprog::AggregationSwitch& switch_at(std::size_t i) {
    return fabric_.switch_at(i);
  }
  [[nodiscard]] const TreeConfig& config() const { return config_; }
  [[nodiscard]] Fabric& fabric() { return fabric_; }
  [[nodiscard]] MetricsRegistry& metrics() { return fabric_.metrics(); }

  void set_loss_prob(double p) { fabric_.set_loss_prob(p); }
  std::vector<Time> reduce_timing(std::uint64_t total_elems) {
    return fabric_.reduce_timing(total_elems);
  }
  Cluster::DataReduceResult reduce_i32(const std::vector<std::vector<std::int32_t>>& updates) {
    return fabric_.reduce_i32(updates);
  }

private:
  TreeConfig config_;
  Fabric fabric_;
};

} // namespace switchml::core
