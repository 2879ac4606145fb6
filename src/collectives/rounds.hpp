// The round engine behind the host collectives (§2.1): ring and
// halving-doubling all-reduce are both two phases of k round-synchronous
// rounds of host-to-host transfers over the reliable transport. In each
// round of the first phase (reduce-scatter) a receiver adds what it gets
// into its buffer; in each round of the second (all-gather) it copies it.
// The next round starts only once every transfer of this one has been
// received. A collective is then a schedule: where each host sends in each
// round.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "collectives/baseline_cluster.hpp"

namespace switchml::collectives {

// What one host sends in one round: elements [lo, lo + len) of its buffer,
// into the same range of host `to`'s. A transfer of length 0 is skipped.
struct Transfer {
  int to = 0;
  std::int64_t lo = 0;
  std::int64_t len = 0;
};

class RoundExchange {
public:
  // The transfer host `from` makes in round `r` (0-based) of the
  // reduce-scatter phase, or of the all-gather phase when `gather`, of a
  // reduction of `elems` elements over `n` hosts.
  using Schedule = Transfer (*)(bool gather, int r, int from, int n, std::int64_t elems);

  // Each transfer is its own stream, numbered up from `first_stream`. A
  // stream id picks the NIC core that carries the transfer (`stream % cores`)
  // and its attribution slot, so each collective keeps the base it has
  // always had (ring 1, halving-doubling 1,000,000) and its runs keep their
  // core assignment.
  RoundExchange(BaselineCluster& cluster, net::TransportProfile transport, int phase_rounds,
                Schedule schedule, std::uint32_t first_stream);
  RoundExchange(const RoundExchange&) = delete; // callbacks hold `this`
  RoundExchange& operator=(const RoundExchange&) = delete;

  // Timing only: reduces a tensor of `tensor_bytes` (a multiple of 4) and
  // runs the simulation until the fabric is quiet, ACK backlog included.
  // Returns the time from the start to the last round's barrier.
  Time run(std::int64_t tensor_bytes);

  // Data mode: buffers[i] is host i's contribution, of the same length on
  // every host, and is replaced by the element-wise sum across hosts.
  Time run(std::vector<std::vector<float>>& buffers);

  // Timing only, asynchronous: returns at once; `on_done` runs from the
  // event loop when the last round's barrier is passed and may start the
  // next reduction. One reduction runs at a time: throws std::logic_error
  // while one is running.
  void start(std::int64_t tensor_bytes, std::function<void()> on_done);

  [[nodiscard]] sim::Simulation& simulation() { return cluster_.simulation(); }
  // When the last reduction started.
  [[nodiscard]] Time started_at() const { return started_at_; }

private:
  Time reduce(std::int64_t elems, std::vector<std::vector<float>>* buffers);
  void begin(std::int64_t elems, std::vector<std::vector<float>>* buffers,
             std::function<void()> on_done);
  void next_round();
  void send(int from, const Transfer& t, bool add);

  BaselineCluster& cluster_;
  net::TransportProfile transport_;
  int phase_rounds_; // k: rounds in each phase
  Schedule schedule_;
  std::uint32_t next_stream_;

  // The reduction in flight.
  bool busy_ = false;
  std::int64_t elems_ = 0;
  std::vector<std::vector<float>>* buffers_ = nullptr; // null = timing only
  std::function<void()> on_done_;
  int round_ = 0; // 0 .. 2k - 1 across both phases
  int pending_ = 0; // transfers of this round not yet received
  Time started_at_ = 0;
  Time ended_at_ = 0;
  std::vector<std::unique_ptr<net::ReliableSender>> senders_;
  std::vector<std::unique_ptr<net::ReliableReceiver>> receivers_;
};

} // namespace switchml::collectives
