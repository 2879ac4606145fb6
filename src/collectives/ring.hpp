// Ring all-reduce (§2.1) — the algorithm behind the paper's Gloo and NCCL
// baselines. Bandwidth-optimal: reduce-scatter (n-1 rounds) followed by
// all-gather (n-1 rounds), each worker exchanging |U|/n-sized chunks with its
// ring neighbors over the reliable transport. It is one schedule on the
// round engine (rounds.hpp).
//
// Two entry points: the synchronous run() used by the microbenchmarks, and
// start_async() used by the event-driven training simulation, where ring
// reductions must interleave with simulated compute (Horovod-style fusion
// buffers are drained one all-reduce at a time).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "collectives/rounds.hpp"

namespace switchml::collectives {

class RingAllReduce {
public:
  RingAllReduce(BaselineCluster& cluster, net::TransportProfile transport);

  // Timing-only run: reduces a tensor of `tensor_bytes` across all hosts and
  // returns the wall-clock duration (TAT).
  Time run(std::int64_t tensor_bytes);

  // Data-mode run: buffers[i] is host i's contribution and is replaced by
  // the element-wise sum across hosts. Every buffer has the same length.
  Time run(std::vector<std::vector<float>>& buffers);

  // Asynchronous timing-only reduction: returns immediately; `on_done` fires
  // from the event loop when the all-reduce completes and may start the next
  // one. Throws std::logic_error while a reduction is running.
  void start_async(std::int64_t tensor_bytes, std::function<void()> on_done);

private:
  [[nodiscard]] Time tat();

  RoundExchange exchange_;
};

} // namespace switchml::collectives
