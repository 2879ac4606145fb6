// Ring all-reduce (§2.1) — the algorithm behind the paper's Gloo and NCCL
// baselines. Bandwidth-optimal: reduce-scatter (n-1 rounds) followed by
// all-gather (n-1 rounds), each worker exchanging |U|/n-sized chunks with its
// ring neighbors over the reliable transport.
//
// Two entry points: the synchronous run() used by the microbenchmarks, and
// start_async() used by the event-driven training simulation, where ring
// reductions must interleave with simulated compute (Horovod-style fusion
// buffers are drained one all-reduce at a time).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "collectives/baseline_cluster.hpp"

namespace switchml::collectives {

class RingAllReduce {
public:
  RingAllReduce(BaselineCluster& cluster, net::TransportProfile transport);
  ~RingAllReduce();
  RingAllReduce(const RingAllReduce&) = delete;
  RingAllReduce& operator=(const RingAllReduce&) = delete;

  // Timing-only run: reduces a tensor of `tensor_bytes` across all hosts and
  // returns the wall-clock duration (TAT).
  Time run(std::int64_t tensor_bytes);

  // Data-mode run: buffers[i] is host i's contribution and is replaced by
  // the element-wise sum across hosts.
  Time run(std::vector<std::vector<float>>& buffers);

  // Asynchronous timing-only reduction: returns immediately; `on_done` fires
  // from the event loop when the all-reduce completes. Multiple async
  // reductions may be started back to back (they pipeline on the fabric).
  void start_async(std::int64_t tensor_bytes, std::function<void()> on_done);

  struct Counters {
    std::uint64_t segments_sent = 0;
    std::uint64_t retransmissions = 0;
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

private:
  struct Session;

  Time run_to_completion(std::int64_t elems, std::vector<std::vector<float>>* buffers);
  Session& launch(std::int64_t elems, std::vector<std::vector<float>>* buffers,
                  std::function<void()> on_done);
  void reap_finished();

  BaselineCluster& cluster_;
  net::TransportProfile transport_;
  Counters counters_;
  std::uint32_t next_stream_ = 1;
  std::vector<std::unique_ptr<Session>> sessions_;
};

} // namespace switchml::collectives
