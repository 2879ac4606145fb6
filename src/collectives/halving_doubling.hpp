// Recursive halving-and-doubling all-reduce [Thakur et al.], the other
// classic collective the paper discusses (§2.1): log2(n) reduce-scatter
// rounds exchanging halves with exponentially closer partners, then log2(n)
// all-gather rounds in reverse. Requires a power-of-two host count. It is one
// schedule on the round engine (rounds.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "collectives/rounds.hpp"

namespace switchml::collectives {

class HalvingDoublingAllReduce {
public:
  HalvingDoublingAllReduce(BaselineCluster& cluster, net::TransportProfile transport);

  // Both return the time from the start to the last round's barrier; the run
  // drains the NICs' ACK backlog too, so the next run on this cluster starts
  // on a quiet fabric. Data mode needs buffers of the same length.
  Time run(std::int64_t tensor_bytes);
  Time run(std::vector<std::vector<float>>& buffers);

private:
  void require_power_of_two() const;

  int n_hosts_;
  RoundExchange exchange_;
};

} // namespace switchml::collectives
