#include "collectives/ring.hpp"

#include <algorithm>

namespace switchml::collectives {

namespace {
// Reduce-scatter round r: host i sends chunk (i - r) mod n to its right
// neighbor, which adds it. All-gather round r: host i sends the chunk it
// owns, (i + 1 - r) mod n, and the neighbor copies it.
Transfer ring_transfer(bool gather, int r, int from, int n, std::int64_t elems) {
  const int c = ((from + (gather ? 1 : 0) - r) % n + n) % n;
  const std::int64_t base = elems / n;
  const std::int64_t rem = elems % n;
  return {(from + 1) % n, base * c + std::min<std::int64_t>(c, rem), base + (c < rem ? 1 : 0)};
}
} // namespace

RingAllReduce::RingAllReduce(BaselineCluster& cluster, net::TransportProfile transport)
    : exchange_(cluster, transport, cluster.n_hosts() - 1, &ring_transfer, 1) {}

Time RingAllReduce::run(std::int64_t tensor_bytes) {
  exchange_.run(tensor_bytes);
  return tat();
}

Time RingAllReduce::run(std::vector<std::vector<float>>& buffers) {
  exchange_.run(buffers);
  return tat();
}

void RingAllReduce::start_async(std::int64_t tensor_bytes, std::function<void()> on_done) {
  exchange_.start(tensor_bytes, std::move(on_done));
}

// The TAT ends at the run's last live event, which includes the NICs' ACK
// backlog after the last round; a timeline sampler's closing daemon tick
// comes later and does not count.
Time RingAllReduce::tat() {
  const Time t0 = exchange_.started_at();
  return std::max(exchange_.simulation().last_live_at(), t0) - t0;
}

} // namespace switchml::collectives
