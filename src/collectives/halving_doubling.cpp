#include "collectives/halving_doubling.hpp"

#include <stdexcept>

namespace switchml::collectives {

namespace {
int log2_ceil(int n) {
  int levels = 0;
  while ((1 << levels) < n) ++levels;
  return levels;
}

struct Segment {
  std::int64_t lo;
  std::int64_t len;
};

// Segment owned by host i after `level` reduce-scatter rounds.
Segment segment_at(int i, int n, int level, std::int64_t elems) {
  Segment s{0, elems};
  for (int t = 0; t < level; ++t) {
    const int bit = n >> (t + 1);
    const std::int64_t lower_half = s.len / 2;
    if ((i & bit) == 0) {
      s.len = lower_half;
    } else {
      s.lo += lower_half;
      s.len -= lower_half;
    }
  }
  return s;
}

// Reduce-scatter round l works at level l: host i keeps one half of its
// level-l segment and sends the other half to its partner i ^ (n >> (l + 1)),
// which adds it. All-gather walks the levels back up, nearest partner first:
// host i sends everything it owns at level l + 1 and the partner copies it.
Transfer hd_transfer(bool gather, int r, int from, int n, std::int64_t elems) {
  const int level = gather ? log2_ceil(n) - 1 - r : r;
  const int partner = from ^ (n >> (level + 1));
  const Segment kept = segment_at(from, n, level + 1, elems);
  if (gather) return {partner, kept.lo, kept.len};
  const Segment cur = segment_at(from, n, level, elems);
  return {partner, cur.lo == kept.lo ? kept.lo + kept.len : cur.lo, cur.len - kept.len};
}
} // namespace

HalvingDoublingAllReduce::HalvingDoublingAllReduce(BaselineCluster& cluster,
                                                   net::TransportProfile transport)
    : n_hosts_(cluster.n_hosts()),
      exchange_(cluster, transport, log2_ceil(cluster.n_hosts()), &hd_transfer, 1'000'000) {}

void HalvingDoublingAllReduce::require_power_of_two() const {
  if ((n_hosts_ & (n_hosts_ - 1)) != 0)
    throw std::invalid_argument("HalvingDoublingAllReduce: host count must be a power of two");
}

Time HalvingDoublingAllReduce::run(std::int64_t tensor_bytes) {
  require_power_of_two();
  return exchange_.run(tensor_bytes);
}

Time HalvingDoublingAllReduce::run(std::vector<std::vector<float>>& buffers) {
  require_power_of_two();
  return exchange_.run(buffers);
}

} // namespace switchml::collectives
