#include "collectives/halving_doubling.hpp"

#include <functional>
#include <memory>
#include <span>
#include <stdexcept>

namespace switchml::collectives {

namespace {
bool is_pow2(int n) { return n > 0 && (n & (n - 1)) == 0; }

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
} // namespace

HalvingDoublingAllReduce::HalvingDoublingAllReduce(BaselineCluster& cluster,
                                                   net::TransportProfile transport)
    : cluster_(cluster), transport_(transport) {}

Time HalvingDoublingAllReduce::run(std::int64_t tensor_bytes) {
  if (tensor_bytes % 4 != 0)
    throw std::invalid_argument("HalvingDoublingAllReduce: bytes must be x4");
  return execute(tensor_bytes / 4, nullptr);
}

Time HalvingDoublingAllReduce::run(std::vector<std::vector<float>>& buffers) {
  if (static_cast<int>(buffers.size()) != cluster_.n_hosts())
    throw std::invalid_argument("HalvingDoublingAllReduce: one buffer per host");
  return execute(static_cast<std::int64_t>(buffers.front().size()), &buffers);
}

Time HalvingDoublingAllReduce::execute(std::int64_t elems,
                                       std::vector<std::vector<float>>* buffers) {
  const int n = cluster_.n_hosts();
  if (!is_pow2(n))
    throw std::invalid_argument("HalvingDoublingAllReduce: host count must be a power of two");
  auto& sim = cluster_.simulation();
  const Time t0 = sim.now();

  int levels = 0;
  while ((1 << levels) < n) ++levels;

  struct RoundState {
    std::vector<std::unique_ptr<net::ReliableSender>> senders;
    std::vector<std::unique_ptr<net::ReliableReceiver>> receivers;
    int pending = 0;
  };
  auto state = std::make_shared<RoundState>();

  int round = 0; // 0..levels-1 scatter, levels..2*levels-1 gather
  const int total_rounds = 2 * levels;
  Time done = t0;

  std::function<void()> start_round = [&]() {
    state->senders.clear();
    state->receivers.clear();
    if (round >= total_rounds) {
      done = sim.now();
      return;
    }
    const bool scatter = round < levels;
    // All-gather walks the levels back up: nearest partner first.
    const int level = scatter ? round : total_rounds - 1 - round;
    const int bit = n >> (level + 1);
    state->pending = 0;

    for (int i = 0; i < n; ++i) {
      const int partner = i ^ bit;
      Segment mine{0, 0}, send_seg{0, 0};
      if (scatter) {
        const Segment cur = segment_at(i, n, level, elems);
        const Segment next = segment_at(i, n, level + 1, elems);
        mine = next; // the half we keep (partner's data gets ADDED here)
        send_seg = Segment{cur.lo == next.lo ? next.lo + next.len : cur.lo,
                           cur.len - next.len}; // the half we give up
      } else {
        // All-gather: send everything we own at level+1; receive the
        // sibling's segment, growing ownership to the level's segment.
        send_seg = segment_at(i, n, level + 1, elems);
        mine = segment_at(partner, n, level + 1, elems);
      }
      if (send_seg.len == 0 && mine.len == 0) continue;

      // Each directed transfer i -> partner.
      if (send_seg.len > 0) {
        const std::uint32_t stream = next_stream_++;
        ++state->pending;

        net::ReliableReceiver::ChunkHandler on_chunk;
        if (buffers != nullptr) {
          // Receiver is `partner`; it stores into the segment it keeps,
          // which is exactly the segment we are sending.
          float* dst = (*buffers)[static_cast<std::size_t>(partner)].data() + send_seg.lo;
          const bool add = scatter;
          on_chunk = [dst, add](std::uint64_t seq, std::uint32_t seg_len,
                                std::span<const float> data) {
            const std::size_t first = static_cast<std::size_t>(seq / 4);
            const std::size_t cnt = seg_len / 4;
            if (data.size() != cnt)
              throw std::logic_error("HalvingDoubling: segment data size mismatch");
            if (add)
              for (std::size_t j = 0; j < cnt; ++j) dst[first + j] += data[j];
            else
              for (std::size_t j = 0; j < cnt; ++j) dst[first + j] = data[j];
          };
        }
        auto on_recv_done = [state, &start_round, &round, &sim]() {
          if (--state->pending == 0) {
            sim.schedule_after(0, [&start_round, &round] {
              ++round;
              start_round();
            });
          }
        };
        state->receivers.push_back(std::make_unique<net::ReliableReceiver>(
            cluster_.host(partner), cluster_.host(i).id(), stream, send_seg.len * 4,
            std::move(on_chunk), on_recv_done));
        auto sender = std::make_unique<net::ReliableSender>(
            cluster_.host(i), cluster_.host(partner).id(), stream, transport_, nullptr);
        std::span<const float> data;
        if (buffers != nullptr)
          data = std::span<const float>(
              (*buffers)[static_cast<std::size_t>(i)].data() + send_seg.lo,
              static_cast<std::size_t>(send_seg.len));
        sender->start(send_seg.len * 4, data);
        state->senders.push_back(std::move(sender));
      }
    }
    if (state->pending == 0) {
      ++round;
      start_round();
    }
  };

  // The TAT ends with the last round, but the run drains the NICs' ACK
  // backlog too, so the next run on this cluster starts on a quiet fabric.
  start_round();
  sim.run();
  if (round != total_rounds) throw std::runtime_error("HalvingDoubling: did not complete");
  return done - t0;
}

} // namespace switchml::collectives
