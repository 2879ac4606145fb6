#include "collectives/ring.hpp"

#include <algorithm>
#include <stdexcept>

namespace switchml::collectives {

// One all-reduce in flight: 2(n-1) rounds of neighbor transfers with a
// barrier between rounds.
struct RingAllReduce::Session {
  RingAllReduce& parent;
  std::int64_t elems;
  std::vector<std::vector<float>>* buffers; // null = timing only
  std::function<void()> on_done;
  int round = 0;
  int total_rounds;
  int pending = 0;
  bool finished = false;
  std::vector<std::unique_ptr<net::ReliableSender>> senders;
  std::vector<std::unique_ptr<net::ReliableReceiver>> receivers;

  Session(RingAllReduce& p, std::int64_t e, std::vector<std::vector<float>>* b,
          std::function<void()> done)
      : parent(p), elems(e), buffers(b), on_done(std::move(done)),
        total_rounds(2 * (p.cluster_.n_hosts() - 1)) {}

  [[nodiscard]] std::int64_t chunk_lo(int c) const {
    const int n = parent.cluster_.n_hosts();
    const std::int64_t base = elems / n;
    const std::int64_t rem = elems % n;
    return base * c + std::min<std::int64_t>(c, rem);
  }
  [[nodiscard]] std::int64_t chunk_len(int c) const {
    const int n = parent.cluster_.n_hosts();
    return elems / n + (c < elems % n ? 1 : 0);
  }

  void bank_counters() {
    for (const auto& s : senders) {
      parent.counters_.segments_sent += s->counters().segments_sent;
      parent.counters_.retransmissions += s->counters().retransmissions;
    }
    senders.clear();
    receivers.clear();
  }

  void start_round() {
    bank_counters();
    auto& cluster = parent.cluster_;
    auto& sim = cluster.simulation();
    const int n = cluster.n_hosts();
    if (round >= total_rounds) {
      finished = true;
      if (on_done) on_done();
      return;
    }
    const bool scatter_phase = round < (n - 1);
    const int r = scatter_phase ? round : round - (n - 1);
    pending = 0;

    for (int i = 0; i < n; ++i) {
      // Host i sends to its right neighbor. In reduce-scatter round r it
      // sends chunk (i - r) mod n; the receiver ADDS it. In all-gather round
      // r it sends the chunk it owns, (i + 1 - r) mod n; the receiver COPIES.
      const int to = (i + 1) % n;
      const int send_chunk =
          scatter_phase ? ((i - r) % n + n) % n : ((i + 1 - r) % n + n) % n;
      const std::int64_t lo = chunk_lo(send_chunk);
      const std::int64_t len = chunk_len(send_chunk);
      if (len == 0) continue;

      const std::uint32_t stream = parent.next_stream_++;
      ++pending;

      net::ReliableReceiver::ChunkHandler on_chunk;
      if (buffers != nullptr) {
        float* dst = (*buffers)[static_cast<std::size_t>(to)].data() + lo;
        const bool add = scatter_phase;
        on_chunk = [dst, add](std::uint64_t seq, std::uint32_t seg_len,
                              std::span<const float> data) {
          const std::size_t first = static_cast<std::size_t>(seq / 4);
          const std::size_t cnt = seg_len / 4;
          if (data.size() != cnt)
            throw std::logic_error("RingAllReduce: segment data size mismatch");
          if (add)
            for (std::size_t j = 0; j < cnt; ++j) dst[first + j] += data[j];
          else
            for (std::size_t j = 0; j < cnt; ++j) dst[first + j] = data[j];
        };
      }

      // Defer the round transition to a fresh event: tearing the round down
      // synchronously would destroy the receiver that is still executing.
      auto on_recv_done = [this, &sim]() {
        if (--pending == 0) {
          sim.schedule_after(0, [this] {
            ++round;
            start_round();
          });
        }
      };
      receivers.push_back(std::make_unique<net::ReliableReceiver>(
          cluster.host(to), cluster.host(i).id(), stream, len * 4, std::move(on_chunk),
          on_recv_done));
      auto sender = std::make_unique<net::ReliableSender>(
          cluster.host(i), cluster.host(to).id(), stream, parent.transport_, nullptr);
      std::span<const float> data;
      if (buffers != nullptr)
        data = std::span<const float>((*buffers)[static_cast<std::size_t>(i)].data() + lo,
                                      static_cast<std::size_t>(len));
      sender->start(len * 4, data);
      senders.push_back(std::move(sender));
    }
    if (pending == 0) { // degenerate: empty chunks this round
      ++round;
      start_round();
    }
  }
};

RingAllReduce::RingAllReduce(BaselineCluster& cluster, net::TransportProfile transport)
    : cluster_(cluster), transport_(transport) {}

RingAllReduce::~RingAllReduce() = default;

void RingAllReduce::reap_finished() {
  sessions_.erase(std::remove_if(sessions_.begin(), sessions_.end(),
                                 [](const auto& s) { return s->finished; }),
                  sessions_.end());
}

RingAllReduce::Session& RingAllReduce::launch(std::int64_t elems,
                                              std::vector<std::vector<float>>* buffers,
                                              std::function<void()> on_done) {
  reap_finished();
  sessions_.push_back(std::make_unique<Session>(*this, elems, buffers, std::move(on_done)));
  Session& s = *sessions_.back();
  s.start_round();
  return s;
}

Time RingAllReduce::run(std::int64_t tensor_bytes) {
  if (tensor_bytes % 4 != 0) throw std::invalid_argument("RingAllReduce: bytes must be x4");
  return run_to_completion(tensor_bytes / 4, nullptr);
}

Time RingAllReduce::run(std::vector<std::vector<float>>& buffers) {
  if (static_cast<int>(buffers.size()) != cluster_.n_hosts())
    throw std::invalid_argument("RingAllReduce: one buffer per host");
  return run_to_completion(static_cast<std::int64_t>(buffers.front().size()), &buffers);
}

Time RingAllReduce::run_to_completion(std::int64_t elems,
                                      std::vector<std::vector<float>>* buffers) {
  auto& sim = cluster_.simulation();
  const Time t0 = sim.now();
  Session& s = launch(elems, buffers, nullptr);
  sim.run();
  if (!s.finished) throw std::runtime_error("RingAllReduce: did not complete");
  // The TAT ends at the run's last live event, which includes the NICs' ACK
  // backlog; a timeline sampler's closing daemon tick comes later and does
  // not count.
  return std::max(sim.last_live_at(), t0) - t0;
}

void RingAllReduce::start_async(std::int64_t tensor_bytes, std::function<void()> on_done) {
  if (tensor_bytes % 4 != 0) throw std::invalid_argument("RingAllReduce: bytes must be x4");
  launch(tensor_bytes / 4, nullptr, std::move(on_done));
}

} // namespace switchml::collectives
