#include "collectives/rounds.hpp"

#include <span>
#include <stdexcept>
#include <utility>

namespace switchml::collectives {

namespace {
std::int64_t elems_of_bytes(std::int64_t tensor_bytes) {
  if (tensor_bytes % 4 != 0)
    throw std::invalid_argument("all-reduce: tensor bytes must be a multiple of 4");
  return tensor_bytes / 4;
}
} // namespace

RoundExchange::RoundExchange(BaselineCluster& cluster, net::TransportProfile transport,
                             int phase_rounds, Schedule schedule, std::uint32_t first_stream)
    : cluster_(cluster),
      transport_(transport),
      phase_rounds_(phase_rounds),
      schedule_(schedule),
      next_stream_(first_stream) {}

Time RoundExchange::run(std::int64_t tensor_bytes) {
  return reduce(elems_of_bytes(tensor_bytes), nullptr);
}

Time RoundExchange::run(std::vector<std::vector<float>>& buffers) {
  if (static_cast<int>(buffers.size()) != cluster_.n_hosts())
    throw std::invalid_argument("all-reduce: one buffer per host");
  // Every host's buffer is indexed with the same ranges: a shorter one
  // would be read and written past its end, a longer one never reduced.
  for (const auto& b : buffers)
    if (b.size() != buffers.front().size())
      throw std::invalid_argument("all-reduce: buffers differ in length");
  return reduce(static_cast<std::int64_t>(buffers.front().size()), &buffers);
}

void RoundExchange::start(std::int64_t tensor_bytes, std::function<void()> on_done) {
  begin(elems_of_bytes(tensor_bytes), nullptr, std::move(on_done));
}

Time RoundExchange::reduce(std::int64_t elems, std::vector<std::vector<float>>* buffers) {
  begin(elems, buffers, nullptr);
  simulation().run();
  if (busy_) throw std::runtime_error("all-reduce: did not complete");
  return ended_at_ - started_at_;
}

void RoundExchange::begin(std::int64_t elems, std::vector<std::vector<float>>* buffers,
                          std::function<void()> on_done) {
  if (busy_) throw std::logic_error("all-reduce: a reduction is already running");
  busy_ = true;
  elems_ = elems;
  buffers_ = buffers;
  on_done_ = std::move(on_done);
  round_ = 0;
  started_at_ = simulation().now();
  next_round();
}

void RoundExchange::next_round() {
  senders_.clear();
  receivers_.clear();
  const int n = cluster_.n_hosts();
  for (; round_ < 2 * phase_rounds_; ++round_) {
    const bool gather = round_ >= phase_rounds_;
    const int r = gather ? round_ - phase_rounds_ : round_;
    pending_ = 0;
    for (int from = 0; from < n; ++from) {
      const Transfer t = schedule_(gather, r, from, n, elems_);
      if (t.len > 0) send(from, t, !gather);
    }
    if (pending_ > 0) return;
    // A round with nothing to send passes its barrier at once.
  }
  busy_ = false;
  ended_at_ = simulation().now();
  buffers_ = nullptr;
  if (auto done = std::exchange(on_done_, nullptr)) done();
}

void RoundExchange::send(int from, const Transfer& t, bool add) {
  const std::uint32_t stream = next_stream_++;
  ++pending_;

  net::ReliableReceiver::ChunkHandler on_chunk;
  std::span<const float> data;
  if (buffers_ != nullptr) {
    float* into = (*buffers_)[static_cast<std::size_t>(t.to)].data() + t.lo;
    on_chunk = [into, add](std::uint64_t seq, std::uint32_t seg_len,
                          std::span<const float> values) {
      const std::size_t first = static_cast<std::size_t>(seq / 4);
      const std::size_t cnt = seg_len / 4;
      if (values.size() != cnt) throw std::logic_error("all-reduce: segment data size mismatch");
      if (add)
        for (std::size_t j = 0; j < cnt; ++j) into[first + j] += values[j];
      else
        for (std::size_t j = 0; j < cnt; ++j) into[first + j] = values[j];
    };
    data = std::span<const float>((*buffers_)[static_cast<std::size_t>(from)].data() + t.lo,
                                  static_cast<std::size_t>(t.len));
  }
  // The round barrier. The next round starts from a fresh event: starting it
  // here would destroy the receiver that is still running this callback.
  auto on_received = [this] {
    if (--pending_ == 0)
      simulation().schedule_after(0, [this] {
        ++round_;
        next_round();
      });
  };
  net::TransportHost& src = cluster_.host(from);
  net::TransportHost& dst = cluster_.host(t.to);
  receivers_.push_back(std::make_unique<net::ReliableReceiver>(
      dst, src.id(), stream, t.len * 4, std::move(on_chunk), std::move(on_received)));
  senders_.push_back(
      std::make_unique<net::ReliableSender>(src, dst.id(), stream, transport_, nullptr));
  senders_.back()->start(t.len * 4, data);
}

} // namespace switchml::collectives
