#include "core/stream_manager.hpp"

#include <algorithm>
#include <stdexcept>

#include "quant/fixed_point.hpp"

namespace switchml::core {

StreamManager::StreamManager(worker::Worker& worker, StreamOptions options)
    : worker_(worker), options_(options) {
  worker_.set_chunk_handler([this](std::uint64_t off, std::uint32_t) { on_chunk(off); });
}

StreamManager::~StreamManager() { worker_.set_chunk_handler(nullptr); }

void StreamManager::submit(std::span<const float> in, std::span<float> out,
                           double scaling_factor, std::function<void()> on_done) {
  if (in.size() != out.size())
    throw std::invalid_argument("StreamManager::submit: in/out size mismatch");
  if (scaling_factor <= 0)
    throw std::invalid_argument("StreamManager::submit: scaling factor must be positive");
  add({in, out, scaling_factor, in.size(), std::move(on_done)}, /*values=*/true);
}

void StreamManager::submit(std::uint64_t elems, std::function<void()> on_done) {
  add({{}, {}, 1.0, elems, std::move(on_done)}, /*values=*/false);
}

void StreamManager::add(Tensor t, bool values) {
  if (open_.tensors.empty())
    open_.values = values;
  else if (open_.values != values)
    throw std::invalid_argument(
        "StreamManager::submit: a batch's tensors all carry values or all carry only a size");
  open_.tensors.push_back(std::move(t));
}

void StreamManager::flush() {
  if (open_.tensors.empty()) return;
  closed_.push_back(std::move(open_));
  open_ = {};
  if (!busy_) start_next();
}

void StreamManager::start_next() {
  if (closed_.empty()) return;
  running_ = std::move(closed_.front());
  closed_.pop_front();
  busy_ = true;

  // Every tensor but the last is padded to whole packets, so no packet spans
  // two tensors (padding elements aggregate zeros, which is harmless) and a
  // one-tensor batch is one reduction of exactly its size.
  const std::uint64_t k = worker_.config().elems_per_packet;
  std::uint64_t padded = 0;
  for (Tensor& t : running_.tensors) {
    t.first_elem = padded;
    t.chunks_left = (t.elems + k - 1) / k;
    padded += t.chunks_left * k;
  }
  const std::uint64_t total = running_.tensors.back().first_elem + running_.tensors.back().elems;
  if (!running_.values) {
    worker_.start_reduction(total, [this] { on_batch_complete(); });
    return;
  }
  staging_in_.assign(total, 0);
  staging_out_.assign(total, 0);
  for (const Tensor& t : running_.tensors) {
    quant::quantize(t.in, t.f,
                    std::span<std::int32_t>(staging_in_.data() + t.first_elem, t.elems));
  }
  worker_.start_reduction(staging_in_, staging_out_, [this] { on_batch_complete(); });
}

void StreamManager::on_chunk(std::uint64_t off) {
  if (!busy_) return;
  // Tensors are packet-aligned, so a chunk belongs to exactly one tensor: the
  // last one starting at or before it (a zero-element tensor sharing its
  // first offset with the next one comes before it).
  auto& tensors = running_.tensors;
  const auto after = std::upper_bound(
      tensors.begin(), tensors.end(), off,
      [](std::uint64_t o, const Tensor& t) { return o < t.first_elem; });
  if (after == tensors.begin()) throw std::logic_error("StreamManager: chunk for unknown offset");
  Tensor& t = *std::prev(after);
  if (t.chunks_left == 0)
    throw std::logic_error("StreamManager: more chunks than expected for a tensor");
  if (--t.chunks_left == 0) finish_tensor(t);
}

void StreamManager::finish_tensor(Tensor& t) {
  if (running_.values) {
    const double inv_n = 1.0 / static_cast<double>(worker_.config().n_workers);
    const double post = options_.average ? inv_n : 1.0;
    for (std::size_t j = 0; j < t.out.size(); ++j) {
      const auto sum = static_cast<double>(staging_out_[t.first_elem + j]);
      t.out[j] = static_cast<float>(sum / t.f * post);
    }
  }
  ++tensors_completed_;
  if (t.on_done) t.on_done();
}

void StreamManager::on_batch_complete() {
  // A zero-element tensor has no chunk: it completes with its batch.
  for (Tensor& t : running_.tensors)
    if (t.elems == 0) finish_tensor(t);
  running_ = {};
  busy_ = false;
  start_next();
}

} // namespace switchml::core
