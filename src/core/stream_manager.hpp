// Virtual stream buffer manager (§4, Appendix B).
//
// ML frameworks emit one gradient tensor per layer (e.g., 152 tensors per
// ResNet50 iteration in Caffe2) and reduce them in a fixed order. A batch is
// exactly the tensors submitted between two flush() calls. It runs as one
// reduction over the concatenated tensors, keeping the switch pipeline full
// across tensor boundaries, and each tensor's callback fires as soon as all
// of ITS pieces are aggregated, so downstream work (e.g., that layer's
// optimizer step) can start while later tensors are in flight. Batches run
// one at a time, in flush order. A batch's tensors all carry values, or all
// carry only a size (the training simulation: wire time, no values).
//
// Every worker of a job runs one manager and must submit and flush the same
// tensor sizes in the same order (Horovod enforces this ordering; the paper
// patches one line in Caffe2 to do the same). Batches then depend only on
// that sequence, never on when a worker's previous batch ended.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "worker/worker.hpp"

namespace switchml::core {

struct StreamOptions {
  bool average = false; // divide aggregated tensors by n
};

class StreamManager {
public:
  // The manager is `worker`'s chunk handler until destroyed (while idle()).
  explicit StreamManager(worker::Worker& worker, StreamOptions options = {});
  ~StreamManager();
  StreamManager(const StreamManager&) = delete;
  StreamManager& operator=(const StreamManager&) = delete;

  // Adds a tensor with values to the open batch. `in` is this worker's
  // contribution; the aggregated result is written to `out` (may alias
  // `in`). Both spans must stay alive until `on_done` fires.
  // `scaling_factor` is the model-dependent f of §3.7.
  void submit(std::span<const float> in, std::span<float> out, double scaling_factor,
              std::function<void()> on_done);

  // Adds a tensor of `elems` elements that carries no values.
  void submit(std::uint64_t elems, std::function<void()> on_done);

  // Closes the open batch, if any; it starts when the batches before it end.
  void flush();

  // No batch is running: every flushed tensor has completed.
  [[nodiscard]] bool idle() const { return !busy_; }
  [[nodiscard]] std::size_t tensors_completed() const { return tensors_completed_; }

private:
  struct Tensor {
    std::span<const float> in; // empty in a batch without values
    std::span<float> out;
    double f = 1.0;
    std::uint64_t elems = 0;
    std::function<void()> on_done;
    // Assigned when the batch starts:
    std::uint64_t first_elem = 0; // offset in the batch's stream
    std::uint64_t chunks_left = 0;
  };
  struct Batch {
    bool values = false;
    std::vector<Tensor> tensors;
  };

  void add(Tensor t, bool values);
  void start_next();
  void on_chunk(std::uint64_t off);
  void on_batch_complete();
  void finish_tensor(Tensor& t);

  worker::Worker& worker_;
  StreamOptions options_;
  Batch open_;
  std::deque<Batch> closed_;
  Batch running_; // valid while busy_
  bool busy_ = false;
  std::vector<std::int32_t> staging_in_;
  std::vector<std::int32_t> staging_out_;
  std::size_t tensors_completed_ = 0;
};

} // namespace switchml::core
