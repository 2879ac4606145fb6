// Fixed-memory latency histogram (tier 3 of the observability layer).
//
// An HdrHistogram-style log-linear bucketed histogram for non-negative
// integer values (nanosecond durations on the simulator's hot paths). The
// bucket layout is power-of-2: `precision_bits` (p) fixes the number of
// linear sub-buckets per octave, giving a bounded relative error of
// 2^-(p-1) (p=7 → ≤ 1.6%) at every magnitude up to `max_value`. Values
// above `max_value` land in a dedicated overflow bucket so they are counted,
// never lost.
//
// Cost model: record() is O(1) and allocation-free — one bit_width, one
// shift/add index computation, five scalar updates. Percentile queries walk
// the (few-KB) bucket array and are meant for snapshot/export time, never
// the hot path.
//
// count/sum/min/max are exact; percentiles are reported as the highest value
// equivalent to the bucket containing the requested rank, so repeated runs
// of a deterministic simulation produce bit-identical percentile output.
// Histograms with identical layout merge by elementwise bucket addition.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace switchml {

// Histograms are always built in; only perfbench's provenance reads this.
inline constexpr bool kHistogramsCompiledIn = true;

class Histogram {
public:
  struct Config {
    // Linear sub-buckets per octave = 2^precision_bits; relative error of a
    // bucketed value is at most 2^-(precision_bits-1). Range [1, 14].
    int precision_bits = 7;
    // Largest exactly-bucketed value; larger values are counted in the
    // overflow bucket and reported as max_value by percentile queries.
    // Default covers one hour of nanoseconds.
    std::int64_t max_value = 3'600'000'000'000LL;
  };

  Histogram() : Histogram(Config{}) {}
  explicit Histogram(Config config);

  // --- hot path --------------------------------------------------------------

  // O(1), allocation-free. Negative values clamp to 0.
  void record(std::int64_t value) { record_n(value, 1); }

  void record_n(std::int64_t value, std::uint64_t n) {
    if (n == 0) return;
    if (value < 0) value = 0;
    counts_[index_of(value)] += n;
    count_ += n;
    sum_ += value * static_cast<std::int64_t>(n);
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
  }

  // --- exact aggregates ------------------------------------------------------

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::int64_t sum() const { return sum_; }
  [[nodiscard]] std::int64_t min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] std::int64_t max() const { return count_ == 0 ? 0 : max_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  // Recorded values that exceeded max_value (subset of count()).
  [[nodiscard]] std::uint64_t overflow_count() const { return counts_.back(); }

  // --- percentiles -----------------------------------------------------------

  // Value at percentile p in [0, 100]: the highest value equivalent to the
  // bucket holding the sample of rank ceil(p/100 * count), clamped to the
  // exact max so percentile(p) never exceeds an observed value. p<=0 returns
  // the exact min, p>=100 the exact max; ranks in the overflow bucket report
  // max(). Returns 0 on an empty histogram.
  [[nodiscard]] std::int64_t percentile(double p) const;

  struct Quantiles {
    std::uint64_t count = 0;
    std::int64_t p50 = 0, p90 = 0, p99 = 0, p999 = 0;
  };
  // {count, p50, p90, p99, p99.9} in one bucket walk, clamped to the exact
  // max like percentile().
  [[nodiscard]] Quantiles quantiles() const {
    Quantiles q = quantiles_of(counts_);
    if (count_ != 0) {
      q.p50 = q.p50 < max_ ? q.p50 : max_;
      q.p90 = q.p90 < max_ ? q.p90 : max_;
      q.p99 = q.p99 < max_ ? q.p99 : max_;
      q.p999 = q.p999 < max_ ? q.p999 : max_;
    }
    return q;
  }

  // Quantiles of an externally supplied bucket-count vector laid out like
  // counts() — used by TimelineRecorder to turn per-interval count deltas
  // into per-interval percentiles without re-recording samples. Ranks in the
  // overflow slot (and exact-min/max extremes, which a delta vector cannot
  // know) report bucket-equivalent values.
  [[nodiscard]] Quantiles quantiles_of(const std::vector<std::uint64_t>& counts) const;

  // --- merge / reset ---------------------------------------------------------

  // Elementwise bucket addition; throws std::invalid_argument unless both
  // histograms share precision_bits and max_value.
  void merge(const Histogram& other);

  // Zeroes all counts; keeps the allocation.
  void reset();

  // --- layout introspection --------------------------------------------------

  [[nodiscard]] const Config& config() const { return config_; }
  // Bucket array, lowest value range first; the final slot is the overflow
  // bucket. Size is fixed at construction.
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const { return counts_; }
  // Index of the bucket `value` records into (last index = overflow).
  [[nodiscard]] std::size_t index_of(std::int64_t value) const {
    if (value > config_.max_value) return counts_.size() - 1;
    const auto v = static_cast<std::uint64_t>(value);
    // Sub-bucket index 0..2^p-1 in bucket 0 (unit resolution), then
    // 2^(p-1)..2^p-1 in each higher bucket (resolution doubles per octave).
    const int bucket = bit_width_(v | (sub_bucket_count_ - 1)) - config_.precision_bits;
    const std::uint64_t sub = v >> bucket;
    return (static_cast<std::size_t>(bucket + 1) << (config_.precision_bits - 1)) +
           static_cast<std::size_t>(sub - sub_bucket_half_);
  }
  // Highest value mapping to bucket `idx`; the overflow slot reports
  // max_value.
  [[nodiscard]] std::int64_t value_at_index(std::size_t idx) const;

  // "p50 [min, max] p99=... (n=...)" one-liner for terminal tables.
  [[nodiscard]] std::string str() const;

private:
  static int bit_width_(std::uint64_t v) {
    return 64 - __builtin_clzll(v | 1);
  }

  Config config_;
  std::uint64_t sub_bucket_count_ = 0;
  std::uint64_t sub_bucket_half_ = 0;
  std::vector<std::uint64_t> counts_; // [buckets..., overflow]
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

} // namespace switchml
