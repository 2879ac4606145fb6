// Small descriptive-statistics helper used wherever the paper reports
// violin plots (median/min/max) or rate summaries.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace switchml {

// Accumulates samples and produces the summary statistics the paper's
// violin plots show: median, min, max, plus mean and percentiles.
//
// Edge-case contract (so callers never need to pre-check):
//  * min/max/mean/median/percentile throw std::logic_error on an empty
//    summary — there is no honest number to return;
//  * str() and stddev() are total: str() of an empty summary is
//    "(no samples)", stddev() of fewer than two samples is 0.0;
//  * percentile() clamps p <= 0 to the minimum and p >= 100 to the maximum,
//    interpolating linearly in between.
// The sample buffer sorts lazily: the first order statistic after a batch of
// add()s pays one sort, and the sorted order is cached across mixed
// min/median/percentile calls until the next add().
class Summary {
public:
  void add(double v);
  // Bulk append; reserves once up front, so growing a summary from per-rep
  // vectors (the fig4 violin path) does not reallocate per element.
  void add_all(const std::vector<double>& vs);

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double median() const;
  // Sample standard deviation (n-1 denominator); 0.0 for fewer than two
  // samples.
  [[nodiscard]] double stddev() const;
  // Linear-interpolated percentile, p in [0, 100].
  [[nodiscard]] double percentile(double p) const;

  // "median [min, max] (n=...)" — the textual equivalent of a violin plot.
  // "(no samples)" when empty.
  [[nodiscard]] std::string str(int precision = 2) const;

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

private:
  void sort() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

// Jacobson/Karels smoothed round-trip time, as in RFC 6298: the first sample
// R sets SRTT = R and RTTVAR = R/2; each later one moves RTTVAR by
// (|R - SRTT| - RTTVAR)/4 and SRTT by (R - SRTT)/8. The worker's slot timers
// and the reliable transport's RTO both run it.
struct RttEstimator {
  double srtt = 0.0;
  double rttvar = 0.0;
  bool have_sample = false;

  void add(Time sample) {
    const double r = static_cast<double>(sample);
    if (!have_sample) {
      srtt = r;
      rttvar = r / 2.0;
      have_sample = true;
      return;
    }
    const double err = r - srtt;
    srtt += err / 8.0;
    rttvar += (std::abs(err) - rttvar) / 4.0;
  }

  // SRTT + 4 RTTVAR, truncated to whole nanoseconds, clamped to [lo, hi].
  [[nodiscard]] Time rto(Time lo, Time hi) const {
    return std::clamp(static_cast<Time>(srtt + 4.0 * rttvar), lo, hi);
  }
};

} // namespace switchml
