// Streaming statistics accumulators used by the simulator and the
// Monte-Carlo reliability engines.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace rnoc {

/// Welford-style streaming accumulator: mean, variance, min, max.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset();

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< Sample (n-1) variance; 0 for n < 2.
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

  /// Half-width of the normal-approximation 95% confidence interval.
  double ci95_halfwidth() const;

  friend bool operator==(const RunningStats&, const RunningStats&) = default;

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-bin histogram over [lo, hi); out-of-range samples clamp to the
/// edge bins so nothing is silently dropped, and the clamped mass is
/// tracked separately so quantiles never pretend to know where inside
/// the range an out-of-range sample landed.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  void merge(const Histogram& other);

  std::uint64_t total() const { return total_; }
  std::size_t bins() const { return counts_.size(); }
  std::uint64_t bin_count(std::size_t i) const { return counts_.at(i); }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;
  std::uint64_t underflow() const { return underflow_; }  ///< samples < lo
  std::uint64_t overflow() const { return overflow_; }    ///< samples >= hi

  /// Value at quantile q in [0,1], linear within the containing bin.
  /// An empty histogram reports lo. Quantiles that fall inside clamped
  /// mass saturate to lo (underflow) or hi (overflow) instead of
  /// interpolating through samples whose true position is unknown.
  double quantile(double q) const;

  std::string to_string(std::size_t max_rows = 16) const;

  friend bool operator==(const Histogram&, const Histogram&) = default;

 private:
  double lo_, hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
};

}  // namespace rnoc
