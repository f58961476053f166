// qoesim -- scalar sample summaries (mean/sd via Welford, percentiles,
// boxplot statistics). Used for link-utilization reporting (Table 1, Fig. 5)
// and for aggregating per-probe QoE scores into heatmap cells.
#pragma once

#include <cstddef>
#include <vector>

namespace qoesim::stats {

/// Streaming mean/variance/min/max (Welford's algorithm); O(1) memory.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Five-number summary used for box plots (Fig. 5).
struct BoxplotStats {
  double minimum = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double maximum = 0.0;
  /// Whisker ends per Tukey's 1.5*IQR rule (clamped to data range).
  double whisker_low = 0.0;
  double whisker_high = 0.0;
  std::size_t n = 0;
};

/// Sample container with order statistics. Stores all samples.
class Samples {
 public:
  void add(double x) { data_.push_back(x); sorted_ = false; }
  void add_all(const std::vector<double>& xs);

  std::size_t count() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;

  /// Linear-interpolation percentile, p in [0, 100]. Throws
  /// std::logic_error when there are no samples; callers whose cells may
  /// legitimately be empty should use percentile_or instead.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

  /// percentile(p) when samples exist, otherwise `fallback`; never throws
  /// on an empty container.
  double percentile_or(double p, double fallback) const {
    return data_.empty() ? fallback : percentile(p);
  }
  double median_or(double fallback) const {
    return percentile_or(50.0, fallback);
  }

  BoxplotStats boxplot() const;

  const std::vector<double>& values() const { return data_; }

 private:
  void ensure_sorted() const;
  mutable std::vector<double> data_;
  mutable bool sorted_ = false;
};

}  // namespace qoesim::stats
