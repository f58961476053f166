#include "stats/timeseries.hpp"

#include <stdexcept>

namespace qoesim::stats {

BinnedSeries::BinnedSeries(qoesim::Time bin_width) : bin_width_(bin_width) {
  if (!(bin_width > qoesim::Time::zero())) {
    throw std::invalid_argument("BinnedSeries: bin width must be positive");
  }
}

void BinnedSeries::add(qoesim::Time t, double value) {
  if (t.is_negative()) return;
  const auto idx = static_cast<std::size_t>(t.ns() / bin_width_.ns());
  if (idx >= values_.size()) values_.resize(idx + 1, 0.0);
  values_[idx] += value;
}

double BinnedSeries::total() const {
  double s = 0.0;
  for (double v : values_) s += v;
  return s;
}

std::vector<double> BinnedSeries::bin_values(qoesim::Time from,
                                             qoesim::Time to) const {
  // Bins with no samples are reported as 0 so idle periods count toward
  // utilization statistics.
  std::vector<double> out;
  for (std::size_t i = 0;; ++i) {
    const qoesim::Time lo = bin_start(i);
    const qoesim::Time hi = lo + bin_width_;
    if (hi > to) break;
    if (lo < from) continue;
    out.push_back(i < values_.size() ? values_[i] : 0.0);
  }
  return out;
}

}  // namespace qoesim::stats
