#include "tcp/congestion_control.hpp"

#include <algorithm>
#include <limits>
#include <new>
#include <stdexcept>

#include "tcp/bbr.hpp"
#include "tcp/bic.hpp"
#include "tcp/cubic.hpp"
#include "tcp/reno.hpp"
#include "tcp/vegas.hpp"

namespace qoesim::tcp {

CongestionControl::CongestionControl(double mss_bytes,
                                     double initial_cwnd_bytes)
    : mss_(mss_bytes),
      cwnd_(initial_cwnd_bytes),
      ssthresh_(std::numeric_limits<double>::max() / 4) {
  if (mss_bytes <= 0) {
    throw std::invalid_argument("CongestionControl: mss must be > 0");
  }
}

void CongestionControl::hystart_check(Time rtt) {
  if (rtt <= Time::zero()) return;
  if (rtt < min_rtt_) min_rtt_ = rtt;
  if (!in_slow_start()) return;
  // Linux hystart_low_window: don't bother below 16 segments -- small
  // windows recover cheaply, and stale (queue-inflated) RTT samples right
  // after a timeout would otherwise cancel the slow-start restart.
  if (cwnd_ < 16.0 * mss_) return;
  const Time threshold =
      min_rtt_ + std::max(Time::milliseconds(4), min_rtt_ / 8.0);
  if (rtt > threshold) {
    ssthresh_ = cwnd_;  // leave slow start at the current window
  }
}

const char* to_string(CcKind kind) {
  switch (kind) {
    case CcKind::kReno: return "reno";
    case CcKind::kBic: return "bic";
    case CcKind::kCubic: return "cubic";
    case CcKind::kVegas: return "vegas";
    case CcKind::kBbr: return "bbr";
  }
  return "?";
}

// Every variant must fit the socket's inline controller box (and respect
// its alignment); growing a controller past the budget is a conscious
// memory-contract change, not an accident.
static_assert(sizeof(RenoCc) <= kCcBoxBytes);
static_assert(sizeof(BicCc) <= kCcBoxBytes);
static_assert(sizeof(CubicCc) <= kCcBoxBytes);
static_assert(sizeof(VegasCc) <= kCcBoxBytes);
static_assert(sizeof(BbrCc) <= kCcBoxBytes);
static_assert(alignof(RenoCc) <= alignof(std::max_align_t));
static_assert(alignof(BicCc) <= alignof(std::max_align_t));
static_assert(alignof(CubicCc) <= alignof(std::max_align_t));
static_assert(alignof(VegasCc) <= alignof(std::max_align_t));
static_assert(alignof(BbrCc) <= alignof(std::max_align_t));

CongestionControl* make_congestion_control_in(void* storage, CcKind kind,
                                              double mss_bytes,
                                              double initial_cwnd_bytes) {
  switch (kind) {
    case CcKind::kReno:
      return new (storage) RenoCc(mss_bytes, initial_cwnd_bytes);
    case CcKind::kBic:
      return new (storage) BicCc(mss_bytes, initial_cwnd_bytes);
    case CcKind::kCubic:
      return new (storage) CubicCc(mss_bytes, initial_cwnd_bytes);
    case CcKind::kVegas:
      return new (storage) VegasCc(mss_bytes, initial_cwnd_bytes);
    case CcKind::kBbr:
      return new (storage) BbrCc(mss_bytes, initial_cwnd_bytes);
  }
  throw std::invalid_argument("make_congestion_control_in: unknown kind");
}

}  // namespace qoesim::tcp
