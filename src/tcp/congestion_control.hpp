// qoesim -- pluggable TCP congestion control.
//
// The paper's hosts ran TCP Reno (backbone testbed) and BIC/CUBIC (access
// testbed); all three are implemented behind this interface. The socket
// owns loss detection (dup-ACKs, RTO) and calls into the controller, which
// owns the congestion window trajectory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace qoesim::tcp {

enum class CcKind { kReno, kBic, kCubic, kVegas, kBbr };

const char* to_string(CcKind kind);

class CongestionControl {
 public:
  CongestionControl(double mss_bytes, double initial_cwnd_bytes);
  virtual ~CongestionControl() = default;

  /// Cumulative ACK progress of `acked_bytes` new bytes.
  virtual void on_ack(double acked_bytes, Time rtt, Time now) = 0;
  /// Entering fast-recovery (triple dup-ACK loss event).
  virtual void on_loss_event(Time now) = 0;
  /// Retransmission timeout: collapse to one segment.
  virtual void on_timeout(Time now) = 0;
  /// ECN congestion echo (peer reported a CE mark, RFC 3168 §6.1.2). The
  /// socket gates this to once per RTT; loss-based controllers treat it as
  /// a loss-equivalent signal (beta decrease, nothing to retransmit) and
  /// return true. A controller that ignores marks (BBRv1) returns false so
  /// the socket still delivers the triggering ACK to on_ack -- otherwise
  /// the echo would silently starve its delivery-rate sampling.
  virtual bool on_ecn_echo(Time now) {
    on_loss_event(now);
    return true;
  }
  /// Socket-reported bytes in flight after ACK processing (called just
  /// before on_ack). Controllers that reason about the pipe (BBR's drain
  /// and loss response) use it; window-only controllers ignore it.
  virtual void on_flight(double /*flight_bytes*/) {}
  /// Raw delivery sample: bytes newly delivered (cumulative ACK advance
  /// plus newly SACKed) by the ACK being processed. Called on every ACK,
  /// including during loss recovery and before any ABC capping -- rate
  /// estimators (BBR) must see true delivery, not the window-growth
  /// credit on_ack receives. Window-only controllers ignore it.
  virtual void on_delivered(double /*delivered_bytes*/, Time /*now*/) {}

  virtual std::string name() const = 0;

  /// Pacing rate in bits/s the socket should space transmissions at;
  /// 0 means unpaced (pure window release). Only BBR paces.
  virtual double pacing_rate_bps() const { return 0.0; }

  double cwnd_bytes() const { return cwnd_; }
  double ssthresh_bytes() const { return ssthresh_; }
  double mss() const { return mss_; }
  bool in_slow_start() const { return cwnd_ < ssthresh_; }

 protected:
  /// Delay-based slow-start exit (HyStart, Ha & Rhee 2011 -- the mechanism
  /// shipped with Linux CUBIC since 2.6.29, i.e. on the paper's hosts):
  /// once the measured RTT clearly rises above its floor, the queue is
  /// building and slow start ends, avoiding the catastrophic overshoot of
  /// blind doubling into deep buffers. Call from on_ack implementations.
  void hystart_check(Time rtt);

  double mss_;
  double cwnd_;
  double ssthresh_;
  Time min_rtt_ = Time::max();
};

/// Inline storage budget for any controller variant. The pooled socket
/// embeds the controller in a fixed-size box instead of a heap object, so
/// a flow is one arena slot with no satellite allocations; the .cpp
/// static_asserts every variant (BBR is the largest) fits.
inline constexpr std::size_t kCcBoxBytes = 256;

/// Construct the controller for `kind` inside `storage` (at least
/// kCcBoxBytes, max_align_t aligned). The caller owns the lifetime and must
/// invoke the virtual destructor explicitly; nothing is heap-allocated.
CongestionControl* make_congestion_control_in(void* storage, CcKind kind,
                                              double mss_bytes,
                                              double initial_cwnd_bytes);

}  // namespace qoesim::tcp
