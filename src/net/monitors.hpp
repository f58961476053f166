// qoesim -- passive measurement instruments.
//
// LinkMonitor reproduces the paper's QoS instrumentation: per-bin link
// utilization (Table 1 reports mean/sd of per-second utilization; Fig. 5
// draws boxplots of the same bins) and loss rate at the buffer. A warmup
// prefix can be excluded so statistics reflect steady state.
#pragma once

#include <cstdint>
#include <string>

#include "net/link.hpp"
#include "stats/summary.hpp"
#include "stats/timeseries.hpp"

namespace qoesim::net {

class LinkMonitor {
 public:
  /// Attaches to `link`: registers the tx observer and becomes the link's
  /// queue-delay sink. One monitor per link: a second one throws
  /// std::logic_error naming the link. The monitor must outlive the
  /// link's traffic.
  LinkMonitor(Link& link, Time bin_width = Time::seconds(1));

  LinkMonitor(const LinkMonitor&) = delete;
  LinkMonitor& operator=(const LinkMonitor&) = delete;

  /// Per-bin utilization in [0, ~1], for bins fully inside [from, to).
  stats::Samples utilization(Time from, Time to) const;

  /// Mean utilization over [from, to).
  double mean_utilization(Time from, Time to) const;

  /// Fraction of offered packets dropped at this link's buffer since
  /// attachment (whole-run figure, as in Table 1).
  double loss_rate() const { return link_.queue().stats().drop_rate(); }

  /// Fraction of offered packets CE-marked instead of dropped (ECN).
  double mark_rate() const { return link_.queue().stats().mark_rate(); }

  /// Per-packet time spent waiting in the buffer (seconds, excluding
  /// serialization), measured from attachment on: packets that start
  /// serializing before the monitor exists are not counted. Links that no
  /// monitor watches skip this bookkeeping.
  const stats::RunningStats& queue_delay() const { return queue_delay_; }
  /// Mean of queue_delay().
  double mean_queue_delay_s() const { return queue_delay_.mean(); }

  const Link& link() const { return link_; }
  std::uint64_t tx_packets() const { return tx_packets_; }
  std::uint64_t tx_bytes() const { return tx_bytes_; }

 private:
  Link& link_;
  stats::BinnedSeries bytes_per_bin_;
  stats::RunningStats queue_delay_;
  std::uint64_t tx_packets_ = 0;
  std::uint64_t tx_bytes_ = 0;
};

}  // namespace qoesim::net
