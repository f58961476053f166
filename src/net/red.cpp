#include "net/red.hpp"

#include <algorithm>
#include <cmath>

namespace qoesim::net {

RedQueue::RedQueue(std::size_t capacity_packets, RedParams params,
                   std::uint64_t seed)
    : QueueDiscipline(capacity_packets), params_(params), rng_(seed) {}

void RedQueue::set_drain_rate(double bps) {
  if (bps > 0.0) {
    params_.mean_pkt_time =
        Time::seconds(static_cast<double>(kMtuBytes) * 8.0 / bps);
  }
}

[[gnu::hot]] bool RedQueue::do_enqueue(Packet&& p, Time now) {
  // Static-only bridge (the override's base declaration carries no shard
  // annotation): callers were dynamically checked upstream in Link::send.
  shard_plane.assert_held();
  // Update the average queue estimate on every arrival. Across an idle
  // period the estimate decays as if m empty-queue samples had been taken
  // (Floyd & Jacobson eq. 3) instead of freezing at its last busy value.
  if (idle_) {
    const double m = (now - idle_since_).sec() /
                     std::max(1e-12, params_.mean_pkt_time.sec());
    if (m > 0.0) avg_ *= std::pow(1.0 - params_.weight, m);
    // The decay above accounts for the idle time up to `now`; if this
    // arrival is dropped the queue stays empty and the idle period simply
    // continues from here (idle_ is cleared only on admission below).
    idle_since_ = now;
  } else {
    avg_ = (1.0 - params_.weight) * avg_ +
           params_.weight * static_cast<double>(q_.size());
  }

  const double min_th =
      params_.min_th_fraction * static_cast<double>(capacity_);
  const double max_th =
      params_.max_th_fraction * static_cast<double>(capacity_);

  bool drop = false;
  // Forced drops are never converted to marks: a full buffer cannot admit,
  // and avg >= max_th means marking has failed to contain the load, so the
  // sender gets the hard signal (Floyd's ECN RED / Linux red_enqueue).
  bool hard = false;
  if (q_.size() >= capacity_) {
    drop = true;  // hard tail drop
    hard = true;
  } else if (avg_ >= max_th) {
    drop = true;
    hard = true;
  } else if (avg_ >= min_th) {
    // Probabilistic early drop; the 1/(1 - count*pb) correction spreads
    // drops uniformly between forced drops (Floyd & Jacobson, eq. 2).
    const double pb =
        params_.max_p * (avg_ - min_th) / std::max(1e-9, max_th - min_th);
    const double denom = 1.0 - static_cast<double>(count_since_drop_) * pb;
    const double pa = denom <= 0.0 ? 1.0 : std::min(1.0, pb / denom);
    if (rng_.bernoulli(pa)) {
      drop = true;
    } else {
      ++count_since_drop_;
    }
  } else {
    count_since_drop_ = 0;
  }

  if (drop) {
    count_since_drop_ = 0;
    // RFC 3168 §5: with ECN the early-drop decision CE-marks ECT packets
    // and admits them; the congestion signal reaches the sender without
    // losing the packet. A full buffer still has to drop.
    if (!hard && can_mark(p)) {
      apply_mark(p, now);
    } else {
      count_drop(p, now);
      return false;
    }
  }
  bytes_ += p.size_bytes;
  q_.push(std::move(p));
  idle_ = false;
  return true;
}

[[gnu::hot]] bool RedQueue::do_dequeue(Time now, Packet& out) {
  shard_plane.assert_held();  // static-only bridge, as in do_enqueue
  if (q_.empty()) {
    // The transmitter found the queue empty: an idle period starts (ns-2
    // does the same on an empty dequeue).
    if (!idle_) {
      idle_ = true;
      idle_since_ = now;
    }
    return false;
  }
  q_.pop(out);
  bytes_ -= out.size_bytes;
  if (q_.empty()) {
    idle_ = true;
    idle_since_ = now;
  }
  return true;
}

}  // namespace qoesim::net
