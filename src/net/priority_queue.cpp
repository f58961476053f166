#include "net/priority_queue.hpp"

#include <algorithm>
#include <cmath>

namespace qoesim::net {

PriorityQueue::PriorityQueue(std::size_t capacity_packets,
                             PriorityParams params)
    : QueueDiscipline(capacity_packets) {
  // The two bands partition the configured buffer exactly: the paper
  // sweeps total buffer size, so granting the low band a bonus slot (as a
  // max(1, ...) floor used to) would simulate a bigger buffer than
  // configured. A share of 0 (or a 1-packet buffer at full share) leaves
  // one band empty and that class drops everything, which is the faithful
  // reading of the configuration.
  const double share =
      std::clamp(params.high_priority_share, 0.0, 1.0);
  high_capacity_ = std::min(
      capacity_packets,
      static_cast<std::size_t>(
          std::ceil(static_cast<double>(capacity_packets) * share)));
  low_capacity_ = capacity_packets - high_capacity_;
}

[[gnu::hot]] bool PriorityQueue::do_enqueue(Packet&& p, Time now) {
  // Static-only bridge (see RedQueue::do_enqueue): Link::send asserted the
  // shard upstream.
  shard_plane.assert_held();
  if (is_high_priority(p)) {
    if (high_.size() >= high_capacity_) {
      ++high_drops_;
      count_drop(p, now);
      return false;
    }
    bytes_ += p.size_bytes;
    high_.push(std::move(p));
    return true;
  }
  if (low_.size() >= low_capacity_) {
    ++low_drops_;
    count_drop(p, now);
    return false;
  }
  bytes_ += p.size_bytes;
  low_.push(std::move(p));
  return true;
}

[[gnu::hot]] bool PriorityQueue::do_dequeue(Time /*now*/, Packet& out) {
  shard_plane.assert_held();
  PacketRing* source = nullptr;
  if (!high_.empty()) {
    source = &high_;
  } else if (!low_.empty()) {
    source = &low_;
  } else {
    return false;
  }
  source->pop(out);
  bytes_ -= out.size_bytes;
  return true;
}

}  // namespace qoesim::net
