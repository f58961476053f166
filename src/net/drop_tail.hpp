// qoesim -- drop-tail FIFO queue, the discipline used throughout the paper.
// Capacity is counted in packets, matching the NetFPGA reference router and
// the Cisco linecard configuration of the testbeds (Table 2).
#pragma once

#include <algorithm>

#include "net/packet_pool.hpp"
#include "net/queue.hpp"

namespace qoesim::net {

class DropTailQueue final : public QueueDiscipline {
 public:
  explicit DropTailQueue(std::size_t capacity_packets)
      : QueueDiscipline(capacity_packets) {}

  std::size_t packet_count() const override { return q_.size(); }
  std::size_t byte_count() const override { return bytes_; }
  std::string name() const override { return "DropTail"; }

  /// A packet offered to an empty queue is also the next one out, so it is
  /// copied once, straight into `out`, with the counters enqueue and
  /// dequeue would have left.
  [[gnu::hot]] bool pass_idle(Packet&& p, Time now, Packet& out) override {
    if (!q_.empty() || capacity_ == 0) {
      return QueueDiscipline::pass_idle(std::move(p), now, out);
    }
    ++stats_.offered;
    ++stats_.enqueued;
    ++stats_.dequeued;
    stats_.bytes_offered += p.size_bytes;
    stats_.max_packets_seen =
        std::max<std::uint64_t>(stats_.max_packets_seen, 1);
    p.enqueued_at = now;
    out = std::move(p);
    return true;
  }

 protected:
  [[gnu::hot]] bool do_enqueue(Packet&& p, Time now) override {
    // Static-only bridge (see RedQueue::do_enqueue): Link::send asserted
    // the shard upstream.
    shard_plane.assert_held();
    if (q_.size() >= capacity_) {
      count_drop(p, now);
      return false;
    }
    bytes_ += p.size_bytes;
    q_.push(std::move(p));
    return true;
  }

  [[gnu::hot]] bool do_dequeue(Time /*now*/, Packet& out) override {
    shard_plane.assert_held();
    if (q_.empty()) return false;
    q_.pop(out);
    bytes_ -= out.size_bytes;
    return true;
  }

 private:
  PacketRing q_;
  std::size_t bytes_ = 0;
};

}  // namespace qoesim::net
