// qoesim -- two-class strict priority queue (QoS isolation).
//
// The paper's recommendation for VoIP (§7.4): "we advocate to use QoS
// mechanisms to isolate VoIP traffic from the other traffic. This is
// already common for ISP internal services". This discipline models that
// deployment: real-time (UDP) packets are served strictly before elastic
// (TCP) traffic, each class with its own drop-tail space, so bulk
// transfers can no longer build queueing delay in front of voice.
#pragma once

#include "net/packet_pool.hpp"
#include "net/queue.hpp"

namespace qoesim::net {

struct PriorityParams {
  /// Share of the buffer reserved for the high-priority (real-time)
  /// class, clamped to [0, 1]. Voice needs little (it should never queue
  /// for long). The high band gets ceil(share * capacity) slots and the
  /// low band the remainder, so the two always sum to the configured
  /// capacity.
  double high_priority_share = 0.25;
};

class PriorityQueue final : public QueueDiscipline {
 public:
  explicit PriorityQueue(std::size_t capacity_packets,
                         PriorityParams params = {});

  std::size_t packet_count() const override {
    return high_.size() + low_.size();
  }
  std::size_t byte_count() const override { return bytes_; }
  std::string name() const override { return "Priority"; }

  std::size_t high_count() const { return high_.size(); }
  std::size_t low_count() const { return low_.size(); }
  std::size_t high_capacity() const { return high_capacity_; }
  std::size_t low_capacity() const { return low_capacity_; }
  std::uint64_t high_drops() const { return high_drops_; }
  std::uint64_t low_drops() const { return low_drops_; }

  /// Classifier: what counts as real-time traffic. Default: UDP.
  static bool is_high_priority(const Packet& p) {
    return p.proto == Protocol::kUdp;
  }

 protected:
  bool do_enqueue(Packet&& p, Time now) override;
  bool do_dequeue(Time now, Packet& out) override;

 private:
  std::size_t high_capacity_;
  std::size_t low_capacity_;
  PacketRing high_;
  PacketRing low_;
  std::size_t bytes_ = 0;
  std::uint64_t high_drops_ = 0;
  std::uint64_t low_drops_ = 0;
};

}  // namespace qoesim::net
