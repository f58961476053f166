// qoesim -- drop-tail FIFO queue, the discipline used throughout the paper.
// Capacity is counted in packets, matching the NetFPGA reference router and
// the Cisco linecard configuration of the testbeds (Table 2).
#pragma once

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

 protected:
  [[gnu::hot]] bool do_enqueue(Packet&& p, Time now) override {
    if (q_.size() >= capacity_) {
      count_drop(p, now);
      return false;
    }
    bytes_ += p.size_bytes;
    q_.push(std::move(p));
    return true;
  }

  [[gnu::hot]] bool do_dequeue(Time /*now*/, Packet& out) override {
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
