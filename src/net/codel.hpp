// qoesim -- CoDel (Controlled Delay) AQM, Nichols & Jacobson 2012.
//
// The paper cites CoDel as the AQM response to bufferbloat; this
// implementation follows the RFC 8289 pseudocode: drop head-of-line
// packets while sojourn time has exceeded `target` for at least `interval`,
// with the drop spacing shrinking as interval/sqrt(drop_count). Re-entering
// the dropping state within 16 intervals resumes from the previous drop
// rate (§4.3 hysteresis) instead of restarting at one drop per interval.
#pragma once

#include "net/packet_pool.hpp"
#include "net/queue.hpp"

namespace qoesim::net {

struct CoDelParams {
  Time target = Time::milliseconds(5);
  Time interval = Time::milliseconds(100);
};

class CoDelQueue final : public QueueDiscipline {
 public:
  explicit CoDelQueue(std::size_t capacity_packets, CoDelParams params = {});

  std::size_t packet_count() const override { return q_.size(); }
  std::size_t byte_count() const override { return bytes_; }
  std::string name() const override { return "CoDel"; }

  /// Dropping-state introspection (tests, monitors).
  bool dropping() const { return dropping_; }
  std::uint32_t drop_count() const { return drop_count_; }

 protected:
  bool do_enqueue(Packet&& p, Time now) override;
  bool do_dequeue(Time now, Packet& out) override;

 private:
  /// Pop the head into `out` (false if empty) and check whether its
  /// sojourn is below target.
  bool pop_head(Time now, bool& ok_sojourn, Packet& out);
  Time control_law(Time t) const;

  CoDelParams params_;
  PacketRing q_;
  std::size_t bytes_ = 0;

  Time first_above_time_ = Time::zero();  // when sojourn first exceeded target
  Time drop_next_ = Time::zero();         // next scheduled drop while dropping
  std::uint32_t drop_count_ = 0;
  std::uint32_t last_drop_count_ = 0;
  bool dropping_ = false;
};

}  // namespace qoesim::net
