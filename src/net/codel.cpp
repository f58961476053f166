#include "net/codel.hpp"

#include <cmath>

namespace qoesim::net {

CoDelQueue::CoDelQueue(std::size_t capacity_packets, CoDelParams params)
    : QueueDiscipline(capacity_packets), params_(params) {}

[[gnu::hot]] bool CoDelQueue::do_enqueue(Packet&& p, Time now) {
  // Static-only bridge (see RedQueue::do_enqueue): Link::send asserted the
  // shard upstream.
  shard_plane.assert_held();
  if (q_.size() >= capacity_) {
    count_drop(p, now);
    return false;
  }
  bytes_ += p.size_bytes;
  q_.push(std::move(p));
  return true;
}

Time CoDelQueue::control_law(Time t) const {
  // drop_count_ is >= 1 whenever the dropping state is active; the guard
  // keeps a stray call at 0 from dividing by sqrt(0).
  const double count =
      drop_count_ == 0 ? 1.0 : static_cast<double>(drop_count_);
  return t + params_.interval / std::sqrt(count);
}

bool CoDelQueue::pop_head(Time now, bool& ok_sojourn, Packet& out) {
  shard_plane.assert_held();
  if (q_.empty()) {
    first_above_time_ = Time::zero();
    ok_sojourn = true;
    return false;
  }
  q_.pop(out);
  bytes_ -= out.size_bytes;

  const Time sojourn = now - out.enqueued_at;
  if (sojourn < params_.target || bytes_ <= kMtuBytes) {
    first_above_time_ = Time::zero();
    ok_sojourn = true;
  } else {
    if (first_above_time_.is_zero()) {
      first_above_time_ = now + params_.interval;
      ok_sojourn = true;
    } else {
      ok_sojourn = now < first_above_time_;
    }
  }
  return true;
}

[[gnu::hot]] bool CoDelQueue::do_dequeue(Time now, Packet& out) {
  bool ok = true;
  if (!pop_head(now, ok, out)) {
    dropping_ = false;
    return false;
  }

  if (dropping_) {
    if (ok) {
      dropping_ = false;
    } else {
      while (now >= drop_next_ && dropping_) {
        // RFC 8289 §4.2: with ECN, CE-mark the packet the control law
        // would drop and deliver it; the dropping state and its schedule
        // advance exactly as if it had been dropped.
        if (can_mark(out)) {
          apply_mark(out, now);
          ++drop_count_;
          drop_next_ = control_law(drop_next_);
          return true;
        }
        count_drop(out, now);
        ++drop_count_;
        if (!pop_head(now, ok, out)) {
          dropping_ = false;
          return false;
        }
        if (ok) {
          dropping_ = false;
        } else {
          drop_next_ = control_law(drop_next_);
        }
      }
    }
  } else if (!ok) {
    // Sojourn has been above target for a full interval: enter dropping
    // state, drop (or CE-mark) this packet, and deliver the next (the
    // marked packet itself when marking).
    const bool mark = can_mark(out);
    if (mark) {
      apply_mark(out, now);
    } else {
      count_drop(out, now);
    }
    dropping_ = true;
    // RFC 8289 §4.3 hysteresis: on a quick re-entry (less than 16
    // intervals since the last scheduled drop) resume from the drop rate
    // in effect when the previous dropping state ended -- count picks up
    // at the number of drops that state added (count - lastcount) --
    // otherwise restart from 1.
    const std::uint32_t delta = drop_count_ - last_drop_count_;
    if (delta > 1 && now - drop_next_ < params_.interval * 16.0) {
      drop_count_ = delta;
    } else {
      drop_count_ = 1;
    }
    drop_next_ = control_law(now);
    last_drop_count_ = drop_count_;
    if (mark) return true;  // the marked head is delivered, not replaced
    bool ok2 = true;
    if (!pop_head(now, ok2, out)) {
      dropping_ = false;
      return false;
    }
  }
  return true;
}

}  // namespace qoesim::net
