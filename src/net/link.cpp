#include "net/link.hpp"

#include "net/mailbox.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace qoesim::net {

Link::Link(Simulation& sim, std::string name, double rate_bps, Time prop_delay,
           std::unique_ptr<QueueDiscipline> queue)
    : sim_(sim),
      queue_(std::move(queue)),
      prop_delay_(prop_delay),
      rate_bps_(rate_bps),
      name_(std::move(name)) {
  // A NaN or infinite rate would reach serialization_time's integer cast;
  // a negative delay would surface only at the first delivery.
  if (!std::isfinite(rate_bps_) || rate_bps_ <= 0.0) {
    throw std::invalid_argument("Link " + name_ +
                                ": rate must be finite and > 0");
  }
  if (prop_delay_.is_negative()) {
    throw std::invalid_argument("Link " + name_ +
                                ": propagation delay must be >= 0");
  }
  if (!queue_) {
    throw std::invalid_argument("Link " + name_ + ": queue required");
  }
  queue_->set_drain_rate(rate_bps_);
}

void Link::set_queue_delay_stats(stats::RunningStats* stats) {
  if (queue_delay_ != nullptr && queue_delay_ != stats) {
    throw std::logic_error("Link " + name_ +
                           ": already watched by another LinkMonitor");
  }
  queue_delay_ = stats;
}

void Link::set_mailbox(ShardMailbox* mailbox) {
  if (wire_depth() != 0) {
    throw std::logic_error("Link " + name_ +
                           ": mailbox set while packets are propagating");
  }
  mailbox_ = mailbox;
}

Link::PoolStats Link::pool_stats() const {
  PoolStats s;
  s.acquired = delivered_packets_ + (busy_ ? 1 : 0);
  s.released = s.acquired - in_flight_.size();
  s.slab_growths = in_flight_.growths();
  s.peak_in_flight = peak_in_flight_;
  return s;
}

[[gnu::hot]] void Link::send(Packet&& p) {
  sim_.shard().assert_held();
  if (busy_) {
    queue_->enqueue(std::move(p), sim_.now());
    return;
  }
  // The discipline writes the packet it serves next straight into the
  // FIFO's free back slot, the packet's home until it is delivered; if it
  // serves none the slot stays uncommitted. `p` may be the front entry a
  // sink was handed: staging never moves it.
  if (queue_->pass_idle(std::move(p), sim_.now(), in_flight_.stage().packet)) {
    start_tx();
  }
}

[[gnu::hot]] void Link::start_tx() {
  in_flight_.commit();
  busy_ = true;
  if (in_flight_.size() > peak_in_flight_) peak_in_flight_ = in_flight_.size();
  const Packet& next = in_flight_.back().packet;
  if (queue_delay_ != nullptr) {
    queue_delay_->add((sim_.now() - next.enqueued_at).sec());
  }
  // The serializing packet is the FIFO's back entry, so the completion
  // event captures only the link; it is never moved or cancelled, so it
  // rides the scheduler's packet lane.
  const Time tx = serialization_time(next.size_bytes);
  sim_.scheduler().post_at(sim_.now() + tx, [this] {
    sim_.shard().assert_held();  // event fires inside the owning epoch
    on_tx_complete();
  });
}

[[gnu::hot]] void Link::on_tx_complete() {
  InFlight& done = in_flight_.back();
  ++delivered_packets_;
  delivered_bytes_ += done.packet.size_bytes;
  for (const auto& observer : tx_observers_) observer(done.packet, sim_.now());
  if (mailbox_ != nullptr) {
    // Cross-shard path: the packet leaves this shard now and becomes a
    // value-type record until the destination shard's barrier drain
    // admits it. It is the FIFO's only entry (set_mailbox refuses a link
    // with packets propagating). The mailbox's FIFO counter preserves
    // this link's tx order; the delivery timestamp is fixed here so
    // queueing and serialization dynamics stay identical to the in-shard
    // path.
    assert(in_flight_.size() == 1);
    mailbox_->push(sim_.now() + prop_delay_, std::move(done.packet));
    in_flight_.pop();
  } else if (sink_) {
    // Serialization completions are ordered and prop_delay_ is constant,
    // so deliver_at is non-decreasing along the FIFO and one delivery
    // event per link suffices. Each packet still reserves its FIFO
    // position now: same-timestamp ties (e.g. an arrival racing the
    // tx-complete that frees a buffer slot) resolve exactly as with the
    // per-packet propagation events this replaces.
    done.seq = sim_.scheduler().allocate_seq();
    done.deliver_at = sim_.now() + prop_delay_;
    if (in_flight_.size() == 1) arm_delivery(done);
  } else {
    in_flight_.pop();  // nothing receives: the only entry is dropped
  }
  busy_ = false;
  // Dequeue even from an empty queue (see QueueDiscipline::dequeue),
  // straight into the FIFO's free back slot. A full FIFO grows only for a
  // packet that needs the room: an empty queue is then asked with a
  // scratch packet it leaves untouched.
  if (in_flight_.full() && queue_->empty()) {
    Packet none;
    queue_->dequeue(sim_.now(), none);
  } else if (queue_->dequeue(sim_.now(), in_flight_.stage().packet)) {
    start_tx();
  }
}

[[gnu::hot]] void Link::arm_delivery(const InFlight& entry) {
  // Always a fresh post: when called from inside deliver_front the old
  // event has just fired, and this reuses its packet-lane entry (the same
  // pooled re-arm idiom as the periodic app timers) -- a fired event
  // cannot be rescheduled. The entry's reserved seq fixes the FIFO
  // position.
  sim_.scheduler().post_at_seq(entry.deliver_at, entry.seq, [this] {
    sim_.shard().assert_held();  // event fires inside the owning epoch
    deliver_front();
  });
}

[[gnu::hot]] void Link::deliver_front() {
  // Exactly one packet per firing: the next entry re-arms at its own
  // reserved seq even when it shares this deliver_at (possible only for
  // zero serialization times), so every delivery keeps its exact FIFO
  // position among same-timestamp events. Observers and the sink see the
  // packet in its entry, which leaves the FIFO only once the sink has
  // returned (a sink that reenters send() stages another entry).
  InFlight& front = in_flight_.front();
  for (const auto& observer : rx_observers_) observer(front.packet, sim_.now());
  if (sink_) sink_(std::move(front.packet));
  in_flight_.pop();
  if (in_flight_.size() > (busy_ ? 1u : 0u)) arm_delivery(in_flight_.front());
}

}  // namespace qoesim::net
