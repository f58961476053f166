#include "net/link.hpp"

#include "net/mailbox.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace qoesim::net {

Link::Link(Simulation& sim, std::string name, double rate_bps, Time prop_delay,
           std::unique_ptr<QueueDiscipline> queue)
    : sim_(sim),
      name_(std::move(name)),
      rate_bps_(rate_bps),
      prop_delay_(prop_delay),
      queue_(std::move(queue)) {
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

[[gnu::hot]] void Link::send(Packet&& p) {
  sim_.shard().assert_held();
  queue_->enqueue(std::move(p), sim_.now());
  maybe_start_tx();
}

[[gnu::hot]] void Link::maybe_start_tx() {
  if (busy_) return;
  // The queue dequeues straight into a pooled slot, the packet's home
  // until it is delivered. An empty queue is still asked (see
  // QueueDiscipline::dequeue); the staged slot then stays free.
  Packet& next = pool_.stage();
  if (!queue_->dequeue(sim_.now(), next)) return;
  const PacketPool::SlotId slot = pool_.acquire();
  busy_ = true;
  queue_delay_.add((sim_.now() - next.enqueued_at).sec());
  const Time tx = serialization_time(next.size_bytes);
  // The completion event captures only {this, slot} and is never moved or
  // cancelled, so it rides the scheduler's packet lane.
  sim_.scheduler().post_at(sim_.now() + tx, [this, slot] {
    sim_.shard().assert_held();  // event fires inside the owning epoch
    on_tx_complete(slot);
  });
}

[[gnu::hot]] void Link::on_tx_complete(PacketPool::SlotId slot) {
  busy_ = false;
  const Packet& p = pool_.at(slot);
  ++delivered_packets_;
  delivered_bytes_ += p.size_bytes;
  for (const auto& observer : tx_observers_) observer(p, sim_.now());
  if (mailbox_ != nullptr) {
    // Cross-shard path: the packet leaves this shard's pool now and
    // becomes a value-type record until the destination shard's barrier
    // drain admits it. The mailbox's FIFO counter preserves this link's
    // tx order; the delivery timestamp is fixed here so queueing and
    // serialization dynamics stay identical to the WireRing path.
    mailbox_->push(sim_.now() + prop_delay_, std::move(pool_.at(slot)));
    pool_.release(slot);
  } else if (sink_) {
    // Serialization completions are ordered and prop_delay_ is constant,
    // so deliver_at is non-decreasing along the ring and one delivery
    // event per link suffices. Each packet still reserves its FIFO
    // position now: same-timestamp ties (e.g. an arrival racing the
    // tx-complete that frees a buffer slot) resolve exactly as with the
    // per-packet propagation events this replaces.
    const bool was_idle = wire_.empty();
    wire_.push({slot, sim_.scheduler().allocate_seq(),
                sim_.now() + prop_delay_});
    if (was_idle) arm_delivery(wire_.front());
  } else {
    pool_.release(slot);
  }
  maybe_start_tx();
}

[[gnu::hot]] void Link::arm_delivery(const WireRing::Entry& entry) {
  // Always a fresh post: when called from inside drain_wire the old event
  // has just fired, and this reuses its packet-lane entry (the same pooled
  // re-arm idiom as the periodic app timers) -- a fired event cannot be
  // rescheduled. The entry's reserved seq fixes the FIFO position.
  sim_.scheduler().post_at_seq(entry.deliver_at, entry.seq, [this] {
    sim_.shard().assert_held();  // event fires inside the owning epoch
    drain_wire();
  });
}

[[gnu::hot]] void Link::drain_wire() {
  // Exactly one packet per firing: the next entry re-arms at its own
  // reserved seq even when it shares this deliver_at (possible only for
  // zero serialization times), so every delivery keeps its exact FIFO
  // position among same-timestamp events.
  const PacketPool::SlotId slot = wire_.front().slot;
  wire_.pop();
  // Observers and the sink see the packet in its pool slot; the slot is
  // freed only once the sink has returned (a sink that reenters send()
  // takes another slot).
  Packet& p = pool_.at(slot);
  for (const auto& observer : rx_observers_) observer(p, sim_.now());
  if (sink_) sink_(std::move(p));
  pool_.release(slot);
  if (!wire_.empty()) arm_delivery(wire_.front());
}

}  // namespace qoesim::net
