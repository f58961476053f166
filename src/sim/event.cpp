#include "sim/event.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace qoesim {

void Scheduler::StatsFold::fold(const Stats& s) {
  const MutexLock lock(mutex_);
  total_.scheduled += s.scheduled;
  total_.fired += s.fired;
  total_.cancelled += s.cancelled;
  total_.rescheduled += s.rescheduled;
  total_.peak_queue_depth =
      std::max(total_.peak_queue_depth, s.peak_queue_depth);
}

Scheduler::Stats Scheduler::StatsFold::snapshot() const {
  const MutexLock lock(mutex_);
  return total_;
}

Scheduler::~Scheduler() {
  if (stats_fold_ != nullptr) stats_fold_->fold(stats_);
}

std::uint32_t Scheduler::acquire_slot() {
  if (free_head_ != kNilIndex) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNilIndex;
    return slot;
  }
  if (slots_.size() > kSlotMask) {
    throw std::length_error(
        "Scheduler: more than 2^24 simultaneously pending events");
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

std::uint64_t Scheduler::next_seq() {
  if (next_seq_ >> (64 - kSlotBits)) {
    throw std::overflow_error("Scheduler: event sequence space exhausted");
  }
  return next_seq_++;
}

void Scheduler::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.generation;  // invalidates all outstanding handles to this event
  s.heap_index = kNilIndex;
  s.next_free = free_head_;
  free_head_ = slot;
  // Destroy the callback last, through a local and with no reference into
  // the arena held: dropping captures (weak_ptrs, RAII objects, ...) runs
  // arbitrary destructors that may reenter the scheduler and reallocate
  // slots_. The slot bookkeeping above is already consistent, so a
  // reentrant schedule_at may even recycle this very slot safely.
  Callback doomed = std::move(slots_[slot].cb);
  static_cast<void>(doomed);
}

void Scheduler::reserve_heap(unsigned lane) {
  // Grow geometrically before anything is stored, so the push_back in
  // heap_push never reallocates and a failure here orphans nothing.
  std::vector<HeapEntry>& heap = lanes_[lane];
  if (heap.size() == heap.capacity()) {
    heap.reserve(heap.capacity() == 0 ? 64 : heap.capacity() * 2);
  }
}

template <unsigned Lane>
void Scheduler::heap_push(HeapEntry entry) {
  std::vector<HeapEntry>& heap = lanes_[Lane];
  heap.push_back(entry);  // capacity pre-grown by reserve_heap()
  heap_sift_up<Lane>(heap.size() - 1);
  note_depth();
}

template <unsigned Lane>
void Scheduler::heap_remove(std::size_t pos) {
  std::vector<HeapEntry>& heap = lanes_[Lane];
  const HeapEntry last = heap.back();
  heap.pop_back();
  if (pos == heap.size()) return;  // removed the tail
  heap_place<Lane>(pos, last);
  heap_resift<Lane>(pos);
}

template <unsigned Lane>
void Scheduler::heap_resift(std::size_t pos) {
  // The entry at `pos` may be out of order in either direction.
  const std::vector<HeapEntry>& heap = lanes_[Lane];
  if (pos > 0 && heap_less(heap[pos], heap[(pos - 1) / 4])) {
    heap_sift_up<Lane>(pos);
  } else {
    heap_sift_down<Lane>(pos, heap[pos]);
  }
}

template <unsigned Lane>
void Scheduler::heap_sift_up(std::size_t pos) {
  const std::vector<HeapEntry>& heap = lanes_[Lane];
  const HeapEntry entry = heap[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!heap_less(entry, heap[parent])) break;
    heap_place<Lane>(pos, heap[parent]);
    pos = parent;
  }
  heap_place<Lane>(pos, entry);
}

template <unsigned Lane>
void Scheduler::heap_sift_down(std::size_t pos, const HeapEntry entry) {
  const std::vector<HeapEntry>& heap = lanes_[Lane];
  const std::size_t size = heap.size();
  for (;;) {
    const std::size_t first_child = pos * 4 + 1;
    if (first_child >= size) break;
    const std::size_t end_child = std::min(first_child + 4, size);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < end_child; ++c) {
      if (heap_less(heap[c], heap[best])) best = c;
    }
    if (!heap_less(heap[best], entry)) break;
    heap_place<Lane>(pos, heap[best]);
    pos = best;
  }
  heap_place<Lane>(pos, entry);
}

EventHandle Scheduler::schedule_at(Time when, Callback&& cb) {
  shard_.assert_held();
  if (when < now_) {
    throw std::invalid_argument("Scheduler::schedule_at: time in the past");
  }
  // Everything that can throw happens before the slot is acquired, so a
  // failure never orphans a slot holding the moved-in callback: the
  // sequence check first, then any heap growth.
  const std::uint64_t seq = next_seq();
  reserve_heap(kTimerLane);
  const std::uint32_t slot = acquire_slot();
  slots_[slot].cb = std::move(cb);
  heap_push<kTimerLane>(HeapEntry{when, seq << kSlotBits | slot});
  ++stats_.scheduled;
  return EventHandle{this, slot, slots_[slot].generation};
}

[[gnu::hot]] void Scheduler::post_packet(Time when, std::uint64_t seq,
                                         const PacketEvent& ev) {
  // A vacant root (see fire_packet) leaves room in the heap as it is.
  if (!packet_root_vacant_) reserve_heap(kPacketLane);
  std::uint32_t index = packet_free_head_;
  if (index != kNilIndex) {
    std::memcpy(&packet_free_head_, packet_events_[index].closure,
                sizeof packet_free_head_);
    packet_events_[index] = ev;
  } else {
    if (packet_events_.size() > kSlotMask) {
      throw std::length_error(
          "Scheduler: more than 2^24 simultaneously pending packet events");
    }
    index = static_cast<std::uint32_t>(packet_events_.size());
    packet_events_.push_back(ev);
  }
  const HeapEntry entry{when, seq << kSlotBits | index};
  if (packet_root_vacant_) {
    packet_root_vacant_ = false;
    heap_sift_down<kPacketLane>(0, entry);
    note_depth();
  } else {
    heap_push<kPacketLane>(entry);
  }
  ++stats_.scheduled;
}

void Scheduler::settle_packet_root() {
  if (!packet_root_vacant_) return;
  packet_root_vacant_ = false;
  heap_remove<kPacketLane>(0);
}

void Scheduler::assert_seq_not_pending(std::uint64_t seq) const {
  // A duplicated seq would silently tie-break on recycled arena ids; catch
  // the pending-duplicate half of the precondition where it is checkable.
  // The scan is bounded so debug builds of large simulations don't pay
  // O(pending) on every delivery (this path runs once per packet-hop).
  if (pending_events() > 4096) return;
  for (const unsigned lane : {kTimerLane, kPacketLane}) {
    const std::vector<HeapEntry>& heap = lanes_[lane];
    // A vacant packet root holds the firing event's entry, not a pending
    // one.
    const std::size_t first =
        lane == kPacketLane && packet_root_vacant_ ? 1 : 0;
    for (std::size_t i = first; i < heap.size(); ++i) {
      assert(heap[i].seq_id >> kSlotBits != seq &&
             "post_at_seq: seq already pending");
    }
  }
  static_cast<void>(seq);
}

void Scheduler::handle_cancel(std::uint32_t slot, std::uint64_t generation) {
  shard_.assert_held();
  if (!handle_pending(slot, generation)) return;  // fired or already cancelled
  heap_remove<kTimerLane>(slots_[slot].heap_index);
  release_slot(slot);
  ++stats_.cancelled;
}

bool Scheduler::handle_reschedule(std::uint32_t slot, std::uint64_t generation,
                                  Time when) {
  shard_.assert_held();
  if (!handle_pending(slot, generation)) return false;
  // Take the sequence first: if it throws, the entry's key is untouched
  // and the heap invariant still holds.
  const std::uint64_t seq = next_seq();
  const std::size_t pos = slots_[slot].heap_index;
  HeapEntry& entry = lanes_[kTimerLane][pos];
  entry.when = when < now_ ? now_ : when;  // past deadlines clamp to now
  // FIFO-wise, a rescheduled event behaves as if freshly scheduled.
  entry.seq_id = seq << kSlotBits | slot;
  heap_resift<kTimerLane>(pos);
  ++stats_.rescheduled;
  return true;
}

[[gnu::hot]] void Scheduler::fire_timer() {
  const HeapEntry head = lanes_[kTimerLane][0];
  heap_remove<kTimerLane>(0);
  now_ = head.when;
  // Move the callback out before invoking: the callback may schedule new
  // events, which can grow (reallocate) the slot arena. Releasing the slot
  // first also makes the event non-pending during its own execution and
  // lets the firing callback's slot be recycled immediately.
  const std::uint32_t slot = head.id();
  Callback cb = std::move(slots_[slot].cb);
  release_slot(slot);
  ++stats_.fired;
  cb();
}

[[gnu::hot]] void Scheduler::fire_packet() {
  const HeapEntry head = lanes_[kPacketLane][0];
  now_ = head.when;
  // Copy the entry out and free its index before invoking, for the same
  // reasons as fire_timer(): a re-arm from inside the callback (a link's
  // next delivery) reuses this very index.
  const std::uint32_t index = head.id();
  PacketEvent ev = packet_events_[index];
  std::memcpy(packet_events_[index].closure, &packet_free_head_,
              sizeof packet_free_head_);
  packet_free_head_ = index;
  ++stats_.fired;
  // Fire in place: the root stays where it is, vacant, while the callback
  // runs. Its first post_packet writes into the root and sifts down once;
  // if it posts nothing, the guard refills the root from the tail on the
  // way out, also when the callback throws.
  class RootRefill {
   public:
    explicit RootRefill(Scheduler* sched) : sched_(sched) {}
    RootRefill(const RootRefill&) = delete;
    RootRefill& operator=(const RootRefill&) = delete;
    ~RootRefill() {
      sched_->shard_.assert_held();
      sched_->settle_packet_root();
    }

   private:
    Scheduler* sched_;
  };
  packet_root_vacant_ = true;
  const RootRefill refill(this);
  ev.invoke(ev.closure);
}

[[gnu::hot]] void Scheduler::fire_head(unsigned lane) {
  if (lane == kPacketLane) {
    fire_packet();
  } else {
    fire_timer();
  }
}

[[gnu::hot]] bool Scheduler::step() {
  // A bare step() is a one-event epoch: the calling thread owns the shard
  // until it returns (aborts in debug builds if another thread's epoch is
  // live), then any thread may run the next one.
  const ShardGuard epoch(&shard_);
  // A step() from inside a packet-lane callback must not see its vacant
  // root; the other drivers settle it likewise.
  settle_packet_root();
  const unsigned lane = next_lane();
  if (lane == kNoLane) return false;
  fire_head(lane);
  return true;
}

[[gnu::hot]] void Scheduler::run_until(Time until) {
  // Epoch scope: the calling thread owns this shard until the driver
  // returns; ownership is released at exit so the simulation may resume
  // on a different thread later (sweep-cell handoff).
  const ShardGuard epoch(&shard_);
  settle_packet_root();
  for (unsigned lane = next_lane();
       lane != kNoLane && lanes_[lane][0].when <= until; lane = next_lane()) {
    fire_head(lane);
  }
  if (now_ < until) now_ = until;
}

[[gnu::hot]] void Scheduler::run_before(Time until) {
  // Same epoch scope as run_until, but the bound is exclusive: a shard's
  // epoch [T, T+Q) must leave events at exactly T+Q unfired, because the
  // barrier drain at T+Q may admit cross-shard deliveries for that very
  // timestamp. Both sides then tie-break on sequence number alone (local
  // events allocated during the epoch fire before barrier-admitted ones),
  // which is the order a single-shard run produces too.
  const ShardGuard epoch(&shard_);
  settle_packet_root();
  for (unsigned lane = next_lane();
       lane != kNoLane && lanes_[lane][0].when < until; lane = next_lane()) {
    fire_head(lane);
  }
  if (now_ < until) now_ = until;
}

[[gnu::hot]] void Scheduler::run() {
  const ShardGuard epoch(&shard_);
  settle_packet_root();
  for (unsigned lane = next_lane(); lane != kNoLane; lane = next_lane()) {
    fire_head(lane);
  }
}

}  // namespace qoesim
