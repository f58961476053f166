// qoesim -- discrete-event scheduler.
//
// The Scheduler keeps its pending events in two indexed 4-ary min-heaps
// ("lanes") that share one (when, seq) key space:
//
//   timer lane   events scheduled through the handle-returning API
//                (schedule_at/schedule_in, Simulation::at/after): protocol
//                timers (TCP RTO/TLP/delayed-ACK, playout deadlines, ...)
//                that are cancelled or rescheduled far more often than
//                they fire.
//   packet lane  fire-and-forget events from post_at/post_at_seq: link
//                tx-completes and wire/mailbox deliveries, which fire at
//                packet rate and are never moved or cancelled.
//
// The caller picks the lane by whether it keeps a handle. A backbone cell
// holds ~1,700 mostly idle timers but only a few dozen packet events, so
// splitting them keeps the per-packet push/pop in a heap a few levels deep
// instead of one sized by the timer population. The fire loop fires
// whichever lane head has the smaller (when, seq); sequence numbers are
// unique across both lanes, so the firing order is exactly the order a
// single heap would produce.
//
// Each lane has its own arena. A timer-lane event owns a Slot: a
// SmallCallback (captures up to SmallCallback::kInlineCapacity bytes are
// stored inline; see sim/callback.hpp), a generation for its handles and
// a back-pointer to its heap position so cancel/reschedule can find it. A
// packet-lane event needs none of that: its closure is a trivially
// copyable capture of at most 16 bytes (`[this, slot]`), stored inline
// beside a thunk pointer in a 24-byte PacketEvent, and heap sifts on that
// lane write only the heap array. Both arenas recycle entries through
// free lists, so the steady-state schedule/fire/cancel cycle performs no
// heap allocation. Events that share a timestamp fire in scheduling order
// (FIFO, via a monotonic sequence number), which keeps simulations
// deterministic. Timer-lane events can be cancelled or rescheduled through
// EventHandle; cancellation removes the entry from its heap immediately
// instead of leaving a tombstone to purge later.
//
// A packet-lane event fires in place. Its heap root stays vacant while
// its callback runs, and the callback's first post (a link's next
// tx-complete or delivery, which most packet callbacks make) is written
// into the root and sifted down once: one sift instead of a pop's
// sift-down of the tail followed by a push's sift-up. If the callback
// posts nothing, the tail refills the root when the callback returns or
// throws. pending_events() never counts the vacant root, and the run
// drivers refill it on entry, so a driver called from inside a callback
// sees a whole heap.
//
// EventHandle is a cheap {slot, generation} reference into the timer
// arena: copies share liveness (cancelling through one copy is visible to
// all), and a handle whose event has fired or been cancelled is inert
// (pending() is false, cancel()/reschedule() are no-ops). Handles must not
// be used after their Scheduler has been destroyed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/annotations.hpp"
#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace qoesim {

class Scheduler;

/// Handle to a scheduled event; allows cancellation and rescheduling.
/// Cheap to copy (24 bytes, no ownership); safe to destroy before or after
/// the event fires.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if the event is still pending (not fired, not cancelled).
  bool pending() const;

  /// Cancel the event if still pending (removes it from the queue and
  /// destroys its callback immediately). Idempotent.
  void cancel();

  /// Move a still-pending event to fire at `when` instead, keeping its
  /// callback. Times in the past clamp to now(). The moved event behaves
  /// as if freshly scheduled at `when` for FIFO tie-breaking. Returns
  /// false (and does nothing) if the event already fired or was
  /// cancelled -- the caller must schedule a new event in that case.
  bool reschedule(Time when);

 private:
  friend class Scheduler;
  EventHandle(Scheduler* sched, std::uint32_t slot, std::uint64_t generation)
      : sched_(sched), slot_(slot), generation_(generation) {}

  Scheduler* sched_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t generation_ = 0;
};

/// Deterministic discrete-event scheduler. Marked shard-plane: one shard
/// owns a Scheduler for the duration of an epoch (run/run_until/step);
/// the internal arena/heap operations require the shard capability and
/// the public API asserts it (see core/annotations.hpp).
class QOESIM_SHARD_PLANE Scheduler {
 public:
  using Callback = SmallCallback;

  /// Lifetime counters, kept per scheduler and folded into the StatsFold
  /// installed via set_stats_fold() (if any) on destruction, so benches can
  /// report events/sec across the many short-lived Simulations of a sweep.
  struct Stats {
    std::uint64_t scheduled = 0;    ///< events scheduled (either lane)
    std::uint64_t fired = 0;        ///< callbacks invoked
    std::uint64_t cancelled = 0;    ///< pending events removed via cancel()
    std::uint64_t rescheduled = 0;  ///< EventHandle::reschedule fast paths
    std::uint64_t peak_queue_depth = 0;  ///< max pending, both lanes summed
  };

  /// Thread-safe accumulator for the Stats of many schedulers. Sweep cells
  /// destroy one Scheduler each on worker threads, so fold() takes a mutex
  /// (one lock per scheduler lifetime). There is deliberately no
  /// process-wide instance: whoever wants aggregated counters owns a fold
  /// (benches via core::StatsRegistry) and passes it down, which keeps the
  /// engine free of shared mutable state (a PDES-sharding prerequisite).
  /// Sums of per-cell counters are independent of worker count and
  /// completion order, so snapshots are deterministic for a fixed seed;
  /// peak_queue_depth aggregates as a max, the rest as sums.
  class StatsFold {
   public:
    void fold(const Stats& s);
    Stats snapshot() const;

   private:
    mutable Mutex mutex_;
    Stats total_ QOESIM_GUARDED_BY(mutex_);
  };

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler();

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedule `cb` on the timer lane to run at absolute time `when`
  /// (must be >= now()). The handle can cancel or move the event.
  EventHandle schedule_at(Time when, Callback&& cb);

  /// Schedule `cb` on the timer lane to run `delay` from now (negative
  /// delays clamp to now).
  EventHandle schedule_in(Time delay, Callback&& cb) {
    if (delay.is_negative()) delay = Time::zero();
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Largest closure post_at/post_at_seq store: a `[this, slot]` capture.
  static constexpr std::size_t kPacketClosureBytes = 16;

  /// Fire-and-forget: schedule `f` on the packet lane at `when` (must be
  /// >= now()). No handle, so the event can be neither cancelled nor
  /// moved; in exchange it never shares a heap with the timer population
  /// and takes no timer slot: `f` itself is stored inline in the packet
  /// arena. Ties with timer-lane events break on sequence number exactly
  /// as if both lanes were one queue.
  template <typename F>
  void post_at(Time when, F f) {
    shard_.assert_held();
    if (when < now_) {
      throw std::invalid_argument("Scheduler::post_at: time in the past");
    }
    post_packet(when, next_seq(), make_packet_event(f));
  }

  /// Reserve a FIFO position without scheduling anything. Events that
  /// share a timestamp fire in sequence order, so a component can fix an
  /// event's tie-breaking position now and materialize the event later
  /// with post_at_seq. A link's in-flight FIFO uses this to collapse
  /// per-packet propagation events into one delivery event per link
  /// while keeping event order exactly as if each packet had scheduled
  /// its own event.
  std::uint64_t allocate_seq() {
    shard_.assert_held();
    return next_seq();
  }

  /// Post `f` on the packet lane at `when` with the FIFO position `seq`,
  /// which must have been obtained from allocate_seq() and used by at
  /// most one event ever. Consumes no new sequence number. Reusing a seq
  /// would make same-timestamp ties break on arena entry ids (i.e.
  /// nondeterministic free-list history) instead of scheduling order;
  /// unallocated seqs throw, and debug builds assert no pending event
  /// already holds the seq. `f` is stored as in post_at.
  template <typename F>
  void post_at_seq(Time when, std::uint64_t seq, F f) {
    shard_.assert_held();
    if (when < now_) {
      throw std::invalid_argument("Scheduler::post_at_seq: time in the past");
    }
    if (seq >= next_seq_) {
      throw std::invalid_argument(
          "Scheduler::post_at_seq: seq not from allocate_seq");
    }
#ifndef NDEBUG
    assert_seq_not_pending(seq);
#endif
    post_packet(when, seq, make_packet_event(f));
  }

  /// Run events until the queue is empty or `until` is reached. The clock
  /// is advanced to `until` even if the queue drains earlier.
  void run_until(Time until);

  /// Run events strictly before `until` (half-open epoch [now, until)),
  /// then advance the clock to `until`. This is the conservative-PDES
  /// epoch driver: events at exactly `until` stay pending, so a barrier
  /// drain at `until` can still admit cross-shard deliveries that must
  /// tie-break against them by sequence number alone.
  void run_before(Time until);

  /// Run until the event queue is empty.
  void run();

  /// Fire at most one event; returns false when the queue is empty.
  bool step();

  /// Number of live pending events over both lanes. Cancelled events are
  /// removed from the queue eagerly, so they are never counted (unlike the
  /// old tombstone implementation, which reported them until they were
  /// popped).
  std::size_t pending_events() const {
    return lanes_[kTimerLane].size() + lanes_[kPacketLane].size() -
           (packet_root_vacant_ ? 1 : 0);
  }

  /// Total number of events fired so far (for perf accounting).
  std::uint64_t fired_events() const { return stats_.fired; }

  /// Lifetime counters for this scheduler instance.
  const Stats& stats() const { return stats_; }

  /// Install the accumulator this scheduler folds its lifetime Stats into
  /// on destruction (nullptr = don't fold anywhere, the default). The fold
  /// must outlive the scheduler.
  void set_stats_fold(StatsFold* fold) { stats_fold_ = fold; }

  /// The shard-ownership checker for this scheduler's engine objects
  /// (debug-only thread-id assertions; see core/annotations.hpp). Every
  /// component hanging off this scheduler's Simulation asserts through it
  /// on its hot entry points.
  ShardAffinity& shard() { return shard_; }

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kNilIndex = 0xffffffffu;

  // Lane ids index lanes_.
  static constexpr unsigned kTimerLane = 0;
  static constexpr unsigned kPacketLane = 1;

  // The (when, seq) sort key lives in the heap entry, not the arena, so
  // sift comparisons stay within the contiguous heap array instead of
  // chasing pointers into an arena. seq and the event's arena id share one
  // word (40-bit monotonic sequence, 24-bit id: a Slot on the timer lane, a
  // PacketEvent on the packet lane), keeping entries at 16 bytes so a
  // 4-ary node's four children are 64 contiguous bytes. Those of node i
  // start at byte 64i+16 of the array, so they share one cache line only
  // if the array starts 48 bytes past a 64-byte boundary. std::vector
  // aligns it to 16 bytes, no more; glibc malloc places arrays of 128 or
  // more entries 16 bytes past a boundary, where every child group spans
  // two cache lines. Both widths have
  // explicit overflow guards in the .cpp (2^40 events per scheduler, 2^24
  // simultaneously pending events per lane).
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  struct HeapEntry {
    Time when;
    std::uint64_t seq_id;  // (seq << kSlotBits) | arena id
    std::uint32_t id() const {
      return static_cast<std::uint32_t>(seq_id & kSlotMask);
    }
  };

  // A timer-lane event. The generation is 64-bit so it can never wrap
  // within the 2^40-event sequence budget: a stale handle stays inert for
  // the scheduler's whole lifetime (no ABA on recycled slots). It widens
  // Slot into existing padding, so the arena layout is unchanged.
  struct Slot {
    std::uint64_t generation = 0;
    std::uint32_t heap_index = kNilIndex;  // position in the timer heap
    std::uint32_t next_free = kNilIndex;
    Callback cb;
  };

  // A packet-lane event: the closure's bytes and the thunk that calls
  // them. A free entry keeps its free-list link in the closure bytes.
  struct PacketEvent {
    void (*invoke)(void* closure);
    alignas(std::uint64_t) unsigned char closure[kPacketClosureBytes];
  };

  template <typename F>
  static PacketEvent make_packet_event(const F& f) {
    static_assert(std::is_trivially_copyable_v<F>,
                  "post_at/post_at_seq store the closure by copying its "
                  "bytes: capture only pointers and ids (e.g. [this, slot]), "
                  "or use schedule_at for anything else");
    static_assert(sizeof(F) <= kPacketClosureBytes &&
                      alignof(F) <= alignof(std::uint64_t),
                  "post_at/post_at_seq closures are at most 16 bytes (e.g. "
                  "[this, slot]); use schedule_at for larger captures");
    PacketEvent ev{};
    ev.invoke = [](void* closure) {
      // The bytes were copied from an F, which implicitly creates one.
      (*std::launder(reinterpret_cast<F*>(closure)))();
    };
    std::memcpy(ev.closure, &f, sizeof(F));
    return ev;
  }

  bool handle_pending(std::uint32_t slot, std::uint64_t generation) const {
    return slot < slots_.size() && slots_[slot].generation == generation;
  }
  void handle_cancel(std::uint32_t slot, std::uint64_t generation);
  bool handle_reschedule(std::uint32_t slot, std::uint64_t generation,
                         Time when);

  std::uint32_t acquire_slot() QOESIM_REQUIRES_SHARD;
  void release_slot(std::uint32_t slot) QOESIM_REQUIRES_SHARD;
  std::uint64_t next_seq() QOESIM_REQUIRES_SHARD;
  void post_packet(Time when, std::uint64_t seq, const PacketEvent& ev)
      QOESIM_REQUIRES_SHARD;
  // Refill a vacant packet-lane root from the tail (see fire_packet).
  void settle_packet_root() QOESIM_REQUIRES_SHARD;
  void assert_seq_not_pending(std::uint64_t seq) const;

  // Each lane is an indexed 4-ary min-heap keyed by (when, seq).
  // Comparing the combined seq_id word is equivalent to comparing seq:
  // among equal timestamps the (strictly monotonic) sequence occupies the
  // high bits and no two entries -- in either lane -- share one. The lane
  // is a template parameter so that only timer-lane sifts maintain the
  // slots' heap_index back-pointers.
  static bool heap_less(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq_id < b.seq_id;
  }
  template <unsigned Lane>
  void heap_place(std::size_t pos, const HeapEntry& entry)
      QOESIM_REQUIRES_SHARD {
    lanes_[Lane][pos] = entry;
    if constexpr (Lane == kTimerLane) {
      slots_[entry.id()].heap_index = static_cast<std::uint32_t>(pos);
    }
  }
  void reserve_heap(unsigned lane) QOESIM_REQUIRES_SHARD;
  void note_depth() {
    const std::size_t depth = pending_events();
    if (depth > stats_.peak_queue_depth) stats_.peak_queue_depth = depth;
  }
  template <unsigned Lane>
  void heap_push(HeapEntry entry) QOESIM_REQUIRES_SHARD;
  template <unsigned Lane>
  void heap_remove(std::size_t pos) QOESIM_REQUIRES_SHARD;
  template <unsigned Lane>
  void heap_resift(std::size_t pos) QOESIM_REQUIRES_SHARD;
  template <unsigned Lane>
  void heap_sift_up(std::size_t pos) QOESIM_REQUIRES_SHARD;
  // Sift `entry` down from the hole at `pos`.
  template <unsigned Lane>
  void heap_sift_down(std::size_t pos, HeapEntry entry) QOESIM_REQUIRES_SHARD;

  // The lane whose head fires next (one extra compare per event), or
  // kNoLane when both are empty. Never called while the packet root is
  // vacant: the drivers settle it on entry.
  static constexpr unsigned kNoLane = 2;
  unsigned next_lane() const {
    const std::vector<HeapEntry>& timers = lanes_[kTimerLane];
    const std::vector<HeapEntry>& packets = lanes_[kPacketLane];
    if (packets.empty()) return timers.empty() ? kNoLane : kTimerLane;
    if (timers.empty() || heap_less(packets[0], timers[0])) return kPacketLane;
    return kTimerLane;
  }
  // Fire the head event of `lane`.
  void fire_head(unsigned lane) QOESIM_REQUIRES_SHARD;
  void fire_timer() QOESIM_REQUIRES_SHARD;
  void fire_packet() QOESIM_REQUIRES_SHARD;

  Time now_;
  std::uint64_t next_seq_ = 0;
  ShardAffinity shard_;
  Stats stats_;
  StatsFold* stats_fold_ = nullptr;
  // The lanes' heaps, indexed by kTimerLane and kPacketLane.
  std::vector<HeapEntry> lanes_[2];
  std::vector<Slot> slots_;  // the timer lane's arena
  std::uint32_t free_head_ = kNilIndex;
  std::vector<PacketEvent> packet_events_;  // the packet lane's arena
  std::uint32_t packet_free_head_ = kNilIndex;
  // True while a packet-lane callback runs and has not posted yet: the
  // packet heap's root then holds the firing event's stale entry.
  bool packet_root_vacant_ = false;
};

inline bool EventHandle::pending() const {
  return sched_ != nullptr && sched_->handle_pending(slot_, generation_);
}

inline void EventHandle::cancel() {
  if (sched_ != nullptr) sched_->handle_cancel(slot_, generation_);
}

inline bool EventHandle::reschedule(Time when) {
  return sched_ != nullptr &&
         sched_->handle_reschedule(slot_, generation_, when);
}

}  // namespace qoesim
