// Unit tests for the discrete-event scheduler.
#include "sim/event.hpp"

#include <gtest/gtest.h>

#include "sim/simulation.hpp"

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

namespace qoesim {
namespace {

TEST(Scheduler, FiresInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(Time::seconds(3), [&] { order.push_back(3); });
  sched.schedule_at(Time::seconds(1), [&] { order.push_back(1); });
  sched.schedule_at(Time::seconds(2), [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), Time::seconds(3));
}

TEST(Scheduler, FifoAmongEqualTimestamps) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule_at(Time::seconds(1), [&order, i] { order.push_back(i); });
  }
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, ScheduleInIsRelative) {
  Scheduler sched;
  Time fired;
  sched.schedule_at(Time::seconds(5), [&] {
    sched.schedule_in(Time::seconds(2), [&] { fired = sched.now(); });
  });
  sched.run();
  EXPECT_EQ(fired, Time::seconds(7));
}

TEST(Scheduler, NegativeDelayClampsToNow) {
  Scheduler sched;
  bool fired = false;
  sched.schedule_in(Time::zero() - Time::seconds(1), [&] { fired = true; });
  sched.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sched.now(), Time::zero());
}

TEST(Scheduler, PastSchedulingThrows) {
  Scheduler sched;
  sched.schedule_at(Time::seconds(1), [] {});
  sched.run();
  EXPECT_THROW(sched.schedule_at(Time::milliseconds(500), [] {}),
               std::invalid_argument);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool fired = false;
  auto handle = sched.schedule_at(Time::seconds(1), [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  sched.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelIsIdempotentAndSafeAfterFire) {
  Scheduler sched;
  int count = 0;
  auto handle = sched.schedule_at(Time::seconds(1), [&] { ++count; });
  sched.run();
  EXPECT_EQ(count, 1);
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // no-op
  EXPECT_EQ(count, 1);
}

TEST(Scheduler, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(Time::seconds(1), [&] { order.push_back(1); });
  sched.schedule_at(Time::seconds(5), [&] { order.push_back(5); });
  sched.run_until(Time::seconds(3));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sched.now(), Time::seconds(3));
  sched.run_until(Time::seconds(10));
  EXPECT_EQ(order, (std::vector<int>{1, 5}));
  EXPECT_EQ(sched.now(), Time::seconds(10));
}

TEST(Scheduler, RunUntilWithCancelledHeadDoesNotOvershoot) {
  Scheduler sched;
  bool late_fired = false;
  auto head = sched.schedule_at(Time::seconds(1), [] {});
  sched.schedule_at(Time::seconds(9), [&] { late_fired = true; });
  head.cancel();
  sched.run_until(Time::seconds(5));
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(sched.now(), Time::seconds(5));
}

TEST(Scheduler, EventsScheduledDuringRunAreExecuted) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sched.schedule_in(Time::milliseconds(1), recurse);
  };
  sched.schedule_in(Time::milliseconds(1), recurse);
  sched.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sched.fired_events(), 100u);
}

TEST(Scheduler, StepReturnsFalseWhenEmpty) {
  Scheduler sched;
  EXPECT_FALSE(sched.step());
  sched.schedule_at(Time::seconds(1), [] {});
  EXPECT_TRUE(sched.step());
  EXPECT_FALSE(sched.step());
}

TEST(Scheduler, PendingEventsExcludesCancelled) {
  // Cancellation removes the entry from the queue eagerly, so a cancelled
  // event is never reported (the old tombstone implementation counted it
  // until the queue happened to pop it).
  Scheduler sched;
  auto a = sched.schedule_at(Time::seconds(1), [] {});
  auto b = sched.schedule_at(Time::seconds(2), [] {});
  auto c = sched.schedule_at(Time::seconds(3), [] {});
  EXPECT_EQ(sched.pending_events(), 3u);
  b.cancel();
  EXPECT_EQ(sched.pending_events(), 2u);
  a.cancel();  // cancel at head
  EXPECT_EQ(sched.pending_events(), 1u);
  a.cancel();  // idempotent: no double-count
  EXPECT_EQ(sched.pending_events(), 1u);
  sched.run();
  EXPECT_EQ(sched.pending_events(), 0u);
  EXPECT_EQ(sched.fired_events(), 1u);
  EXPECT_TRUE(c.pending() == false);
}

TEST(Scheduler, FiringEventSchedulingAtSameTimestampPreservesFifo) {
  // A fires at t=1 and schedules B also at t=1. C was scheduled (after A,
  // before B existed) at t=1, so the FIFO order among equals is A, C, B.
  Scheduler sched;
  std::vector<char> order;
  sched.schedule_at(Time::seconds(1), [&] {
    order.push_back('A');
    sched.schedule_at(Time::seconds(1), [&] { order.push_back('B'); });
  });
  sched.schedule_at(Time::seconds(1), [&] { order.push_back('C'); });
  sched.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'C', 'B'}));
  EXPECT_EQ(sched.now(), Time::seconds(1));
}

TEST(Scheduler, RescheduleMovesPendingEvent) {
  Scheduler sched;
  std::vector<int> order;
  auto moved = sched.schedule_at(Time::seconds(1), [&] { order.push_back(1); });
  sched.schedule_at(Time::seconds(2), [&] { order.push_back(2); });
  EXPECT_TRUE(moved.reschedule(Time::seconds(3)));  // move later
  EXPECT_TRUE(moved.pending());
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(sched.now(), Time::seconds(3));
}

TEST(Scheduler, RescheduleEarlierAndToPastClamp) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(Time::seconds(1), [&] { order.push_back(1); });
  auto h = sched.schedule_at(Time::seconds(5), [&] { order.push_back(5); });
  EXPECT_TRUE(h.reschedule(Time::milliseconds(500)));  // move to the head
  sched.step();
  EXPECT_EQ(order, (std::vector<int>{5}));
  EXPECT_EQ(sched.now(), Time::milliseconds(500));
  // Rescheduling into the past clamps to now() instead of throwing.
  auto past = sched.schedule_at(Time::seconds(9), [&] { order.push_back(9); });
  EXPECT_TRUE(past.reschedule(Time::zero()));
  sched.step();
  EXPECT_EQ(order, (std::vector<int>{5, 9}));
  EXPECT_EQ(sched.now(), Time::milliseconds(500));  // clamped, no time travel
}

TEST(Scheduler, RescheduleBehavesAsFreshlyScheduledForFifo) {
  // Rescheduling onto an occupied timestamp queues BEHIND the events
  // already there, exactly as if the event had been cancelled and
  // re-scheduled.
  Scheduler sched;
  std::vector<char> order;
  auto a = sched.schedule_at(Time::seconds(1), [&] { order.push_back('a'); });
  sched.schedule_at(Time::seconds(2), [&] { order.push_back('b'); });
  EXPECT_TRUE(a.reschedule(Time::seconds(2)));
  sched.run();
  EXPECT_EQ(order, (std::vector<char>{'b', 'a'}));
}

TEST(Scheduler, RescheduleAfterFireOrCancelReturnsFalse) {
  Scheduler sched;
  int count = 0;
  auto fired = sched.schedule_at(Time::seconds(1), [&] { ++count; });
  sched.run();
  EXPECT_FALSE(fired.reschedule(Time::seconds(2)));  // already fired
  EXPECT_EQ(sched.pending_events(), 0u);

  auto cancelled = sched.schedule_at(Time::seconds(2), [&] { ++count; });
  cancelled.cancel();
  EXPECT_FALSE(cancelled.reschedule(Time::seconds(3)));
  EXPECT_EQ(sched.pending_events(), 0u);
  sched.run();
  EXPECT_EQ(count, 1);
  EXPECT_FALSE(EventHandle{}.reschedule(Time::seconds(1)));  // default handle
}

TEST(Scheduler, HandleCopiesShareLiveness) {
  Scheduler sched;
  bool fired = false;
  auto a = sched.schedule_at(Time::seconds(1), [&] { fired = true; });
  EventHandle b = a;
  b.cancel();
  EXPECT_FALSE(a.pending());
  EXPECT_FALSE(b.pending());
  sched.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, StaleHandleDoesNotAffectRecycledSlot) {
  // After an event fires, its arena slot is recycled for new events; the
  // old handle's generation no longer matches, so cancelling it must not
  // touch the slot's new occupant.
  Scheduler sched;
  int fired = 0;
  auto old_handle = sched.schedule_at(Time::seconds(1), [&] { ++fired; });
  sched.run();
  EXPECT_EQ(fired, 1);
  auto fresh = sched.schedule_at(Time::seconds(2), [&] { ++fired; });
  old_handle.cancel();  // stale: must be a no-op
  EXPECT_TRUE(fresh.pending());
  EXPECT_FALSE(old_handle.reschedule(Time::seconds(9)));
  sched.run();
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, LargeCapturesFallBackToHeapStorage) {
  // Captures beyond SmallCallback::kInlineCapacity take the heap path;
  // behavior (and destruction of the capture) must be identical.
  Scheduler sched;
  struct Big {
    char payload[96];
    std::shared_ptr<int> witness;
  };
  auto witness = std::make_shared<int>(0);
  Big big{{}, witness};
  big.payload[0] = 42;
  sched.schedule_at(Time::seconds(1), [big] { ++*big.witness; });
  auto cancelled =
      sched.schedule_at(Time::seconds(2), [big] { ++*big.witness; });
  EXPECT_EQ(witness.use_count(), 4);  // witness + big + two scheduled copies
  cancelled.cancel();
  EXPECT_EQ(witness.use_count(), 3);  // cancel destroys the capture eagerly
  sched.run();
  EXPECT_EQ(*witness, 1);
  EXPECT_EQ(witness.use_count(), 2);  // only witness + big remain
}

TEST(SmallCallback, TrivialAndNonTrivialInlineCapturesRelocate) {
  // Trivially copyable captures relocate by memcpy; captures with a
  // non-trivial move/destructor (shared_ptr) still go through their own
  // move constructor and destructor, so ownership is neither leaked nor
  // doubled across chains of moves.
  int hits = 0;
  int* target = &hits;
  SmallCallback trivial([target, step = 2] { *target += step; });
  SmallCallback moved_once(std::move(trivial));
  SmallCallback moved_twice;
  moved_twice = std::move(moved_once);
  EXPECT_FALSE(static_cast<bool>(trivial));
  EXPECT_FALSE(static_cast<bool>(moved_once));
  moved_twice();
  EXPECT_EQ(hits, 2);

  auto witness = std::make_shared<int>(0);
  {
    SmallCallback owning([witness] { ++*witness; });
    EXPECT_EQ(witness.use_count(), 2);
    SmallCallback relocated(std::move(owning));
    EXPECT_EQ(witness.use_count(), 2);
    relocated();
  }
  EXPECT_EQ(*witness, 1);
  EXPECT_EQ(witness.use_count(), 1);
}

TEST(Scheduler, StatsCountersTrackOperations) {
  Scheduler sched;
  auto a = sched.schedule_at(Time::seconds(1), [] {});
  auto b = sched.schedule_at(Time::seconds(2), [] {});
  sched.schedule_at(Time::seconds(3), [] {});
  a.reschedule(Time::seconds(4));
  b.cancel();
  sched.run();
  const Scheduler::Stats& s = sched.stats();
  EXPECT_EQ(s.scheduled, 3u);
  EXPECT_EQ(s.rescheduled, 1u);
  EXPECT_EQ(s.cancelled, 1u);
  EXPECT_EQ(s.fired, 2u);
  EXPECT_EQ(s.peak_queue_depth, 3u);
  EXPECT_EQ(sched.fired_events(), s.fired);
}

TEST(Scheduler, ReservedSeqFixesFifoPositionAtAllocationTime) {
  // allocate_seq() reserves a FIFO slot that an event posted much later
  // (post_at_seq) still occupies: it fires before a same-timestamp event
  // whose seq was taken after the reservation.
  Scheduler sched;
  std::vector<int> order;
  const std::uint64_t reserved = sched.allocate_seq();
  sched.schedule_at(Time::seconds(1), [&] { order.push_back(2); });
  sched.post_at_seq(Time::seconds(1), reserved, [&] { order.push_back(1); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, PostAtSeqRejectsUnallocatedSeq) {
  Scheduler sched;
  EXPECT_THROW(sched.post_at_seq(Time::seconds(1), 0, [] {}),
               std::invalid_argument);
  (void)sched.allocate_seq();
  EXPECT_NO_THROW(sched.post_at_seq(Time::seconds(1), 0, [] {}));
  sched.run();
}

TEST(Scheduler, ReservedSeqSurvivesInterleavedScheduling) {
  // A reserved position interleaves correctly among several same-time
  // events whose seqs were taken before and after the reservation.
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(Time::seconds(1), [&] { order.push_back(0); });
  const std::uint64_t reserved = sched.allocate_seq();
  sched.schedule_at(Time::seconds(1), [&] { order.push_back(2); });
  sched.post_at_seq(Time::seconds(1), reserved, [&] { order.push_back(1); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Scheduler, SameTimestampAcrossLanesFiresInSeqOrder) {
  // The timer lane (handle API) and the packet lane (post_*) are separate
  // heaps, but ties break on the one global sequence, whichever lane was
  // scheduled first.
  for (const bool timer_first : {true, false}) {
    Scheduler sched;
    std::vector<char> order;
    const auto timer = [&] {
      sched.schedule_at(Time::seconds(1), [&] { order.push_back('t'); });
    };
    const auto packet = [&] {
      sched.post_at(Time::seconds(1), [&] { order.push_back('p'); });
    };
    if (timer_first) {
      timer();
      packet();
    } else {
      packet();
      timer();
    }
    EXPECT_EQ(sched.pending_events(), 2u);
    sched.run();
    EXPECT_EQ(order, timer_first ? (std::vector<char>{'t', 'p'})
                                 : (std::vector<char>{'p', 't'}));
  }
}

TEST(Scheduler, RescheduledTimerInterleavesWithPacketLane) {
  // Rescheduling a timer takes a fresh seq, so it lands behind a packet
  // event posted earlier at the same timestamp; run_until/run_before/step
  // all pick the smaller head across lanes, and the stats sum both lanes.
  Scheduler sched;
  std::vector<int> order;
  EventHandle h =
      sched.schedule_at(Time::seconds(1), [&] { order.push_back(3); });
  sched.post_at(Time::seconds(2), [&] { order.push_back(2); });
  sched.post_at(Time::seconds(1), [&] { order.push_back(1); });
  ASSERT_TRUE(h.reschedule(Time::seconds(2)));
  sched.run_before(Time::seconds(2));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sched.pending_events(), 2u);
  sched.run_until(Time::seconds(2));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_FALSE(sched.step());
  const Scheduler::Stats& s = sched.stats();
  EXPECT_EQ(s.scheduled, 3u);
  EXPECT_EQ(s.fired, 3u);
  EXPECT_EQ(s.peak_queue_depth, 3u);
}

TEST(Scheduler, PacketLaneClosureOfSixteenBytesKeepsItsCaptures) {
  // A packet-lane closure is stored as raw bytes beside its thunk, and a
  // free entry reuses those bytes for its free-list link. A full 16-byte
  // capture must come back intact, also from recycled entries.
  Scheduler sched;
  std::vector<std::uint64_t> seen;
  std::vector<std::uint64_t> expected;
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (std::uint64_t i = 0; i < 5; ++i) {
      const std::uint64_t value = 0x0123456789abcdefull ^ (round << 32 | i);
      const auto closure = [out = &seen, value] { out->push_back(value); };
      static_assert(sizeof(closure) == Scheduler::kPacketClosureBytes);
      sched.post_at(sched.now() + Time::microseconds(i), closure);
      expected.push_back(value);
    }
    sched.run();
  }
  EXPECT_EQ(seen, expected);
}

// State of the fire-in-place tests below; each packet-lane closure
// captures a pointer to it and an id, within post_at's 16-byte bound.
struct InPlaceLane {
  Scheduler sched;
  std::vector<int> order;
  bool post_first = false;
};

TEST(Scheduler, ThrowingPacketLeavesTheLaneWhole) {
  // A packet-lane event fires in place: its heap root stays vacant until
  // the callback's first post. A callback that throws, before or after
  // that post, must leave a whole heap behind: the right pending count,
  // and the remaining events firing in (when, seq) order.
  for (const bool post_first : {false, true}) {
    InPlaceLane lane;
    InPlaceLane* l = &lane;
    l->post_first = post_first;
    // Posted latest first, so the heap has more than one level.
    for (int i = 9; i >= 0; --i) {
      l->sched.post_at(Time::milliseconds(10 + i),
                       [l, i] { l->order.push_back(10 + i); });
    }
    // Ties with packet event 12, which holds the smaller seq.
    l->sched.schedule_at(Time::milliseconds(12),
                         [l] { l->order.push_back(99); });
    l->sched.post_at(Time::milliseconds(1), [l] {
      l->order.push_back(1);
      if (l->post_first) {
        l->sched.post_at(Time::milliseconds(15),
                         [l] { l->order.push_back(50); });
      }
      throw std::runtime_error("packet callback failed");
    });
    EXPECT_THROW(l->sched.run_until(Time::seconds(1)), std::runtime_error);
    EXPECT_EQ(l->order, (std::vector<int>{1}));
    EXPECT_EQ(l->sched.now(), Time::milliseconds(1));
    EXPECT_EQ(l->sched.pending_events(), post_first ? 12u : 11u);

    l->sched.run();
    std::vector<int> expected{1, 10, 11, 12, 99, 13, 14, 15};
    if (post_first) expected.push_back(50);
    for (const int id : {16, 17, 18, 19}) expected.push_back(id);
    EXPECT_EQ(l->order, expected);
    EXPECT_EQ(l->sched.pending_events(), 0u);
    EXPECT_EQ(l->sched.stats().fired, post_first ? 13u : 12u);
    EXPECT_EQ(l->sched.stats().peak_queue_depth, 12u);
  }
}

TEST(Scheduler, StepInsidePacketCallbackFiresTheNextEvent) {
  // The drivers refill a vacant packet root on entry, so a step() from
  // inside a packet-lane callback that has not posted yet fires the next
  // event, not the running one.
  InPlaceLane lane;
  InPlaceLane* l = &lane;
  l->sched.post_at(Time::milliseconds(2), [l] { l->order.push_back(2); });
  l->sched.post_at(Time::milliseconds(3), [l] { l->order.push_back(3); });
  l->sched.post_at(Time::milliseconds(1), [l] {
    l->order.push_back(1);
    EXPECT_EQ(l->sched.pending_events(), 2u);
    EXPECT_TRUE(l->sched.step());
    l->order.push_back(-1);
  });
  l->sched.run();
  EXPECT_EQ(l->order, (std::vector<int>{1, 2, -1, 3}));
  EXPECT_EQ(l->sched.pending_events(), 0u);
  EXPECT_EQ(l->sched.stats().fired, 3u);
}

// A fixed script over both lanes: packet events that re-post themselves
// (some at reserved seqs, with a timer racing them at the same
// timestamp) while they reschedule and cancel timers. Its counters and
// firing order are pinned, so a change to the scheduler's internals that
// alters either shows here.
struct LaneScript {
  Scheduler sched;
  std::vector<EventHandle> timers;
  std::uint64_t digest = 1469598103934665603ull;  // FNV-1a offset basis
  int posts_left = 400;
  void note(std::int64_t id) {
    for (const std::int64_t v : {id, sched.now().ns()}) {
      digest = (digest ^ static_cast<std::uint64_t>(v)) * 1099511628211ull;
    }
  }
};

void lane_script_packet(LaneScript* s, int id) {
  s->note(id);
  if (--s->posts_left <= 0) return;
  const Time next = s->sched.now() + Time::microseconds(700 * (id % 5 + 1));
  if (id % 3 == 0) {
    const std::uint64_t seq = s->sched.allocate_seq();
    s->timers.push_back(s->sched.schedule_at(next, [s, id] { s->note(-id); }));
    s->sched.post_at_seq(next, seq, [s, id] { lane_script_packet(s, id + 1); });
  } else {
    s->sched.post_at(next, [s, id] { lane_script_packet(s, id + 1); });
  }
  const auto pick = [s](int k) {
    return static_cast<std::size_t>(k) % s->timers.size();
  };
  if (id % 4 == 0) s->timers[pick(id)].reschedule(next);
  if (id % 7 == 0) s->timers[pick(id * 3)].cancel();
}

TEST(Scheduler, MixedLaneScriptCountersArePinned) {
  LaneScript s;
  for (int i = 0; i < 40; ++i) {
    const Time when = Time::milliseconds((i * 7) % 50 + 1);
    s.timers.push_back(
        s.sched.schedule_at(when, [sp = &s, i] { sp->note(1000 + i); }));
  }
  for (int chain = 0; chain < 6; ++chain) {
    LaneScript* sp = &s;
    s.sched.post_at(Time::zero(),
                    [sp, chain] { lane_script_packet(sp, chain * 100); });
  }
  s.sched.run();
  const Scheduler::Stats& st = s.sched.stats();
  EXPECT_EQ(st.scheduled, 578u);
  EXPECT_EQ(st.fired, 569u);
  EXPECT_EQ(st.cancelled, 9u);
  EXPECT_EQ(st.rescheduled, 15u);
  EXPECT_EQ(st.peak_queue_depth, 47u);
  EXPECT_EQ(s.digest, 0x18aa21a725d11fccull);
  EXPECT_EQ(s.sched.now(), Time::microseconds(138600));
}

TEST(Simulation, DerivedRngsDifferByLabel) {
  Simulation sim(42);
  auto a = sim.rng("a");
  auto b = sim.rng("b");
  auto a2 = sim.rng("a");
  const double va = a.uniform();
  EXPECT_NE(va, b.uniform());
  EXPECT_EQ(va, a2.uniform());  // deterministic per (seed, label)
}

}  // namespace
}  // namespace qoesim
