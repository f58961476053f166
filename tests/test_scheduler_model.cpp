// Randomized model test for the arena scheduler: thousands of interleaved
// schedule/cancel/reschedule/post/step operations are mirrored against a
// naive single-list reference implementation, asserting identical firing
// order, timestamps, pending counts and Stats counters. Exercises FIFO
// tie-breaks (timestamps are quantized so collisions are common) --
// including ties between the timer lane (schedule_at) and the packet lane
// (post_at, post_at_seq with reserved seqs used out of order) --
// cancel-at-head, reschedule-to-past clamping, slot/generation reuse
// (fired and cancelled slots recycle constantly), and packet-lane
// callbacks that post 0, 1 or 2 further events (and sometimes schedule a
// timer) from inside their own firing, while their heap root is vacant.
#include "sim/event.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

namespace qoesim {
namespace {

// Naive reference: one unsorted vector of pending events from both lanes;
// firing scans for the (when, seq) minimum. Mirrors the documented
// Scheduler semantics exactly, in the most obviously-correct way possible.
class ReferenceScheduler {
 public:
  /// Timer-lane or post_at event: takes the next sequence number.
  void schedule(std::int64_t when_ns, int id, bool has_handle = true) {
    insert({when_ns, next_seq_++, id, has_handle});
  }

  /// allocate_seq(): reserve a sequence number for a later post_at_seq.
  std::uint64_t allocate_seq() { return next_seq_++; }
  void post_at_seq(std::int64_t when_ns, std::uint64_t seq, int id) {
    insert({when_ns, seq, id, false});
  }

  bool cancel(int id) {
    const auto it = find(id);
    if (it == pending_.end()) return false;
    pending_.erase(it);
    ++stats_.cancelled;
    return true;
  }

  bool reschedule(int id, std::int64_t when_ns) {
    const auto it = find(id);
    if (it == pending_.end()) return false;
    it->when_ns = std::max(when_ns, now_ns_);  // past deadlines clamp to now
    it->seq = next_seq_++;  // FIFO-wise, behaves as if freshly scheduled
    ++stats_.rescheduled;
    return true;
  }

  /// Fire the earliest event; returns its id, or -1 when empty.
  int step() {
    if (pending_.empty()) return -1;
    auto min = pending_.begin();
    for (auto it = pending_.begin() + 1; it != pending_.end(); ++it) {
      if (it->when_ns < min->when_ns ||
          (it->when_ns == min->when_ns && it->seq < min->seq)) {
        min = it;
      }
    }
    const int id = min->id;
    now_ns_ = min->when_ns;
    pending_.erase(min);
    ++stats_.fired;
    return id;
  }

  /// The counters Scheduler::Stats keeps; the peak is the largest pending
  /// count after any insert.
  const Scheduler::Stats& stats() const { return stats_; }

  bool is_pending(int id) const {
    return const_cast<ReferenceScheduler*>(this)->find(id) != pending_.end();
  }
  std::int64_t now_ns() const { return now_ns_; }
  std::size_t size() const { return pending_.size(); }
  /// Number of pending events that can be reached through a handle.
  std::size_t timer_count() const {
    return static_cast<std::size_t>(
        std::count_if(pending_.begin(), pending_.end(),
                      [](const Event& e) { return e.has_handle; }));
  }
  /// Id of the earliest pending timer-lane event (-1 if none).
  int head_timer_id() const {
    const Event* best = nullptr;
    for (const Event& e : pending_) {
      if (!e.has_handle) continue;
      if (best == nullptr || e.when_ns < best->when_ns ||
          (e.when_ns == best->when_ns && e.seq < best->seq)) {
        best = &e;
      }
    }
    return best == nullptr ? -1 : best->id;
  }
  /// A uniformly chosen pending timer-lane event. Precondition:
  /// timer_count() > 0.
  int random_timer_id(std::mt19937_64& rng) const {
    std::size_t pick = rng() % timer_count();
    for (const Event& e : pending_) {
      if (e.has_handle && pick-- == 0) return e.id;
    }
    return -1;
  }

 private:
  struct Event {
    std::int64_t when_ns;
    std::uint64_t seq;
    int id;
    bool has_handle;  // timer lane (schedule_at) vs packet lane (post_*)
  };
  void insert(const Event& e) {
    pending_.push_back(e);
    ++stats_.scheduled;
    stats_.peak_queue_depth =
        std::max<std::uint64_t>(stats_.peak_queue_depth, pending_.size());
  }
  std::vector<Event>::iterator find(int id) {
    return std::find_if(pending_.begin(), pending_.end(),
                        [id](const Event& e) { return e.id == id; });
  }
  std::int64_t now_ns_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<Event> pending_;
  Scheduler::Stats stats_;
};

// Both schedulers and the state one randomized interleaving drives them
// with. Every callback fires the reference in lockstep (on_fire), so the
// reference also follows events fired by step(), by run() and from
// inside other callbacks.
struct Interleaving {
  std::uint64_t seed;
  std::mt19937_64 rng;
  Scheduler sched;
  ReferenceScheduler ref;
  std::unordered_map<int, EventHandle> handles;  // timer-lane events only
  std::vector<std::uint64_t> reserved;  // allocate_seq()s not yet posted
  int next_id = 0;
  std::size_t fired = 0;

  explicit Interleaving(std::uint64_t s) : seed(s), rng(s) {}

  // Timestamps are quantized to a few hundred ns so distinct events collide
  // on the same timestamp all the time, stressing the FIFO tie-break.
  Time random_time() {
    return Time::nanoseconds(ref.now_ns() +
                             static_cast<std::int64_t>(rng() % 8) * 100);
  }

  // Fires the reference's next event and checks that it is `id`, at the
  // same time, with the same pending count: the firing event is no longer
  // counted. False on a mismatch.
  bool on_fire(int id) {
    const int expect = ref.step();
    ++fired;
    EXPECT_EQ(id, expect) << "seed " << seed;
    EXPECT_EQ(sched.now().ns(), ref.now_ns()) << "seed " << seed;
    EXPECT_EQ(sched.pending_events(), ref.size()) << "seed " << seed;
    return id == expect && sched.pending_events() == ref.size();
  }

  void schedule_timer() {
    const int id = next_id++;
    const Time when = random_time();
    handles[id] = sched.schedule_at(when, [this, id] { on_fire(id); });
    ref.schedule(when.ns(), id);
  }

  void post_packet() {
    const int id = next_id++;
    const Time when = random_time();
    sched.post_at(when, [this, id] { fire_packet(id); });
    ref.schedule(when.ns(), id, /*has_handle=*/false);
  }

  void post_packet_at_seq(std::uint64_t seq) {
    const int id = next_id++;
    const Time when = random_time();
    sched.post_at_seq(when, seq, [this, id] { fire_packet(id); });
    ref.post_at_seq(when.ns(), seq, id);
  }

  std::uint64_t allocate_seq() {
    const std::uint64_t seq = sched.allocate_seq();
    EXPECT_EQ(seq, ref.allocate_seq()) << "seed " << seed;
    return seq;
  }

  // A packet-lane callback: sometimes schedules a timer first (a timer
  // insert while the root is vacant), then posts 0, 1 or 2 packet events
  // through post_at, post_at_seq with a fresh reservation, or post_at_seq
  // with an older one. The pending count must match after each insert.
  void fire_packet(int id) {
    if (!on_fire(id)) return;
    if (rng() % 8 == 0) {
      schedule_timer();
      EXPECT_EQ(sched.pending_events(), ref.size()) << "seed " << seed;
    }
    const int posts = std::max(0, static_cast<int>(rng() % 4) - 1);
    for (int i = 0; i < posts; ++i) {
      switch (rng() % 3) {
        case 0:
          post_packet();
          break;
        case 1:
          post_packet_at_seq(allocate_seq());
          break;
        default: {
          if (reserved.empty()) {
            post_packet();
            break;
          }
          const std::size_t pick = rng() % reserved.size();
          const std::uint64_t seq = reserved[pick];
          reserved.erase(reserved.begin() +
                         static_cast<std::ptrdiff_t>(pick));
          post_packet_at_seq(seq);
          break;
        }
      }
      EXPECT_EQ(sched.pending_events(), ref.size()) << "seed " << seed;
    }
  }
};

// One randomized interleaving: ~ops operations against both schedulers,
// with every firing, timestamp and pending count compared, then the
// lifetime counters.
void run_interleaving(std::uint64_t seed, int ops) {
  Interleaving t(seed);
  std::mt19937_64& rng = t.rng;
  Scheduler& sched = t.sched;
  ReferenceScheduler& ref = t.ref;

  for (int op = 0; op < ops; ++op) {
    switch (rng() % 11) {
      case 0:
      case 1:
      case 2:  // schedule a new event
        t.schedule_timer();
        break;
      case 3: {  // cancel a random live timer (sometimes the head timer)
        if (ref.timer_count() == 0) break;
        const int id =
            rng() % 4 == 0 ? ref.head_timer_id() : ref.random_timer_id(rng);
        t.handles[id].cancel();
        ASSERT_TRUE(ref.cancel(id));
        ASSERT_FALSE(t.handles[id].pending());
        break;
      }
      case 4: {  // reschedule a random live timer (sometimes into the past)
        if (ref.timer_count() == 0) break;
        const int id =
            rng() % 4 == 0 ? ref.head_timer_id() : ref.random_timer_id(rng);
        std::int64_t when_ns = t.random_time().ns();
        if (rng() % 4 == 0) when_ns = ref.now_ns() - 500;  // clamps to now
        ASSERT_TRUE(t.handles[id].reschedule(Time::nanoseconds(when_ns)));
        ASSERT_TRUE(ref.reschedule(id, when_ns));
        break;
      }
      case 5: {  // operations on dead handles are inert no-ops
        if (t.next_id == 0) break;
        const int id =
            static_cast<int>(rng() % static_cast<std::uint64_t>(t.next_id));
        const auto it = t.handles.find(id);
        if (it == t.handles.end() || ref.is_pending(id)) break;
        EXPECT_FALSE(it->second.pending());
        EXPECT_FALSE(it->second.reschedule(Time::seconds(1e6)));
        it->second.cancel();  // must not disturb anything
        break;
      }
      case 6:  // fire-and-forget event on the packet lane
        t.post_packet();
        break;
      case 7:  // reserve a FIFO position for a later post_at_seq
        t.reserved.push_back(t.allocate_seq());
        break;
      case 8: {  // post at a reserved seq (reservations used out of order)
        if (t.reserved.empty()) break;
        const std::size_t pick = rng() % t.reserved.size();
        const std::uint64_t seq = t.reserved[pick];
        t.reserved.erase(t.reserved.begin() +
                         static_cast<std::ptrdiff_t>(pick));
        t.post_packet_at_seq(seq);
        break;
      }
      default: {  // fire one event
        const std::size_t before = t.fired;
        const bool any = ref.size() > 0;
        ASSERT_EQ(sched.step(), any) << "seed " << seed << " op " << op;
        ASSERT_EQ(t.fired, before + (any ? 1 : 0));
        break;
      }
    }
    ASSERT_EQ(sched.pending_events(), ref.size()) << "seed " << seed;
    if (::testing::Test::HasFailure()) return;
  }

  // Drain both completely; the callbacks compare every firing.
  sched.run();
  EXPECT_EQ(ref.size(), 0u) << "seed " << seed;
  EXPECT_EQ(sched.pending_events(), 0u);
  EXPECT_EQ(sched.now().ns(), ref.now_ns()) << "seed " << seed;
  const Scheduler::Stats& got = sched.stats();
  const Scheduler::Stats& want = ref.stats();
  EXPECT_EQ(got.scheduled, want.scheduled) << "seed " << seed;
  EXPECT_EQ(got.fired, want.fired) << "seed " << seed;
  EXPECT_EQ(got.cancelled, want.cancelled) << "seed " << seed;
  EXPECT_EQ(got.rescheduled, want.rescheduled) << "seed " << seed;
  EXPECT_EQ(got.peak_queue_depth, want.peak_queue_depth) << "seed " << seed;
}

TEST(SchedulerModel, MatchesReferenceAcross1200RandomInterleavings) {
  for (std::uint64_t seed = 1; seed <= 1200; ++seed) {
    run_interleaving(seed, 120);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(SchedulerModel, LongInterleavingRecyclesSlots) {
  // A single long run so slot generations wrap through many reuse cycles.
  run_interleaving(/*seed=*/424242, /*ops=*/20000);
}

}  // namespace
}  // namespace qoesim
