// Randomized model test for the arena scheduler: thousands of interleaved
// schedule/cancel/reschedule/post/step operations are mirrored against a
// naive single-list reference implementation, asserting identical firing
// order and timestamps. Exercises FIFO tie-breaks (timestamps are quantized
// so collisions are common) -- including ties between the timer lane
// (schedule_at) and the packet lane (post_at, post_at_seq with reserved
// seqs used out of order) -- cancel-at-head, reschedule-to-past clamping,
// and slot/generation reuse (fired and cancelled slots recycle
// constantly).
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
    pending_.push_back({when_ns, next_seq_++, id, has_handle});
  }

  /// allocate_seq(): reserve a sequence number for a later post_at_seq.
  std::uint64_t allocate_seq() { return next_seq_++; }
  void post_at_seq(std::int64_t when_ns, std::uint64_t seq, int id) {
    pending_.push_back({when_ns, seq, id, false});
  }

  bool cancel(int id) {
    const auto it = find(id);
    if (it == pending_.end()) return false;
    pending_.erase(it);
    return true;
  }

  bool reschedule(int id, std::int64_t when_ns) {
    const auto it = find(id);
    if (it == pending_.end()) return false;
    it->when_ns = std::max(when_ns, now_ns_);  // past deadlines clamp to now
    it->seq = next_seq_++;  // FIFO-wise, behaves as if freshly scheduled
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
    return id;
  }

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
  std::vector<Event>::iterator find(int id) {
    return std::find_if(pending_.begin(), pending_.end(),
                        [id](const Event& e) { return e.id == id; });
  }
  std::int64_t now_ns_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<Event> pending_;
};

// One randomized interleaving: ~ops operations against both schedulers,
// with every firing and timestamp compared.
void run_interleaving(std::uint64_t seed, int ops) {
  std::mt19937_64 rng(seed);
  Scheduler sched;
  ReferenceScheduler ref;
  std::unordered_map<int, EventHandle> handles;  // timer-lane events only
  std::vector<std::uint64_t> reserved;  // allocate_seq()s not yet posted
  std::vector<int> fired;      // firing order observed from Scheduler
  std::vector<int> ref_fired;  // firing order predicted by the reference
  int next_id = 0;

  // Timestamps are quantized to a few hundred ns so distinct events collide
  // on the same timestamp all the time, stressing the FIFO tie-break.
  const auto random_delay_ns = [&] {
    return static_cast<std::int64_t>(rng() % 8) * 100;
  };

  for (int op = 0; op < ops; ++op) {
    switch (rng() % 11) {
      case 0:
      case 1:
      case 2: {  // schedule a new event
        const int id = next_id++;
        const Time when =
            Time::nanoseconds(ref.now_ns() + random_delay_ns());
        handles[id] = sched.schedule_at(when, [&fired, id] {
          fired.push_back(id);
        });
        ref.schedule(when.ns(), id);
        break;
      }
      case 3: {  // cancel a random live timer (sometimes the head timer)
        if (ref.timer_count() == 0) break;
        const int id =
            rng() % 4 == 0 ? ref.head_timer_id() : ref.random_timer_id(rng);
        handles[id].cancel();
        ASSERT_TRUE(ref.cancel(id));
        ASSERT_FALSE(handles[id].pending());
        break;
      }
      case 4: {  // reschedule a random live timer (sometimes into the past)
        if (ref.timer_count() == 0) break;
        const int id =
            rng() % 4 == 0 ? ref.head_timer_id() : ref.random_timer_id(rng);
        std::int64_t when_ns = ref.now_ns() + random_delay_ns();
        if (rng() % 4 == 0) when_ns = ref.now_ns() - 500;  // clamps to now
        ASSERT_TRUE(handles[id].reschedule(Time::nanoseconds(when_ns)));
        ASSERT_TRUE(ref.reschedule(id, when_ns));
        break;
      }
      case 5: {  // operations on dead handles are inert no-ops
        if (next_id == 0) break;
        const int id =
            static_cast<int>(rng() % static_cast<std::uint64_t>(next_id));
        const auto it = handles.find(id);
        if (it == handles.end() || ref.is_pending(id)) break;
        EXPECT_FALSE(it->second.pending());
        EXPECT_FALSE(it->second.reschedule(Time::seconds(1e6)));
        it->second.cancel();  // must not disturb anything
        break;
      }
      case 6: {  // fire-and-forget event on the packet lane
        const int id = next_id++;
        const Time when =
            Time::nanoseconds(ref.now_ns() + random_delay_ns());
        sched.post_at(when, [&fired, id] { fired.push_back(id); });
        ref.schedule(when.ns(), id, /*has_handle=*/false);
        break;
      }
      case 7: {  // reserve a FIFO position for a later post_at_seq
        const std::uint64_t seq = sched.allocate_seq();
        ASSERT_EQ(seq, ref.allocate_seq());
        reserved.push_back(seq);
        break;
      }
      case 8: {  // post at a reserved seq (reservations used out of order)
        if (reserved.empty()) break;
        const std::size_t pick = rng() % reserved.size();
        const std::uint64_t seq = reserved[pick];
        reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(pick));
        const int id = next_id++;
        const Time when =
            Time::nanoseconds(ref.now_ns() + random_delay_ns());
        sched.post_at_seq(when, seq, [&fired, id] { fired.push_back(id); });
        ref.post_at_seq(when.ns(), seq, id);
        break;
      }
      default: {  // fire one event
        const int expect = ref.step();
        if (expect == -1) {
          EXPECT_FALSE(sched.step());
        } else {
          ref_fired.push_back(expect);
          ASSERT_TRUE(sched.step());
          ASSERT_EQ(fired.size(), ref_fired.size());
          ASSERT_EQ(fired.back(), expect) << "seed " << seed << " op " << op;
          ASSERT_EQ(sched.now().ns(), ref.now_ns());
        }
        break;
      }
    }
    ASSERT_EQ(sched.pending_events(), ref.size());
  }

  // Drain both completely and compare the tails.
  for (int id = ref.step(); id != -1; id = ref.step()) ref_fired.push_back(id);
  sched.run();
  EXPECT_EQ(fired, ref_fired) << "seed " << seed;
  EXPECT_EQ(sched.now().ns(), ref.now_ns()) << "seed " << seed;
  EXPECT_EQ(sched.pending_events(), 0u);
}

TEST(SchedulerModel, MatchesReferenceAcross1200RandomInterleavings) {
  for (std::uint64_t seed = 1; seed <= 1200; ++seed) {
    run_interleaving(seed, 120);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SchedulerModel, LongInterleavingRecyclesSlots) {
  // A single long run so slot generations wrap through many reuse cycles.
  run_interleaving(/*seed=*/424242, /*ops=*/20000);
}

}  // namespace
}  // namespace qoesim
