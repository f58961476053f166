// Raw scheduler throughput bench: schedule/fire, cancel, and reschedule
// rates of the event-arena core, independent of any network simulation.
// This is the micro-counterpart of the figure benches' events/sec column;
// regressions here show up in every other bench.
//
// Patterns measured (all single-threaded, as in one sweep cell):
//   steady fire   -- bounded queue (depth 512), each firing schedules its
//                    successor: the inner loop of every simulation.
//   bulk fire     -- schedule a full batch, then drain it (startup shape).
//   cancel        -- schedule a batch, cancel every event (timer teardown).
//   reschedule    -- one pending timer moved repeatedly (TCP RTO re-arm
//                    fast path).
//   rearm         -- cancel + fresh schedule per move (the pre-reschedule
//                    idiom, kept for comparison).
//   timers+packets -- the backbone shape: 1,536 pending protocol timers,
//                    one pushed out every other fire (RTO re-arm on ACK),
//                    behind 48 self-re-posting fire-and-forget events
//                    (link tx-completes/deliveries). Run twice: packet
//                    events on the packet lane (post_at, an 8-byte
//                    closure stored inline, no slot), then on the timer
//                    lane (schedule_at, handle dropped), which is the
//                    single-heap, slot-per-event cost the packet lane
//                    removes.
//   packet ring   -- the pdes_ring shape: 160 packet events, no timers,
//                    each re-posting itself from inside its own firing,
//                    half at tx-complete delays (12 or 120 us), half at
//                    delivery delays (0.2-10 ms). This is the depth at
//                    which a packet-lane event fires in place and its
//                    re-post takes the vacated heap root.
//
// Accepts the shared bench flags plus --quick (CI smoke: ~10x fewer ops).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "sim/event.hpp"
#include "stats/table.hpp"

namespace qoesim {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string mops(double ops_per_sec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", ops_per_sec / 1e6);
  return buf;
}

// Self-perpetuating timer: the real call-site shape (small capturing
// callable, stored inline in the event arena).
struct Ticker {
  Scheduler* sched;
  long* fired;
  long limit;
  int depth;
  void operator()() const {
    if (++*fired + depth <= limit) {
      sched->schedule_in(Time::microseconds(depth), *this);
    }
  }
};

double steady_fire(long fires, int depth) {
  Scheduler sched;
  sched.set_stats_fold(&bench::stats_registry().scheduler);
  long fired = 0;
  for (int i = 0; i < depth; ++i) {
    sched.schedule_at(Time::microseconds(i),
                      Ticker{&sched, &fired, fires, depth});
  }
  const auto t0 = Clock::now();
  sched.run();
  return static_cast<double>(fired) / seconds_since(t0);
}

double bulk_fire(long total, int batch) {
  long fired = 0;
  const auto t0 = Clock::now();
  for (long done = 0; done < total; done += batch) {
    Scheduler sched;
    sched.set_stats_fold(&bench::stats_registry().scheduler);
    for (int i = 0; i < batch; ++i) {
      sched.schedule_at(Time::microseconds(i), [&fired] { ++fired; });
    }
    sched.run();
  }
  return static_cast<double>(fired) / seconds_since(t0);
}

double cancel_all(long total, int batch) {
  std::vector<EventHandle> handles;
  handles.reserve(static_cast<std::size_t>(batch));
  const auto t0 = Clock::now();
  for (long done = 0; done < total; done += batch) {
    Scheduler sched;
    sched.set_stats_fold(&bench::stats_registry().scheduler);
    handles.clear();
    for (int i = 0; i < batch; ++i) {
      handles.push_back(sched.schedule_at(Time::microseconds(i), [] {}));
    }
    for (auto& h : handles) h.cancel();
    sched.run();
  }
  return static_cast<double>(total) / seconds_since(t0);
}

double reschedule_one(long moves) {
  Scheduler sched;
  sched.set_stats_fold(&bench::stats_registry().scheduler);
  // A far-out timer plus queue background, like an RTO behind data events.
  for (int i = 0; i < 64; ++i) sched.schedule_at(Time::seconds(2), [] {});
  EventHandle timer = sched.schedule_at(Time::seconds(1), [] {});
  const auto t0 = Clock::now();
  for (long i = 0; i < moves; ++i) {
    timer.reschedule(Time::seconds(1) + Time::nanoseconds(i));
  }
  const double secs = seconds_since(t0);
  sched.run();
  return static_cast<double>(moves) / secs;
}

double rearm_one(long moves) {
  Scheduler sched;
  sched.set_stats_fold(&bench::stats_registry().scheduler);
  for (int i = 0; i < 64; ++i) sched.schedule_at(Time::seconds(2), [] {});
  EventHandle timer;
  const auto t0 = Clock::now();
  for (long i = 0; i < moves; ++i) {
    timer.cancel();
    timer = sched.schedule_at(Time::seconds(1) + Time::nanoseconds(i), [] {});
  }
  const double secs = seconds_since(t0);
  sched.run();
  return static_cast<double>(moves) / secs;
}

// Shared state of the timers+packets pattern; PacketTick captures only a
// pointer to it, like a link's {this, slot} completion event, so it meets
// post_at's trivially-copyable, 16-byte closure bound.
struct LaneMix {
  static constexpr int kTimers = 1536;
  static constexpr int kPackets = 48;
  Scheduler sched;
  std::vector<EventHandle> timers;
  long fired = 0;
  long limit = 0;
  std::size_t cursor = 0;
  bool post = true;
};

struct PacketTick {
  LaneMix* mix;
  void operator()() const {
    Scheduler& sched = mix->sched;
    if (++mix->fired % 2 == 0) {
      EventHandle& timer = mix->timers[mix->cursor++ % mix->timers.size()];
      timer.reschedule(sched.now() + Time::milliseconds(200));
    }
    if (mix->fired + LaneMix::kPackets > mix->limit) return;
    const Time next = sched.now() + Time::microseconds(LaneMix::kPackets);
    if (mix->post) {
      sched.post_at(next, PacketTick{mix});
    } else {
      sched.schedule_at(next, PacketTick{mix});
    }
  }
};

double timers_and_packets(long fires, bool post) {
  LaneMix mix;
  mix.sched.set_stats_fold(&bench::stats_registry().scheduler);
  mix.limit = fires;
  mix.post = post;
  mix.timers.reserve(LaneMix::kTimers);
  for (int i = 0; i < LaneMix::kTimers; ++i) {
    mix.timers.push_back(mix.sched.schedule_at(
        Time::seconds(1) + Time::microseconds(i), [] {}));
  }
  for (int i = 0; i < LaneMix::kPackets; ++i) {
    mix.sched.post_at(Time::microseconds(i), PacketTick{&mix});
  }
  // Every timer is pushed out 200 ms at least every ~3 ms of simulated
  // time, so none fires before the packet events run out; the rest are
  // dropped with the scheduler, untimed.
  const auto t0 = Clock::now();
  mix.sched.run_until(Time::microseconds(fires));
  const double secs = seconds_since(t0);
  return static_cast<double>(mix.fired) / secs;
}

// The packet ring pattern: RingTick captures its ring and its own delay,
// 16 bytes, so every re-post is a post_at from inside the firing event.
struct PacketRing {
  static constexpr int kPackets = 160;
  Scheduler sched;
  long fired = 0;
  long limit = 0;
};

struct RingTick {
  PacketRing* ring;
  Time delay;
  void operator()() const {
    if (++ring->fired + PacketRing::kPackets > ring->limit) return;
    ring->sched.post_at(ring->sched.now() + delay, *this);
  }
};

double packet_ring(long fires) {
  PacketRing ring;
  ring.sched.set_stats_fold(&bench::stats_registry().scheduler);
  ring.limit = fires;
  constexpr int kHalf = PacketRing::kPackets / 2;
  for (int i = 0; i < PacketRing::kPackets; ++i) {
    const int k = i / 2;
    // Even events: tx-completes at 12 or 120 us; odd: deliveries spread
    // over 0.2-10 ms.
    const Time delay = i % 2 == 0
                           ? Time::microseconds(k % 2 == 0 ? 12 : 120)
                           : Time::microseconds(200 + k * 9800 / (kHalf - 1));
    ring.sched.post_at(Time::microseconds(i), RingTick{&ring, delay});
  }
  const auto t0 = Clock::now();
  ring.sched.run();
  return static_cast<double>(ring.fired) / seconds_since(t0);
}

void run(const bench::BenchOptions& opt) {
  // --quick is the CI smoke preset: ~10x fewer ops (opt.scale still
  // multiplies the op counts, not the probe budget -- this bench has none).
  const long base =
      static_cast<long>((opt.quick ? 400000.0 : 4000000.0) * opt.scale);

  stats::TextTable table;
  table.set_header({"pattern", "ops", "M ops/s"});
  table.add_row({"steady schedule+fire (depth 512)", std::to_string(base),
                 mops(steady_fire(base, 512))});
  table.add_row({"bulk schedule+fire (batch 8192)", std::to_string(base),
                 mops(bulk_fire(base, 8192))});
  table.add_row({"schedule+cancel (batch 8192)", std::to_string(base),
                 mops(cancel_all(base, 8192))});
  table.add_row({"reschedule pending timer", std::to_string(base),
                 mops(reschedule_one(base))});
  table.add_row({"cancel+schedule rearm", std::to_string(base),
                 mops(rearm_one(base))});
  table.add_row({"timers+packets, packets posted (1536 timers)",
                 std::to_string(base), mops(timers_and_packets(base, true))});
  table.add_row({"timers+packets, packets as timers (one heap)",
                 std::to_string(base), mops(timers_and_packets(base, false))});
  table.add_row({"packet ring, 160 self-re-posting (no timers)",
                 std::to_string(base), mops(packet_ring(base))});
  bench::emit(table, opt, "Scheduler throughput");
}

}  // namespace
}  // namespace qoesim

int main(int argc, char** argv) {
  const auto opt = qoesim::bench::BenchOptions::parse(argc, argv);
  qoesim::run(opt);
  return 0;
}
