// Discipline-conformance suite: invariants every QueueDiscipline must hold
// under randomized load, plus targeted regression tests for the
// PriorityQueue capacity split, RED idle decay / per-instance seeding, and
// the CoDel RFC 8289 count hysteresis.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "net/codel.hpp"
#include "net/packet.hpp"
#include "net/priority_queue.hpp"
#include "net/queue.hpp"
#include "net/red.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"

namespace qoesim::net {
namespace {

// Packet uids are diagnostics-only and simulation-owned; tests that
// build raw packets stamp them from a file-local counter.
std::uint64_t test_uid = 1;

Packet make_packet(std::uint32_t size = kMtuBytes,
                   Protocol proto = Protocol::kTcp) {
  Packet p;
  p.uid = test_uid++;
  p.proto = proto;
  p.size_bytes = size;
  return p;
}

// Dequeue one packet and discard it; false if none came out.
bool discard_one(QueueDiscipline& q, Time now) {
  Packet out;
  return q.dequeue(now, out);
}

// ---------------------------------------------------------------------------
// Stats invariants across all four disciplines and a spread of capacities.

class DisciplineConformance
    : public ::testing::TestWithParam<std::tuple<QueueKind, std::size_t>> {};

TEST_P(DisciplineConformance, StatsAndByteAccountingInvariants) {
  const auto [kind, capacity] = GetParam();
  auto q = make_queue(kind, capacity, /*seed=*/4242);
  q->set_drain_rate(16e6);
  RandomStream rng(1234);
  Time now = Time::zero();
  std::uint64_t delivered_bytes = 0;
  std::uint64_t dequeued = 0;
  for (int i = 0; i < 8000; ++i) {
    if (rng.bernoulli(0.55)) {
      const auto size =
          static_cast<std::uint32_t>(rng.uniform_int(40, kMtuBytes));
      const auto proto =
          rng.bernoulli(0.3) ? Protocol::kUdp : Protocol::kTcp;
      q->enqueue(make_packet(size, proto), now);
    } else if (Packet out; q->dequeue(now, out)) {
      delivered_bytes += out.size_bytes;
      ++dequeued;
    }
    // Occupancy never exceeds the configured buffer -- the very variable
    // the paper sweeps.
    ASSERT_LE(q->packet_count(), q->capacity_packets());
    const QueueStats& s = q->stats();
    // Every offered packet is delivered, dropped, or still queued.
    ASSERT_EQ(s.offered, s.dequeued + s.dropped + q->packet_count());
    ASSERT_EQ(s.dequeued, dequeued);
    ASSERT_LE(s.enqueued, s.offered);
    // Bytes balance the same way.
    ASSERT_EQ(s.bytes_offered,
              s.bytes_dropped + delivered_bytes + q->byte_count());
    now += Time::microseconds(rng.uniform(1.0, 800.0));
  }
  // The load is heavy enough that every discipline admitted and dropped.
  EXPECT_GT(q->stats().enqueued, 0u);
  EXPECT_GT(q->stats().dropped, 0u);
}

TEST_P(DisciplineConformance, EnqueueOnlyDisciplinesSplitOfferedExactly) {
  const auto [kind, capacity] = GetParam();
  if (kind == QueueKind::kCoDel) {
    GTEST_SKIP() << "CoDel drops at dequeue; offered == enqueued + dropped "
                    "does not apply";
  }
  auto q = make_queue(kind, capacity, /*seed=*/4242);
  RandomStream rng(99);
  Time now = Time::zero();
  for (int i = 0; i < 4000; ++i) {
    if (rng.bernoulli(0.6)) {
      q->enqueue(make_packet(kMtuBytes,
                             rng.bernoulli(0.5) ? Protocol::kUdp
                                                : Protocol::kTcp),
                 now);
    } else {
      discard_one(*q, now);
    }
    ASSERT_EQ(q->stats().offered, q->stats().enqueued + q->stats().dropped);
    now += Time::microseconds(50);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDisciplines, DisciplineConformance,
    ::testing::Combine(::testing::Values(QueueKind::kDropTail, QueueKind::kRed,
                                         QueueKind::kCoDel,
                                         QueueKind::kPriority),
                       ::testing::Values<std::size_t>(1, 8, 64, 256)));

// ---------------------------------------------------------------------------
// The dequeue contract: `bool dequeue(now, out)`.

class DequeueContract : public ::testing::TestWithParam<QueueKind> {};

TEST_P(DequeueContract, EmptyDequeueLeavesOutUntouchedAndUncounted) {
  auto q = make_queue(GetParam(), 8, /*seed=*/4242);
  Packet out = make_packet(777, Protocol::kUdp);
  out.ecn = Ecn::kCe;
  out.enqueued_at = Time::milliseconds(3);
  unsigned char before[sizeof(Packet)];
  std::memcpy(before, &out, sizeof(Packet));
  EXPECT_FALSE(q->dequeue(Time::seconds(1), out));
  EXPECT_EQ(std::memcmp(before, &out, sizeof(Packet)), 0);
  // Once more after a packet has passed through and the queue drained.
  ASSERT_TRUE(q->enqueue(make_packet(), Time::seconds(1)));
  Packet first;
  ASSERT_TRUE(q->dequeue(Time::seconds(1), first));
  EXPECT_FALSE(q->dequeue(Time::seconds(2), out));
  EXPECT_EQ(std::memcmp(before, &out, sizeof(Packet)), 0);
  EXPECT_EQ(q->stats().dequeued, 1u);
}

struct ScriptExpectation {
  std::uint64_t out_digest;  // FNV-1a over (uid, ecn) of every dequeued packet
  QueueStats stats;
};

// A seeded offer/dequeue script under ~1.5x overload, with ECN marking on
// and half the packets ECT, so the AQMs both drop and mark.
ScriptExpectation run_dequeue_script(QueueDiscipline& q) {
  q.set_drain_rate(12e6);
  q.set_ecn_marking(true);
  RandomStream rng(2024);
  Time now = Time::zero();
  std::uint64_t uid = 1;
  std::uint64_t digest = 1469598103934665603ull;
  const auto mix = [&digest](std::uint64_t v) {
    digest = (digest ^ v) * 1099511628211ull;
  };
  for (int i = 0; i < 3000; ++i) {
    if (rng.bernoulli(0.6)) {
      Packet p;
      p.uid = uid++;
      p.size_bytes = static_cast<std::uint32_t>(rng.uniform(40.0, 1500.0));
      p.proto = rng.bernoulli(0.3) ? Protocol::kUdp : Protocol::kTcp;
      p.ecn = rng.bernoulli(0.5) ? Ecn::kEct0 : Ecn::kNotEct;
      q.enqueue(std::move(p), now);
    } else if (Packet out; q.dequeue(now, out)) {
      mix(out.uid);
      mix(static_cast<std::uint64_t>(out.ecn));
    }
    now += Time::microseconds(rng.uniform(1.0, 1800.0));
  }
  return {digest, q.stats()};
}

TEST_P(DequeueContract, SeededScriptMatchesPinnedSequenceAndStats) {
  // Recorded from the discipline implementations before dequeue wrote
  // into a caller's packet; the packet sequence and every counter must
  // not move. Fields: offered, enqueued, dequeued, dropped, marked,
  // bytes_offered, bytes_dropped, max_packets_seen.
  ScriptExpectation want{};
  switch (GetParam()) {
    case QueueKind::kDropTail:
      want = {0x0233dfa15277d39dull,
              {1760, 1268, 1239, 492, 0, 1305580, 356266, 32}};
      break;
    case QueueKind::kRed:
      want = {0x945f511972115430ull,
              {1760, 1260, 1239, 500, 70, 1305580, 367662, 32}};
      break;
    case QueueKind::kCoDel:
      want = {0x92e115aecd0bf395ull,
              {1760, 1360, 1239, 493, 101, 1305580, 354083, 32}};
      break;
    case QueueKind::kPriority:
      want = {0x3e68d76cb8c77120ull,
              {1760, 1262, 1239, 498, 0, 1305580, 372818, 32}};
      break;
  }
  auto q = make_queue(GetParam(), 32, /*seed=*/77);
  const ScriptExpectation got = run_dequeue_script(*q);
  EXPECT_EQ(got.out_digest, want.out_digest);
  EXPECT_EQ(got.stats.offered, want.stats.offered);
  EXPECT_EQ(got.stats.enqueued, want.stats.enqueued);
  EXPECT_EQ(got.stats.dequeued, want.stats.dequeued);
  EXPECT_EQ(got.stats.dropped, want.stats.dropped);
  EXPECT_EQ(got.stats.marked, want.stats.marked);
  EXPECT_EQ(got.stats.bytes_offered, want.stats.bytes_offered);
  EXPECT_EQ(got.stats.bytes_dropped, want.stats.bytes_dropped);
  EXPECT_EQ(got.stats.max_packets_seen, want.stats.max_packets_seen);
}

// A packet whose padding is zero, like every packet it is copied into
// below, so two packets compare equal bytewise exactly when every field
// does.
Packet blank_packet() {
  Packet p;
  std::memset(static_cast<void*>(&p), 0, sizeof(Packet));
  return p;
}

void expect_same_stats(const QueueStats& got, const QueueStats& want) {
  EXPECT_EQ(got.offered, want.offered);
  EXPECT_EQ(got.enqueued, want.enqueued);
  EXPECT_EQ(got.dequeued, want.dequeued);
  EXPECT_EQ(got.dropped, want.dropped);
  EXPECT_EQ(got.marked, want.marked);
  EXPECT_EQ(got.bytes_offered, want.bytes_offered);
  EXPECT_EQ(got.bytes_dropped, want.bytes_dropped);
  EXPECT_EQ(got.max_packets_seen, want.max_packets_seen);
}

TEST_P(DequeueContract, PassIdleMatchesEnqueueThenDequeue) {
  // Twin queues under the same seed: one takes each offer to the idle
  // queue through pass_idle, the other through enqueue and dequeue. Both
  // then see the same burst and drain, so AQM state (RED's average and
  // idle decay, CoDel's dropping state) moves between idle offers, and
  // any difference pass_idle left behind shows in what comes out next.
  for (const bool ecn : {false, true}) {
    SCOPED_TRACE(ecn ? "ECN on" : "ECN off");
    auto passed = make_queue(GetParam(), 8, /*seed=*/4242);
    auto reference = make_queue(GetParam(), 8, /*seed=*/4242);
    for (QueueDiscipline* q : {passed.get(), reference.get()}) {
      q->set_drain_rate(12e6);
      q->set_ecn_marking(ecn);
    }
    RandomStream rng(99);
    Time now = Time::zero();
    std::uint64_t uid = 1;
    const auto offer = [&](bool idle) {
      Packet in = blank_packet();
      in.uid = uid++;
      in.flow = in.uid * 3;
      in.src = 1;
      in.dst = 2;
      in.size_bytes = static_cast<std::uint32_t>(rng.uniform(40.0, 1500.0));
      in.proto = rng.bernoulli(0.3) ? Protocol::kUdp : Protocol::kTcp;
      in.ecn = rng.bernoulli(0.5) ? Ecn::kEct0 : Ecn::kNotEct;
      in.tcp.seq = in.uid * 1000;
      in.app.seq = static_cast<std::uint32_t>(in.uid);
      Packet a = blank_packet();
      Packet b = blank_packet();
      std::memcpy(static_cast<void*>(&a), &in, sizeof(Packet));
      std::memcpy(static_cast<void*>(&b), &in, sizeof(Packet));
      if (!idle) {
        passed->enqueue(std::move(a), now);
        reference->enqueue(std::move(b), now);
        return;
      }
      Packet out_passed = blank_packet();
      Packet out_reference = blank_packet();
      const bool got = passed->pass_idle(std::move(a), now, out_passed);
      reference->enqueue(std::move(b), now);
      EXPECT_EQ(got, reference->dequeue(now, out_reference));
      EXPECT_EQ(std::memcmp(&out_passed, &out_reference, sizeof(Packet)), 0)
          << "uid " << in.uid;
    };
    for (int round = 0; round < 200; ++round) {
      ASSERT_TRUE(passed->empty());
      offer(/*idle=*/true);
      expect_same_stats(passed->stats(), reference->stats());
      // A burst behind it, drained at the link's pace.
      const int burst = static_cast<int>(rng.uniform(0.0, 12.0));
      for (int i = 0; i < burst; ++i) offer(/*idle=*/false);
      for (;;) {
        now += Time::microseconds(rng.uniform(100.0, 1500.0));
        Packet out_passed = blank_packet();
        Packet out_reference = blank_packet();
        const bool got = passed->dequeue(now, out_passed);
        ASSERT_EQ(got, reference->dequeue(now, out_reference));
        EXPECT_EQ(std::memcmp(&out_passed, &out_reference, sizeof(Packet)), 0);
        if (!got) break;
      }
      expect_same_stats(passed->stats(), reference->stats());
      now += Time::microseconds(rng.uniform(0.0, 30000.0));
    }
    EXPECT_GT(passed->stats().dequeued, 200u);
    if (GetParam() != QueueKind::kPriority) {
      // The AQMs both drop (and, with ECN, mark) within the bursts.
      EXPECT_GT(passed->stats().dropped + passed->stats().marked, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDisciplines, DequeueContract,
                         ::testing::Values(QueueKind::kDropTail,
                                           QueueKind::kRed, QueueKind::kCoDel,
                                           QueueKind::kPriority));

TEST(MakeQueueConformance, AllKindsConstructAndName) {
  EXPECT_EQ(make_queue(QueueKind::kDropTail, 8)->name(), "DropTail");
  EXPECT_EQ(make_queue(QueueKind::kRed, 8)->name(), "RED");
  EXPECT_EQ(make_queue(QueueKind::kCoDel, 8)->name(), "CoDel");
  EXPECT_EQ(make_queue(QueueKind::kPriority, 8)->name(), "Priority");
}

// ---------------------------------------------------------------------------
// PriorityQueue: the two bands partition the configured capacity exactly.

TEST(PriorityCapacity, BandsSumToConfiguredCapacity) {
  for (const std::size_t capacity : {1u, 2u, 7u, 8u, 64u, 749u}) {
    for (const double share : {0.0, 0.1, 0.25, 0.5, 0.999, 1.0}) {
      PriorityQueue q(capacity, PriorityParams{share});
      EXPECT_EQ(q.high_capacity() + q.low_capacity(), capacity)
          << "capacity=" << capacity << " share=" << share;
    }
  }
}

TEST(PriorityCapacity, FullShareLeavesNoLowBand) {
  // Regression: share = 1.0 used to grant the low band a bonus slot, so
  // the queue buffered capacity + 1 packets.
  PriorityQueue q(8, PriorityParams{1.0});
  EXPECT_EQ(q.high_capacity(), 8u);
  EXPECT_EQ(q.low_capacity(), 0u);
  for (int i = 0; i < 16; ++i) {
    q.enqueue(make_packet(kMtuBytes, Protocol::kUdp), Time::zero());
    q.enqueue(make_packet(kMtuBytes, Protocol::kTcp), Time::zero());
  }
  EXPECT_EQ(q.packet_count(), 8u);
  EXPECT_EQ(q.low_count(), 0u);
  EXPECT_EQ(q.low_drops(), 16u);
}

TEST(PriorityCapacity, SinglePacketBufferNeverHoldsTwo) {
  PriorityQueue q(1);  // default share 0.25 -> high gets the only slot
  q.enqueue(make_packet(kMtuBytes, Protocol::kUdp), Time::zero());
  q.enqueue(make_packet(kMtuBytes, Protocol::kTcp), Time::zero());
  q.enqueue(make_packet(kMtuBytes, Protocol::kUdp), Time::zero());
  EXPECT_EQ(q.packet_count(), 1u);
  EXPECT_EQ(q.stats().dropped, 2u);
}

TEST(PriorityCapacity, HighPriorityServedFirstWithinCapacity) {
  PriorityQueue q(8, PriorityParams{0.5});
  q.enqueue(make_packet(100, Protocol::kTcp), Time::zero());
  q.enqueue(make_packet(200, Protocol::kUdp), Time::zero());
  Packet first;
  ASSERT_TRUE(q.dequeue(Time::zero(), first));
  EXPECT_EQ(first.proto, Protocol::kUdp);
}

// ---------------------------------------------------------------------------
// RED: idle decay and per-instance seeding.

TEST(RedIdleDecay, AverageDecaysAcrossIdlePeriod) {
  RedQueue q(100);
  q.set_drain_rate(12e6);  // 1500-byte packet drains in 1 ms
  // Build up a standing average.
  Time now = Time::zero();
  for (int i = 0; i < 2000; ++i) {
    q.enqueue(make_packet(), now);
    if (q.packet_count() > 40) discard_one(q, now);
    now += Time::milliseconds(1);
  }
  const double busy_avg = q.average_queue();
  ASSERT_GT(busy_avg, 10.0);
  // Drain completely; the last successful dequeue marks the idle start.
  while (discard_one(q, now)) {
  }
  // One second idle = 1000 packet-times: avg must decay by (1-w)^1000.
  now += Time::seconds(1);
  q.enqueue(make_packet(), now);
  const double expected = busy_avg * std::pow(1.0 - 0.002, 1000.0);
  EXPECT_NEAR(q.average_queue(), expected, expected * 1e-6);
  EXPECT_LT(q.average_queue(), busy_avg * 0.2);
}

TEST(RedIdleDecay, FrozenAverageNoLongerDropsAfterLongIdle) {
  // Regression: avg_ used to freeze at its busy value, so the first
  // packets after a long idle gap could still be early-dropped.
  RedQueue q(100);
  q.set_drain_rate(12e6);
  Time now = Time::zero();
  // Hold the queue around 60 packets so avg_ climbs between the 25/75
  // thresholds where early drop is active.
  for (int i = 0; i < 4000; ++i) {
    q.enqueue(make_packet(), now);
    if (q.packet_count() > 60) discard_one(q, now);
    now += Time::milliseconds(1);
  }
  ASSERT_GT(q.average_queue(), 25.0);
  while (discard_one(q, now)) {
  }
  now += Time::seconds(60);  // decays avg to ~0
  const auto dropped_before = q.stats().dropped;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(q.enqueue(make_packet(), now));
    discard_one(q, now);
    now += Time::milliseconds(1);
  }
  EXPECT_EQ(q.stats().dropped, dropped_before);
  EXPECT_LT(q.average_queue(), 1.0);
}

// Drive a queue with a fixed near-threshold load and record which arrivals
// were admitted.
std::vector<bool> red_admission_pattern(QueueDiscipline& q) {
  std::vector<bool> pattern;
  Time now = Time::zero();
  for (int i = 0; i < 3000; ++i) {
    pattern.push_back(q.enqueue(make_packet(), now));
    if (q.packet_count() > 50) discard_one(q, now);
    now += Time::milliseconds(1);
  }
  return pattern;
}

TEST(RedSeeding, DistinctSeedsGiveDistinctDropLotteries) {
  auto a = make_queue(QueueKind::kRed, 100, 1);
  auto b = make_queue(QueueKind::kRed, 100, 2);
  auto a2 = make_queue(QueueKind::kRed, 100, 1);
  const auto pa = red_admission_pattern(*a);
  const auto pb = red_admission_pattern(*b);
  const auto pa2 = red_admission_pattern(*a2);
  EXPECT_NE(pa, pb);   // different seeds, different lottery
  EXPECT_EQ(pa, pa2);  // same seed reproduces exactly
}

TEST(RedSeeding, TopologyDerivesPerLinkSeeds) {
  // Two RED links in one topology must not share a drop sequence, and the
  // same topology under another master seed must see another lottery.
  auto build = [](std::uint64_t seed) {
    auto sim = std::make_unique<Simulation>(seed);
    auto topo = std::make_unique<Topology>(*sim);
    auto& a = topo->add_node("a");
    auto& b = topo->add_node("b");
    LinkSpec spec;
    spec.queue = QueueKind::kRed;
    spec.buffer_packets = 100;
    auto pair = topo->connect(a, b, spec, spec);
    return std::tuple(std::move(sim), std::move(topo), pair);
  };
  auto [sim1, topo1, links1] = build(7);
  auto [sim2, topo2, links2] = build(8);
  auto [sim3, topo3, links3] = build(7);
  const auto fwd1 = red_admission_pattern(links1.forward->queue());
  const auto bwd1 = red_admission_pattern(links1.backward->queue());
  const auto fwd2 = red_admission_pattern(links2.forward->queue());
  const auto fwd3 = red_admission_pattern(links3.forward->queue());
  EXPECT_NE(fwd1, bwd1);  // two links of one topology
  EXPECT_NE(fwd1, fwd2);  // same link, different master seed
  EXPECT_EQ(fwd1, fwd3);  // reproducible for a fixed master seed
}

// ---------------------------------------------------------------------------
// CoDel: RFC 8289 §4.3 count hysteresis.

// Keep a CoDel queue in a standing-queue regime (every packet's sojourn is
// `sojourn`) for `steps` dequeues spaced `spacing` apart.
void codel_standing(CoDelQueue& q, Time& now, Time sojourn, Time spacing,
                    int steps) {
  for (int i = 0; i < steps; ++i) {
    // Keep ~20 packets of backlog whose head is `sojourn` old.
    while (q.packet_count() < 20) q.enqueue(make_packet(), now - sojourn);
    discard_one(q, now);
    now += spacing;
  }
}

TEST(CoDelHysteresis, QuickReentryResumesFromPreviousRate) {
  CoDelQueue q(1000);
  Time now = Time::seconds(1);
  // Enter the dropping state and accumulate several drops.
  codel_standing(q, now, Time::milliseconds(50), Time::milliseconds(20), 300);
  ASSERT_TRUE(q.dropping());
  // Draining the backlog ends the dropping state (empty queue).
  while (discard_one(q, now)) {
  }
  ASSERT_FALSE(q.dropping());
  const std::uint32_t count_at_exit = q.drop_count();
  ASSERT_GT(count_at_exit, 2u);
  // Re-enter quickly (well inside 16 intervals = 1.6 s): the count resumes
  // from the drops the previous state accumulated instead of restarting
  // at 1, so the drop spacing stays tight.
  codel_standing(q, now, Time::milliseconds(50), Time::milliseconds(20), 40);
  ASSERT_TRUE(q.dropping());
  EXPECT_GE(q.drop_count(), count_at_exit - 1);
}

TEST(CoDelHysteresis, SlowReentryRestartsFromOne) {
  CoDelQueue q(1000);
  Time now = Time::seconds(1);
  codel_standing(q, now, Time::milliseconds(50), Time::milliseconds(20), 300);
  ASSERT_TRUE(q.dropping());
  while (discard_one(q, now)) {
  }
  ASSERT_FALSE(q.dropping());
  ASSERT_GT(q.drop_count(), 2u);
  // Idle far longer than 16 intervals before the next congestion episode.
  now += Time::seconds(60);
  // A fresh episode restarts the control law from count == 1: within its
  // first interval it sheds at most the entry drop plus one more.
  codel_standing(q, now, Time::milliseconds(50), Time::milliseconds(20), 8);
  ASSERT_TRUE(q.dropping());
  EXPECT_LE(q.drop_count(), 2u);
}

}  // namespace
}  // namespace qoesim::net
