// Unit and property tests for queue disciplines.
#include "net/queue.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <random>

#include "net/codel.hpp"
#include "net/drop_tail.hpp"
#include "net/packet_pool.hpp"
#include "net/red.hpp"
#include "sim/random.hpp"

namespace qoesim::net {
namespace {

// Packet uids are diagnostics-only and simulation-owned; tests that
// build raw packets stamp them from a file-local counter.
std::uint64_t test_uid = 1;

Packet make_packet(std::uint32_t size = kMtuBytes) {
  Packet p;
  p.uid = test_uid++;
  p.size_bytes = size;
  return p;
}

TEST(DropTail, FifoOrder) {
  DropTailQueue q(10);
  for (std::uint32_t i = 0; i < 5; ++i) {
    Packet p = make_packet(100 + i);
    ASSERT_TRUE(q.enqueue(std::move(p), Time::zero()));
  }
  Packet out;
  for (std::uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.dequeue(Time::zero(), out));
    EXPECT_EQ(out.size_bytes, 100 + i);
  }
  EXPECT_FALSE(q.dequeue(Time::zero(), out));
}

TEST(DropTail, TailDropAtCapacity) {
  DropTailQueue q(3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(q.enqueue(make_packet(), Time::zero()));
  }
  EXPECT_FALSE(q.enqueue(make_packet(), Time::zero()));
  EXPECT_EQ(q.packet_count(), 3u);
  EXPECT_EQ(q.stats().dropped, 1u);
  EXPECT_EQ(q.stats().offered, 4u);
  EXPECT_NEAR(q.stats().drop_rate(), 0.25, 1e-12);
}

TEST(DropTail, ByteCountTracksContents) {
  DropTailQueue q(10);
  q.enqueue(make_packet(1000), Time::zero());
  q.enqueue(make_packet(500), Time::zero());
  EXPECT_EQ(q.byte_count(), 1500u);
  Packet out;
  q.dequeue(Time::zero(), out);
  EXPECT_EQ(q.byte_count(), 500u);
}

TEST(DropTail, EnqueueStampsTime) {
  DropTailQueue q(10);
  q.enqueue(make_packet(), Time::seconds(3));
  Packet out;
  ASSERT_TRUE(q.dequeue(Time::seconds(5), out));
  EXPECT_EQ(out.enqueued_at, Time::seconds(3));
}

TEST(Red, DropsEarlyUnderSustainedLoad) {
  RedQueue q(100);
  Packet out;
  std::uint64_t early_drops = 0;
  // Keep the queue persistently half-full; RED should drop before the
  // hard limit is reached.
  for (int round = 0; round < 2000; ++round) {
    q.enqueue(make_packet(), Time::zero());
    if (q.packet_count() > 60) q.dequeue(Time::zero(), out);
    if (q.stats().dropped > 0 && q.packet_count() < 100) {
      early_drops = q.stats().dropped;
    }
  }
  EXPECT_GT(early_drops, 0u);
  EXPECT_LT(q.stats().max_packets_seen, 100u);
}

TEST(Red, NoDropsWhenIdle) {
  RedQueue q(100);
  Packet out;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(q.enqueue(make_packet(), Time::zero()));
    q.dequeue(Time::zero(), out);
  }
  EXPECT_EQ(q.stats().dropped, 0u);
}

TEST(CoDel, NoDropsBelowTarget) {
  CoDelQueue q(1000);
  Time now = Time::zero();
  Packet out;
  // Sojourn always < 5ms target.
  for (int i = 0; i < 1000; ++i) {
    q.enqueue(make_packet(), now);
    now += Time::milliseconds(1);
    q.dequeue(now, out);
  }
  EXPECT_EQ(q.stats().dropped, 0u);
}

TEST(CoDel, DropsWhenSojournPersistsAboveTarget) {
  CoDelQueue q(1000);
  Time now = Time::zero();
  Packet out;
  // Fill with a standing queue so sojourn stays ~100ms.
  for (int i = 0; i < 100; ++i) {
    q.enqueue(make_packet(), now);
    now += Time::milliseconds(1);
  }
  std::uint64_t delivered = 0;
  for (int i = 0; i < 400; ++i) {
    q.enqueue(make_packet(), now);
    if (q.dequeue(now, out)) ++delivered;
    now += Time::milliseconds(5);
  }
  EXPECT_GT(q.stats().dropped, 0u);
  EXPECT_GT(delivered, 0u);
}

TEST(MakeQueue, Factory) {
  EXPECT_EQ(make_queue(QueueKind::kDropTail, 8)->name(), "DropTail");
  EXPECT_EQ(make_queue(QueueKind::kRed, 8)->name(), "RED");
  EXPECT_EQ(make_queue(QueueKind::kCoDel, 8)->name(), "CoDel");
  EXPECT_STREQ(to_string(QueueKind::kCoDel), "CoDel");
}

// Property sweep: conservation across disciplines and capacities --
// offered == dequeued + dropped + still-queued, and occupancy never
// exceeds capacity.
class QueueConservation
    : public ::testing::TestWithParam<std::tuple<QueueKind, std::size_t>> {};

TEST_P(QueueConservation, OfferedEqualsDeliveredPlusDroppedPlusQueued) {
  const auto [kind, capacity] = GetParam();
  auto q = make_queue(kind, capacity);
  Packet out;
  RandomStream rng(99);
  Time now = Time::zero();
  std::uint64_t offered = 0;
  std::uint64_t dequeued = 0;
  for (int i = 0; i < 5000; ++i) {
    if (rng.bernoulli(0.6)) {
      q->enqueue(make_packet(static_cast<std::uint32_t>(
                     rng.uniform_int(40, kMtuBytes))),
                 now);
      ++offered;
    } else if (q->dequeue(now, out)) {
      ++dequeued;
    }
    EXPECT_LE(q->packet_count(), capacity);
    now += Time::microseconds(rng.uniform(1, 500));
  }
  // Note: AQM schemes may drop at dequeue; stats capture every drop.
  EXPECT_EQ(q->stats().offered, offered);
  EXPECT_EQ(q->stats().dequeued, dequeued);
  EXPECT_EQ(q->stats().offered,
            q->stats().dropped + q->stats().dequeued + q->packet_count());
}

INSTANTIATE_TEST_SUITE_P(
    AllDisciplines, QueueConservation,
    ::testing::Combine(::testing::Values(QueueKind::kDropTail, QueueKind::kRed,
                                         QueueKind::kCoDel),
                       ::testing::Values<std::size_t>(1, 8, 64, 749)));

TEST(PacketRing, MatchesDequeAcrossBlockBoundariesWrapAndGrowth) {
  // Random bursts of pushes and pops against a std::deque reference: the
  // FIFO crosses block boundaries, wraps around the block ring, doubles
  // it while wrapped, recycles spare blocks, drains to empty and restarts
  // mid-ring.
  const ShardGuard guard;  // the ring's mutators require the shard
  std::mt19937_64 rng(7);
  PacketRing ring;
  std::deque<std::uint64_t> ref;
  std::uint64_t next = 0;
  Packet out;
  for (int round = 0; round < 4000; ++round) {
    const bool grow = rng() % 3 != 0 || ref.empty();
    const int burst = static_cast<int>(rng() % (round % 97 == 0 ? 200 : 9));
    for (int i = 0; i < burst; ++i) {
      if (grow) {
        Packet p = make_packet();
        p.uid = next;
        ring.push(std::move(p));
        ref.push_back(next++);
      } else if (!ref.empty()) {
        ASSERT_EQ(ring.front().uid, ref.front());
        ring.pop(out);
        ASSERT_EQ(out.uid, ref.front());
        ref.pop_front();
      }
    }
    ASSERT_EQ(ring.size(), ref.size());
    ASSERT_EQ(ring.empty(), ref.empty());
  }
  while (!ref.empty()) {
    ring.pop(out);
    ASSERT_EQ(out.uid, ref.front());
    ref.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(PacketRing, GrowthAtAFixedPeakStopsOnceCapacityCoversPeakPlusBlock) {
  // Entries never move, so the front block's popped slots stay unusable
  // until it drains: a ring holding exactly its earlier peak may need one
  // more block. Growth must stop once capacity reaches the peak plus the
  // largest block less one.
  const ShardGuard guard;
  PacketRing ring;
  Packet out;
  for (int i = 0; i < 8; ++i) ring.push(make_packet());
  EXPECT_EQ(ring.growths(), 4u);  // blocks of 1, 1, 2, 4
  EXPECT_EQ(ring.capacity(), 8u);
  // Two pops drain the 1-entry blocks, which the next pushes refill.
  for (int i = 0; i < 2; ++i) {
    ring.pop(out);
    ring.push(make_packet());
  }
  EXPECT_EQ(ring.growths(), 4u);
  // Half of the 2-entry front block is consumed: at 8 entries again, the
  // back finds no spare and takes a new block of 8.
  ring.pop(out);
  ring.push(make_packet());
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.growths(), 5u);
  EXPECT_EQ(ring.capacity(), 16u);  // >= 8 + 8 - 1: no further growth

  std::mt19937_64 rng(11);
  for (int round = 0; round < 20000; ++round) {
    const auto k = static_cast<int>(rng() % 9);  // 0..8 pops, then pushes
    for (int i = 0; i < k && !ring.empty(); ++i) ring.pop(out);
    while (ring.size() < 8) ring.push(make_packet());
  }
  EXPECT_EQ(ring.growths(), 5u);
}

}  // namespace
}  // namespace qoesim::net
