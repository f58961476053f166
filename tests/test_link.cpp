// Unit tests for link serialization, propagation and buffering behaviour,
// including the in-flight FIFO and its delivery path, and a runtime check
// that steady-state forwarding through every queue discipline performs no
// heap allocation.
#include "net/link.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "net/drop_tail.hpp"
#include "net/mailbox.hpp"
#include "net/monitors.hpp"
#include "net/trace_binary.hpp"
#include "sim/simulation.hpp"

namespace qoesim::net {
namespace {

// Packet uids are diagnostics-only and simulation-owned; tests that
// build raw packets stamp them from a file-local counter.
std::uint64_t test_uid = 1;

Packet make_packet(std::uint32_t size) {
  Packet p;
  p.uid = test_uid++;
  p.size_bytes = size;
  return p;
}

class LinkTest : public ::testing::Test {
 protected:
  Simulation sim;
};

TEST_F(LinkTest, SerializationTimeMatchesRate) {
  Link link(sim, "l", 8e6 /*8 Mbit/s*/, Time::zero(),
            std::make_unique<DropTailQueue>(10));
  EXPECT_EQ(link.serialization_time(1000), Time::milliseconds(1));
  EXPECT_EQ(link.serialization_time(1500), Time::microseconds(1500));
}

TEST_F(LinkTest, DeliversAfterSerializationPlusPropagation) {
  Link link(sim, "l", 1e6, Time::milliseconds(10),
            std::make_unique<DropTailQueue>(10));
  Time delivered_at = Time::zero();
  link.set_sink([&](Packet&&) { delivered_at = sim.now(); });
  link.send(make_packet(1250));  // 10 ms serialization at 1 Mbit/s
  sim.run();
  EXPECT_EQ(delivered_at, Time::milliseconds(20));
}

TEST_F(LinkTest, BackToBackPacketsQueueBehindTransmitter) {
  Link link(sim, "l", 1e6, Time::zero(),
            std::make_unique<DropTailQueue>(10));
  std::vector<Time> deliveries;
  link.set_sink([&](Packet&&) { deliveries.push_back(sim.now()); });
  for (int i = 0; i < 3; ++i) link.send(make_packet(1250));  // 10 ms each
  sim.run();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[0], Time::milliseconds(10));
  EXPECT_EQ(deliveries[1], Time::milliseconds(20));
  EXPECT_EQ(deliveries[2], Time::milliseconds(30));
}

TEST_F(LinkTest, MailboxCannotBeSetWhilePacketsPropagate) {
  // A mailbox link keeps only the serializing packet in its FIFO, so a
  // packet already riding the propagation delay would be lost.
  Link link(sim, "cross-east", 1e6, Time::milliseconds(10),
            std::make_unique<DropTailQueue>(10));
  link.set_sink([](Packet&&) {});
  ShardMailbox mailbox;
  link.send(make_packet(1250));
  sim.run_until(Time::milliseconds(5));  // still serializing
  EXPECT_EQ(link.wire_depth(), 0u);
  sim.run_until(Time::milliseconds(15));  // now propagating
  ASSERT_EQ(link.wire_depth(), 1u);
  std::string error;
  try {
    link.set_mailbox(&mailbox);
  } catch (const std::logic_error& e) {
    error = e.what();
  }
  EXPECT_NE(error.find("cross-east"), std::string::npos) << error;
  sim.run();
  EXPECT_EQ(link.wire_depth(), 0u);
  link.set_mailbox(&mailbox);  // an idle link accepts it
}

TEST_F(LinkTest, BufferOverflowDropsExcess) {
  // Capacity 2: one transmitting + two queued; the rest drop.
  Link link(sim, "l", 1e6, Time::zero(), std::make_unique<DropTailQueue>(2));
  int delivered = 0;
  link.set_sink([&](Packet&&) { ++delivered; });
  for (int i = 0; i < 10; ++i) link.send(make_packet(1250));
  sim.run();
  EXPECT_EQ(delivered, 3);  // 1 in service + 2 buffered
  EXPECT_EQ(link.queue().stats().dropped, 7u);
}

TEST_F(LinkTest, QueueDelayMeasured) {
  Link link(sim, "l", 1e6, Time::zero(), std::make_unique<DropTailQueue>(10));
  link.set_sink([](Packet&&) {});
  LinkMonitor monitor(link);
  for (int i = 0; i < 3; ++i) link.send(make_packet(1250));
  sim.run();
  // First packet waits 0, second 10 ms, third 20 ms -> mean 10 ms.
  EXPECT_NEAR(monitor.queue_delay().mean(), 0.010, 1e-9);
  EXPECT_EQ(monitor.queue_delay().count(), 3u);
}

TEST_F(LinkTest, DeliveredCounters) {
  Link link(sim, "l", 1e9, Time::zero(), std::make_unique<DropTailQueue>(10));
  link.set_sink([](Packet&&) {});
  link.send(make_packet(100));
  link.send(make_packet(200));
  sim.run();
  EXPECT_EQ(link.delivered_packets(), 2u);
  EXPECT_EQ(link.delivered_bytes(), 300u);
}

TEST_F(LinkTest, TxObserverSeesEveryTransmission) {
  Link link(sim, "l", 1e9, Time::zero(), std::make_unique<DropTailQueue>(10));
  link.set_sink([](Packet&&) {});
  int observed = 0;
  link.add_tx_observer([&](const Packet&, Time) { ++observed; });
  for (int i = 0; i < 5; ++i) link.send(make_packet(100));
  sim.run();
  EXPECT_EQ(observed, 5);
}

TEST_F(LinkTest, InvalidConstructionThrows) {
  EXPECT_THROW(Link(sim, "bad", 0.0, Time::zero(),
                    std::make_unique<DropTailQueue>(1)),
               std::invalid_argument);
  EXPECT_THROW(Link(sim, "bad", 1e6, Time::zero(), nullptr),
               std::invalid_argument);
}

// The constructor's error message, or "" if it accepted the arguments.
std::string construction_error(Simulation& sim, double rate, Time delay) {
  try {
    Link link(sim, "uplink-7", rate, delay, std::make_unique<DropTailQueue>(1));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST_F(LinkTest, RejectsNonFiniteOrNonPositiveRateAndNegativeDelay) {
  // A NaN rate used to pass the `<= 0` check and reach serialization's
  // integer cast; a negative delay used to surface only at the first
  // delivery, as a scheduler error that named no link.
  for (const double rate : {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(), 0.0,
                            -1e6}) {
    SCOPED_TRACE(rate);
    const std::string error = construction_error(sim, rate, Time::zero());
    EXPECT_NE(error.find("uplink-7"), std::string::npos) << error;
    EXPECT_NE(error.find("rate"), std::string::npos) << error;
  }
  const std::string error = construction_error(sim, 1e6, Time::nanoseconds(-1));
  EXPECT_NE(error.find("uplink-7"), std::string::npos) << error;
  EXPECT_NE(error.find("delay"), std::string::npos) << error;
  EXPECT_EQ(construction_error(sim, 1e6, Time::zero()), "");
}

TEST_F(LinkTest, RxObserverAndSinkSeeTheDeliveredPacket) {
  // Delivery hands out the packet in its in-flight slot: the rx observer
  // and then the sink must see every field the sender set.
  Link link(sim, "l", 1e6, Time::milliseconds(2),
            std::make_unique<DropTailQueue>(10));
  Packet sent = make_packet(1250);  // 10 ms serialization
  sent.flow = 42;
  sent.src = 3;
  sent.dst = 9;
  sent.proto = Protocol::kUdp;
  sent.ecn = Ecn::kEct0;
  sent.udp.dst_port = 5004;
  sent.app.kind = AppKind::kVoip;
  sent.app.seq = 17;
  std::vector<Packet> observed;
  std::vector<Time> observed_at;
  std::vector<Packet> sunk;
  link.add_rx_observer([&](const Packet& p, Time at) {
    observed.push_back(p);
    observed_at.push_back(at);
  });
  link.set_sink([&](Packet&& p) { sunk.push_back(p); });
  link.send(Packet(sent));
  sim.run();
  ASSERT_EQ(observed.size(), 1u);
  ASSERT_EQ(sunk.size(), 1u);
  EXPECT_EQ(observed_at[0], Time::milliseconds(12));
  for (const Packet& got : {observed[0], sunk[0]}) {
    EXPECT_EQ(got.uid, sent.uid);
    EXPECT_EQ(got.flow, 42u);
    EXPECT_EQ(got.src, 3u);
    EXPECT_EQ(got.dst, 9u);
    EXPECT_EQ(got.proto, Protocol::kUdp);
    EXPECT_EQ(got.ecn, Ecn::kEct0);
    EXPECT_EQ(got.size_bytes, 1250u);
    EXPECT_EQ(got.udp.dst_port, 5004u);
    EXPECT_EQ(got.app.kind, AppKind::kVoip);
    EXPECT_EQ(got.app.seq, 17u);
    EXPECT_EQ(got.enqueued_at, Time::zero());
  }
}

TEST_F(LinkTest, PoolBalancesAfterDrainAndEmptyDequeuesAreNotCounted) {
  // Every transmission ends in a dequeue that finds the queue empty; the
  // FIFO slot staged for it must not count as acquired.
  Link link(sim, "l", 1e9, Time::milliseconds(1),
            std::make_unique<DropTailQueue>(100));
  std::uint64_t delivered = 0;
  link.set_sink([&](Packet&&) { ++delivered; });
  for (int i = 0; i < 40; ++i) link.send(make_packet(1500));
  sim.run();
  EXPECT_EQ(delivered, 40u);
  const Link::PoolStats pool = link.pool_stats();
  EXPECT_EQ(pool.acquired, 40u);
  EXPECT_EQ(pool.released, pool.acquired);
  // All 40 packets were in flight at once (12 us serialization against
  // 1 ms propagation), in FIFO blocks of 1, 1, 2, 4, 8, 16 and 32 entries.
  EXPECT_EQ(pool.peak_in_flight, 40u);
  EXPECT_EQ(pool.slab_growths, 7u);
}

TEST_F(LinkTest, InFlightFifoPreservesOrderWithManyInFlight) {
  // 12 us serialization vs 10 ms propagation: ~800 packets ride the wire
  // concurrently, all funneled through the single delivery event.
  Link link(sim, "l", 1e9, Time::milliseconds(10),
            std::make_unique<DropTailQueue>(2000));
  std::vector<std::uint64_t> uids;
  std::vector<Time> at;
  link.set_sink([&](Packet&& p) {
    uids.push_back(p.uid);
    at.push_back(sim.now());
  });
  std::vector<std::uint64_t> sent;
  for (int i = 0; i < 500; ++i) {
    Packet p = make_packet(1500);
    sent.push_back(p.uid);
    link.send(std::move(p));
  }
  sim.run();
  ASSERT_EQ(uids, sent);  // exact FIFO, no reordering across the blocks
  const Time ser = link.serialization_time(1500);
  for (int i = 0; i < 500; ++i) {
    // Delivery i happens exactly at (i+1) serializations + propagation.
    EXPECT_EQ(at[static_cast<std::size_t>(i)],
              ser * static_cast<double>(i + 1) + Time::milliseconds(10));
  }
}

TEST_F(LinkTest, SingleDeliveryEventPerLink) {
  // With hundreds of packets in flight the scheduler must only hold the
  // serialization event plus one delivery event for this link.
  Link link(sim, "l", 1e9, Time::milliseconds(10),
            std::make_unique<DropTailQueue>(2000));
  link.set_sink([](Packet&&) {});
  for (int i = 0; i < 500; ++i) link.send(make_packet(1500));
  std::size_t max_pending = 0;
  std::size_t max_wire = 0;
  while (sim.scheduler().step()) {
    max_pending = std::max(max_pending, sim.scheduler().pending_events());
    max_wire = std::max(max_wire, link.wire_depth());
  }
  EXPECT_GT(max_wire, 100u);   // the wire really was deep...
  EXPECT_LE(max_pending, 2u);  // ...yet at most {tx-complete, delivery}
  EXPECT_EQ(link.delivered_packets(), 500u);
}

TEST_F(LinkTest, SteadyStateForwardingDoesNotGrowThePool) {
  // A fixed packet population recirculates through the link; after the
  // first lap the in-flight FIFO must stop allocating: its blocks are
  // refilled in place for every subsequent packet-hop.
  Link link(sim, "l", 1e9, Time::milliseconds(1),
            std::make_unique<DropTailQueue>(256));
  link.set_sink([&](Packet&& p) { link.send(std::move(p)); });
  for (int i = 0; i < 64; ++i) link.send(make_packet(1500));
  sim.run_until(Time::milliseconds(100));  // warmup: reach peak in-flight
  const Link::PoolStats warm = link.pool_stats();
  EXPECT_GT(warm.acquired, warm.slab_growths);  // reuse already happening
  sim.run_until(Time::seconds(1));
  const Link::PoolStats steady = link.pool_stats();
  EXPECT_EQ(steady.slab_growths, warm.slab_growths)
      << "steady-state forwarding must not grow the in-flight FIFO";
  EXPECT_GT(steady.acquired, warm.acquired + 10000u);
  EXPECT_EQ(steady.acquired - steady.released, link.wire_depth() +
                (link.transmitting() ? 1u : 0u));
}

TEST_F(LinkTest, SinkResendingIntoAFullFifoGrowsItWithoutMovingEntries) {
  // Eight packets serialize back to back (12 us each) and then all ride
  // the 1 ms propagation delay, filling the FIFO's first blocks (1, 1, 2
  // and 4 entries). At the first delivery the transmitter is idle, so the
  // sink's re-send passes straight into the FIFO, which must grow while
  // the sink still reads its packet in the front entry. A ring that moved
  // entries on growth would hand the queue a dangling packet here.
  Link link(sim, "l", 1e9, Time::milliseconds(1),
            std::make_unique<DropTailQueue>(16));
  constexpr int kPackets = 8;
  constexpr int kLaps = 5;
  std::map<std::uint64_t, int> arrivals;
  int damaged = 0;
  int grew_in_sink = 0;
  link.set_sink([&](Packet&& p) {
    if (p.flow != p.uid * 7 || p.app.seq != p.uid + 3 || p.dst != 9 ||
        p.size_bytes != 1500 || p.app.kind != AppKind::kVoip) {
      ++damaged;
    }
    if (++arrivals[p.uid] == kLaps) return;
    const std::uint64_t before = link.pool_stats().slab_growths;
    link.send(std::move(p));
    if (link.pool_stats().slab_growths != before) ++grew_in_sink;
  });
  for (int i = 0; i < kPackets; ++i) {
    Packet p = make_packet(1500);
    p.flow = p.uid * 7;
    p.app.seq = static_cast<std::uint32_t>(p.uid + 3);
    p.app.kind = AppKind::kVoip;
    p.dst = 9;
    link.send(std::move(p));
  }
  sim.run();
  EXPECT_EQ(grew_in_sink, 1);
  EXPECT_EQ(damaged, 0);
  ASSERT_EQ(arrivals.size(), static_cast<std::size_t>(kPackets));
  for (const auto& [uid, laps] : arrivals) EXPECT_EQ(laps, kLaps) << uid;
  const Link::PoolStats pool = link.pool_stats();
  EXPECT_EQ(pool.acquired, static_cast<std::uint64_t>(kPackets * kLaps));
  EXPECT_EQ(pool.released, pool.acquired);
  EXPECT_EQ(pool.slab_growths, 5u);
}

// Open-loop source: one packet every `gap`, alternating UDP and TCP so a
// priority queue fills both bands. Re-posts itself from inside its own
// firing, so the scheduler recycles the just-freed packet-lane entry.
struct OverloadSource {
  Simulation* sim;
  Link* link;
  Time gap;
  std::uint64_t sent = 0;
  void post(Time at) {
    sim->scheduler().post_at(at, [this] { fire(); });
  }
  void fire() {
    Packet p = make_packet(1000);
    p.proto = sent++ % 2 == 0 ? Protocol::kUdp : Protocol::kTcp;
    link->send(std::move(p));
    post(sim->now() + gap);
  }
};

TEST(LinkAllocation, SteadyForwardingWithStandingQueueAllocatesNothing) {
  // A source offers ~1.33x the link rate, so every discipline holds a
  // standing queue (drop-tail at capacity; RED, CoDel and the priority
  // bands at their own equilibria) and drops. After a warm-up in which
  // the queue ring, in-flight FIFO and scheduler heaps reach their peak
  // sizes, forwarding must not touch the heap at all.
  for (const QueueKind kind : {QueueKind::kDropTail, QueueKind::kRed,
                               QueueKind::kCoDel, QueueKind::kPriority}) {
    SCOPED_TRACE(to_string(kind));
    Simulation sim;
    Link link(sim, "l", 10e6, Time::milliseconds(1), make_queue(kind, 64));
    std::uint64_t delivered = 0;
    std::uint64_t depth_sum = 0;
    link.set_sink([&](Packet&&) {
      ++delivered;
      depth_sum += link.queue().packet_count();
    });
    // The tracer's drop tap is part of the measured path.
    BinaryTracer::Config trace_cfg;
    trace_cfg.capacity_records = 1 << 15;
    BinaryTracer tracer(trace_cfg);
    tracer.observe_link(link, 0);
    OverloadSource source{&sim, &link, Time::microseconds(600)};
    source.post(Time::zero());
    sim.run_until(Time::seconds(1));  // warm-up

    const std::uint64_t delivered_before = delivered;
    const std::uint64_t depth_before = depth_sum;
    const std::uint64_t dropped_before = link.queue().stats().dropped;
    const std::size_t records_before = tracer.records();
    const std::uint64_t allocs_before = testutil::allocations();
    sim.run_until(Time::seconds(3));
    const std::uint64_t allocs = testutil::allocations() - allocs_before;

    EXPECT_EQ(allocs, 0u) << "steady-state forwarding allocated";
    const std::uint64_t window = delivered - delivered_before;
    EXPECT_GT(window, 2000u);  // the link really was busy...
    // ...behind a standing queue (mean depth seen by departures)...
    EXPECT_GE((depth_sum - depth_before) / window, 2u);
    // ...that overflowed or was policed by the AQM...
    EXPECT_GT(link.queue().stats().dropped, dropped_before);
    // ...and each drop in the window left a trace record.
    std::uint64_t drop_records = 0;
    for (std::size_t i = records_before; i < tracer.records(); ++i) {
      const BinRecord r = decode_record(tracer.data() + i * kTraceRecordBytes);
      if (r.event == TraceEvent::kDrop) ++drop_records;
    }
    EXPECT_EQ(drop_records, link.queue().stats().dropped - dropped_before);
    EXPECT_EQ(tracer.overflow(), 0u);
  }
}

TEST_F(LinkTest, PoolSlotReusedAfterDelivery) {
  Link link(sim, "l", 1e6, Time::milliseconds(1),
            std::make_unique<DropTailQueue>(10));
  int delivered = 0;
  link.set_sink([&](Packet&&) { ++delivered; });
  link.send(make_packet(1250));
  sim.run();
  link.send(make_packet(1250));
  sim.run();
  EXPECT_EQ(delivered, 2);
  // Sequential packets share one FIFO entry: storage grew exactly once.
  EXPECT_EQ(link.pool_stats().slab_growths, 1u);
  EXPECT_EQ(link.pool_stats().acquired, 2u);
  EXPECT_EQ(link.pool_stats().released, 2u);
  EXPECT_EQ(link.pool_stats().peak_in_flight, 1u);
}

TEST_F(LinkTest, NoSinkReleasesSlotsImmediately) {
  Link link(sim, "l", 1e9, Time::milliseconds(10),
            std::make_unique<DropTailQueue>(100));
  for (int i = 0; i < 50; ++i) link.send(make_packet(1500));
  sim.run();
  EXPECT_EQ(link.delivered_packets(), 50u);
  EXPECT_EQ(link.wire_depth(), 0u);
  EXPECT_EQ(link.pool_stats().acquired, link.pool_stats().released);
  // Without a sink nothing rides the wire, so one entry suffices.
  EXPECT_EQ(link.pool_stats().peak_in_flight, 1u);
}

TEST_F(LinkTest, Table2DelayFigures) {
  // Table 2: a full 256-packet buffer at 1 Mbit/s uplink drains in ~3.1 s;
  // 7490 packets at OC3 rate drain in ~0.6 s.
  Link up(sim, "up", 1e6, Time::zero(), std::make_unique<DropTailQueue>(256));
  const Time drain_up = up.serialization_time(kMtuBytes) * 256.0;
  EXPECT_NEAR(drain_up.sec(), 3.07, 0.1);

  Link oc3(sim, "oc3", 149.8e6, Time::zero(),
           std::make_unique<DropTailQueue>(7490));
  const Time drain_oc3 = oc3.serialization_time(kMtuBytes) * 7490.0;
  EXPECT_NEAR(drain_oc3.sec(), 0.60, 0.02);
}

}  // namespace
}  // namespace qoesim::net
