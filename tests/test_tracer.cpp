// Packet tracer tests: BinaryTracer::observe_link records transmit and
// deliver on the link and every drop and CE mark of its queue discipline
// (CoDel head drops included), and on a real access cell the trace agrees
// with the queue counters for every discipline, with ECN off and on.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/testbed.hpp"
#include "core/workloads.hpp"
#include "net/codel.hpp"
#include "net/drop_tail.hpp"
#include "net/link.hpp"
#include "net/monitors.hpp"
#include "net/trace_binary.hpp"
#include "sim/simulation.hpp"

namespace qoesim::net {
namespace {

// Packet uids are diagnostics-only and simulation-owned; tests that
// build raw packets stamp them from a file-local counter.
std::uint64_t test_uid = 1;

Packet make_packet(std::uint32_t size = 100) {
  Packet p;
  p.uid = test_uid++;
  p.src = 1;
  p.dst = 2;
  p.size_bytes = size;
  return p;
}

std::vector<BinRecord> decoded(const BinaryTracer& tracer) {
  std::vector<BinRecord> out;
  for (std::size_t i = 0; i < tracer.records(); ++i) {
    out.push_back(decode_record(tracer.data() + i * kTraceRecordBytes));
  }
  return out;
}

std::uint64_t count(const BinaryTracer& tracer, TraceEvent e,
                    std::uint16_t point = 0) {
  std::uint64_t n = 0;
  for (const BinRecord& r : decoded(tracer)) {
    if (r.event == e && r.point == point) ++n;
  }
  return n;
}

// Offers one packet every `gap` until `until`.
struct PeriodicSource {
  Simulation* sim;
  Link* link;
  Time gap;
  Time until;
  void operator()() {
    link->send(make_packet(1250));
    if (sim->now() + gap < until) {
      sim->scheduler().schedule_at(sim->now() + gap, PeriodicSource(*this));
    }
  }
};

TEST(Tracer, RecordsLinkTransmissionsAtExactTimes) {
  Simulation sim;
  Link link(sim, "dsl-up", 1e6, Time::zero(),
            std::make_unique<DropTailQueue>(10));
  link.set_sink([](Packet&&) {});
  BinaryTracer tracer;
  tracer.observe_link(link, 4);
  for (int i = 0; i < 3; ++i) link.send(make_packet(1250));
  sim.run();
  std::vector<BinRecord> tx;
  for (const BinRecord& r : decoded(tracer)) {
    EXPECT_EQ(r.point, 4u);
    if (r.event == TraceEvent::kTransmit) tx.push_back(r);
  }
  ASSERT_EQ(tx.size(), 3u);
  EXPECT_EQ(tx[0].t_ns, Time::milliseconds(10).ns());
  EXPECT_EQ(tx[1].t_ns, Time::milliseconds(20).ns());
  EXPECT_EQ(tx[2].t_ns, Time::milliseconds(30).ns());
  EXPECT_EQ(tx[0].wire_bytes, 1250u);
  EXPECT_EQ(count(tracer, TraceEvent::kDeliver, 4), 3u);
}

TEST(Tracer, DropTailOverflowRecordsDrops) {
  Simulation sim;
  Link link(sim, "l", 1e6, Time::zero(), std::make_unique<DropTailQueue>(2));
  link.set_sink([](Packet&&) {});
  BinaryTracer tracer;
  tracer.observe_link(link, 0);
  for (int i = 0; i < 6; ++i) link.send(make_packet(1250));
  sim.run();
  // 1 in service + 2 buffered; the other 3 overflow the buffer.
  EXPECT_EQ(count(tracer, TraceEvent::kDrop), 3u);
  EXPECT_EQ(count(tracer, TraceEvent::kTransmit), 3u);
  EXPECT_EQ(count(tracer, TraceEvent::kDeliver), 3u);
  EXPECT_EQ(count(tracer, TraceEvent::kEnqueue), 0u);  // reserved
  EXPECT_EQ(link.queue().stats().drop_rate(), 0.5);
}

TEST(Tracer, CoDelHeadDropsAreRecordedPerPacket) {
  // 2x overload into a buffer too deep to fill: every drop is a CoDel
  // dequeue-time head drop, and each one leaves its own record.
  Simulation sim;
  Link link(sim, "l", 1e6, Time::zero(), std::make_unique<CoDelQueue>(1000));
  link.set_sink([](Packet&&) {});
  BinaryTracer tracer;
  tracer.observe_link(link, 0);
  sim.scheduler().schedule_at(
      Time::zero(),
      PeriodicSource{&sim, &link, Time::milliseconds(5), Time::seconds(5)});
  sim.run();
  const QueueStats& stats = link.queue().stats();
  ASSERT_LT(stats.max_packets_seen, link.queue().capacity_packets());
  ASSERT_GT(stats.dropped, 0u);
  EXPECT_EQ(count(tracer, TraceEvent::kDrop), stats.dropped);
  EXPECT_EQ(count(tracer, TraceEvent::kTransmit), link.delivered_packets());
  EXPECT_EQ(tracer.overflow(), 0u);
}

TEST(Tracer, CoexistsWithLinkMonitor) {
  Simulation sim;
  Link link(sim, "l", 1e6, Time::zero(), std::make_unique<DropTailQueue>(2));
  link.set_sink([](Packet&&) {});
  LinkMonitor monitor(link, Time::milliseconds(10));
  BinaryTracer tracer;
  tracer.observe_link(link, 0);
  for (int i = 0; i < 6; ++i) link.send(make_packet(1250));
  sim.run();
  EXPECT_EQ(count(tracer, TraceEvent::kTransmit), 3u);
  EXPECT_EQ(count(tracer, TraceEvent::kDrop), 3u);
  EXPECT_EQ(monitor.loss_rate(), 0.5);
  // 3 x 10 ms of serialization in 40 ms.
  EXPECT_DOUBLE_EQ(
      monitor.mean_utilization(Time::zero(), Time::milliseconds(40)), 0.75);
}

TEST(Tracer, SecondTracerOnOneLinkThrows) {
  Simulation sim;
  Link link(sim, "l", 1e6, Time::zero(), std::make_unique<DropTailQueue>(2));
  link.set_sink([](Packet&&) {});
  BinaryTracer first;
  BinaryTracer second;
  first.observe_link(link, 0);
  EXPECT_THROW(second.observe_link(link, 1), std::logic_error);
  for (int i = 0; i < 6; ++i) link.send(make_packet(1250));
  sim.run();
  // The rejected tracer left the link untouched; the first keeps the tap.
  EXPECT_EQ(second.records(), 0u);
  EXPECT_EQ(count(first, TraceEvent::kDrop), 3u);
}

// The trace tells the same story as the counters on a real cell: per
// bottleneck direction, drop/mark/transmit records equal the queue's
// dropped/marked counters and the link's transmissions.
TEST(Tracer, TraceAgreesWithCountersOnAccessCell) {
  for (const bool ecn : {false, true}) {
    for (const QueueKind kind : {QueueKind::kDropTail, QueueKind::kRed,
                                 QueueKind::kCoDel, QueueKind::kPriority}) {
      SCOPED_TRACE(std::string(to_string(kind)) + (ecn ? "+ECN" : ""));
      core::ScenarioConfig cfg;
      cfg.testbed = core::TestbedType::kAccess;
      cfg.workload = core::WorkloadType::kLongMany;
      cfg.direction = core::CongestionDirection::kBidirectional;
      cfg.buffer_packets = 16;
      cfg.queue = kind;
      cfg.ecn = ecn;
      cfg.seed = 3;
      BinaryTracer::Config trace_cfg;
      trace_cfg.capacity_records = 1 << 17;
      BinaryTracer tracer(trace_cfg);  // outlives the testbed's teardown
      core::Testbed testbed(cfg);
      core::Workload workload(testbed);
      tracer.observe_link(testbed.bottleneck_down(), 0);
      tracer.observe_link(testbed.bottleneck_up(), 1);
      testbed.sim().run_until(Time::seconds(20));

      ASSERT_EQ(tracer.overflow(), 0u);
      std::uint64_t marks = 0;
      for (std::uint16_t point = 0; point < 2; ++point) {
        const Link& link =
            point == 0 ? testbed.bottleneck_down() : testbed.bottleneck_up();
        const QueueStats& stats = link.queue().stats();
        EXPECT_EQ(count(tracer, TraceEvent::kDrop, point), stats.dropped);
        EXPECT_EQ(count(tracer, TraceEvent::kMark, point), stats.marked);
        EXPECT_EQ(count(tracer, TraceEvent::kTransmit, point),
                  link.delivered_packets());
        EXPECT_GT(stats.dropped, 0u);  // the cell congests both directions
        marks += stats.marked;
      }
      if (ecn && (kind == QueueKind::kRed || kind == QueueKind::kCoDel)) {
        EXPECT_GT(marks, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace qoesim::net
