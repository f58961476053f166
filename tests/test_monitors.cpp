// Unit tests for LinkMonitor utilization/loss accounting.
#include "net/monitors.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "net/drop_tail.hpp"
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

TEST(LinkMonitor, FullUtilizationWhenSaturated) {
  Simulation sim;
  Link link(sim, "l", 1e6, Time::zero(), std::make_unique<DropTailQueue>(1000));
  link.set_sink([](Packet&&) {});
  LinkMonitor mon(link);
  // Offer exactly 5 seconds of traffic: 1 Mbit/s * 5 s / (1250*8) = 500 pkts.
  for (int i = 0; i < 500; ++i) link.send(make_packet(1250));
  sim.run_until(Time::seconds(6));
  const auto util = mon.utilization(Time::zero(), Time::seconds(5));
  ASSERT_EQ(util.count(), 5u);
  EXPECT_NEAR(util.mean(), 1.0, 0.01);
  EXPECT_NEAR(mon.mean_utilization(Time::zero(), Time::seconds(5)), 1.0, 0.01);
}

TEST(LinkMonitor, HalfUtilization) {
  Simulation sim;
  Link link(sim, "l", 1e6, Time::zero(), std::make_unique<DropTailQueue>(10));
  link.set_sink([](Packet&&) {});
  LinkMonitor mon(link);
  // One 1250-byte packet every 20 ms = 0.5 Mbit/s offered.
  for (int i = 0; i < 250; ++i) {
    sim.at(Time::milliseconds(20 * i),
           [&link] { link.send(make_packet(1250)); });
  }
  sim.run_until(Time::seconds(5));
  EXPECT_NEAR(mon.mean_utilization(Time::zero(), Time::seconds(5)), 0.5, 0.02);
}

TEST(LinkMonitor, IdleBinsCountAsZero) {
  Simulation sim;
  Link link(sim, "l", 1e6, Time::zero(), std::make_unique<DropTailQueue>(10));
  link.set_sink([](Packet&&) {});
  LinkMonitor mon(link);
  link.send(make_packet(1250));
  sim.run_until(Time::seconds(10));
  const auto util = mon.utilization(Time::zero(), Time::seconds(10));
  ASSERT_EQ(util.count(), 10u);
  EXPECT_GT(util.max(), 0.0);
  EXPECT_EQ(util.median(), 0.0);
}

TEST(LinkMonitor, LossRateFromQueue) {
  Simulation sim;
  Link link(sim, "l", 1e6, Time::zero(), std::make_unique<DropTailQueue>(2));
  link.set_sink([](Packet&&) {});
  LinkMonitor mon(link);
  for (int i = 0; i < 10; ++i) link.send(make_packet(1250));
  sim.run();
  EXPECT_NEAR(mon.loss_rate(), 0.7, 1e-9);
  EXPECT_EQ(mon.tx_packets(), 3u);
  EXPECT_EQ(mon.tx_bytes(), 3u * 1250u);
}

TEST(LinkMonitor, MeanQueueDelay) {
  Simulation sim;
  Link link(sim, "l", 1e6, Time::zero(), std::make_unique<DropTailQueue>(10));
  link.set_sink([](Packet&&) {});
  LinkMonitor mon(link);
  for (int i = 0; i < 2; ++i) link.send(make_packet(1250));
  sim.run();
  // Waits: 0 ms and 10 ms -> mean 5 ms.
  EXPECT_NEAR(mon.mean_queue_delay_s(), 0.005, 1e-9);
}

TEST(LinkMonitor, QueueDelayCountsFromAttachmentOn) {
  Simulation sim;
  Link link(sim, "l", 1e6, Time::zero(), std::make_unique<DropTailQueue>(10));
  link.set_sink([](Packet&&) {});
  // Starts serializing before the monitor exists: not counted.
  link.send(make_packet(1250));
  LinkMonitor mon(link);
  // These two wait 10 ms and 20 ms.
  for (int i = 0; i < 2; ++i) link.send(make_packet(1250));
  sim.run();
  EXPECT_EQ(mon.queue_delay().count(), 2u);
  EXPECT_NEAR(mon.mean_queue_delay_s(), 0.015, 1e-9);
}

TEST(LinkMonitor, SecondMonitorOnOneLinkThrowsNamingTheLink) {
  Simulation sim;
  Link link(sim, "bottleneck-down", 1e6, Time::zero(),
            std::make_unique<DropTailQueue>(10));
  link.set_sink([](Packet&&) {});
  LinkMonitor first(link);
  std::string error;
  try {
    LinkMonitor second(link);
  } catch (const std::logic_error& e) {
    error = e.what();
  }
  EXPECT_NE(error.find("bottleneck-down"), std::string::npos) << error;
  // The first monitor keeps the link's queue delay.
  for (int i = 0; i < 2; ++i) link.send(make_packet(1250));
  sim.run();
  EXPECT_EQ(first.queue_delay().count(), 2u);
  EXPECT_EQ(first.tx_packets(), 2u);
}

}  // namespace
}  // namespace qoesim::net
