// Tests for the paper-motivated extension: strict-priority QoS isolation
// (§7.4 recommendation).
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "net/priority_queue.hpp"

namespace qoesim {
namespace {

net::Packet udp_pkt() {
  net::Packet p;
  p.proto = net::Protocol::kUdp;
  p.size_bytes = 200;
  return p;
}

net::Packet tcp_pkt() {
  net::Packet p;
  p.proto = net::Protocol::kTcp;
  p.size_bytes = 1500;
  return p;
}

TEST(PriorityQueue, RealTimeServedFirst) {
  net::PriorityQueue q(10);
  q.enqueue(tcp_pkt(), Time::zero());
  q.enqueue(tcp_pkt(), Time::zero());
  q.enqueue(udp_pkt(), Time::zero());
  net::Packet out;
  ASSERT_TRUE(q.dequeue(Time::zero(), out));
  EXPECT_EQ(out.proto, net::Protocol::kUdp);
  ASSERT_TRUE(q.dequeue(Time::zero(), out));
  EXPECT_EQ(out.proto, net::Protocol::kTcp);
}

TEST(PriorityQueue, ClassesHaveSeparateSpace) {
  net::PriorityQueue q(8, {.high_priority_share = 0.25});
  // Fill the low-priority class completely (6 slots).
  for (int i = 0; i < 10; ++i) q.enqueue(tcp_pkt(), Time::zero());
  EXPECT_GT(q.low_drops(), 0u);
  // Real-time traffic still gets in.
  EXPECT_TRUE(q.enqueue(udp_pkt(), Time::zero()));
  EXPECT_EQ(q.high_drops(), 0u);
}

TEST(PriorityQueue, HighClassBounded) {
  net::PriorityQueue q(8, {.high_priority_share = 0.25});
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (q.enqueue(udp_pkt(), Time::zero())) ++accepted;
  }
  EXPECT_EQ(accepted, 2);  // ceil(8 * 0.25)
  EXPECT_GT(q.high_drops(), 0u);
}

TEST(PriorityQueue, ConservationInvariant) {
  net::PriorityQueue q(16);
  std::uint64_t offered = 0;
  RandomStream rng(5);
  for (int i = 0; i < 2000; ++i) {
    if (rng.bernoulli(0.6)) {
      q.enqueue(rng.bernoulli(0.3) ? udp_pkt() : tcp_pkt(), Time::zero());
      ++offered;
    } else {
      net::Packet out;
      q.dequeue(Time::zero(), out);
    }
  }
  EXPECT_EQ(q.stats().offered, offered);
  EXPECT_EQ(q.stats().offered,
            q.stats().dropped + q.stats().dequeued + q.packet_count());
}

TEST(PriorityQueue, FactoryIntegration) {
  auto q = net::make_queue(net::QueueKind::kPriority, 64);
  EXPECT_EQ(q->name(), "Priority");
  EXPECT_STREQ(net::to_string(net::QueueKind::kPriority), "Priority");
}

TEST(QosIsolation, PriorityRescuesVoipUnderUploadBloat) {
  // The paper's recommendation in one test: same bufferbloat scenario,
  // drop-tail vs priority scheduling at the bottleneck.
  core::ProbeBudget budget;
  budget.voip_calls = 2;
  budget.warmup = Time::seconds(12);
  core::ExperimentRunner runner(budget);

  core::ScenarioConfig cfg;
  cfg.testbed = core::TestbedType::kAccess;
  cfg.workload = core::WorkloadType::kLongFew;
  cfg.direction = core::CongestionDirection::kUpstream;
  cfg.buffer_packets = 256;
  const auto droptail = runner.run_voip(cfg, true);
  cfg.queue = net::QueueKind::kPriority;
  const auto priority = runner.run_voip(cfg, true);

  EXPECT_LT(droptail.median_mos_talks(), 2.0);   // bufferbloat
  EXPECT_GT(priority.median_mos_talks(), 3.5);   // isolated voice
  EXPECT_GT(priority.median_mos_listens(), 4.0);
}

}  // namespace
}  // namespace qoesim
