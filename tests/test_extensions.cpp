// Tests for the paper-motivated extensions: strict-priority QoS isolation
// (§7.4 recommendation) and HTTP adaptive streaming (§10 future work).
#include <gtest/gtest.h>

#include "apps/http_video.hpp"
#include "apps/voip.hpp"
#include "core/experiment.hpp"
#include "core/testbed.hpp"
#include "core/workloads.hpp"
#include "net/priority_queue.hpp"
#include "qoe/http_video_qoe.hpp"
#include "qoe/voip_qoe.hpp"

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

// ---- HTTP adaptive streaming ----

struct HasNet {
  explicit HasNet(double rate = 16e6, std::size_t buffer = 64) : topo(sim) {
    client = &topo.add_node("client");
    server = &topo.add_node("server");
    net::LinkSpec spec;
    spec.rate_bps = rate;
    spec.delay = Time::milliseconds(25);
    spec.buffer_packets = buffer;
    topo.connect(*client, *server, spec, spec);
    topo.compute_routes();
  }
  Simulation sim;
  net::Topology topo;
  net::Node* client;
  net::Node* server;
};

TEST(HttpVideo, FastLinkPlaysTopRungWithoutStalls) {
  HasNet net(16e6);
  apps::HttpVideoConfig cfg;
  apps::HttpVideoServer server(*net.server, cfg, {});
  apps::HttpVideoSession session(*net.client, net.server->id(), cfg, {});
  session.start(Time::seconds(1));
  net.sim.run_until(Time::seconds(120));
  ASSERT_TRUE(session.finished());
  const auto m = session.metrics();
  EXPECT_TRUE(m.completed);
  EXPECT_EQ(m.stall_count, 0u);
  EXPECT_LT(m.startup_delay.sec(), 4.0);
  // Adaptation climbs to the 8 Mbit/s rung on a 16 Mbit/s link.
  EXPECT_GT(m.mean_bitrate_bps, 4e6);
  EXPECT_DOUBLE_EQ(session.segment_bitrates().front(), 1e6);  // cautious start
  const auto score = qoe::HttpVideoQoe::score(m, cfg);
  EXPECT_GT(score.mos, 4.0);
}

TEST(HttpVideo, SlowLinkAdaptsDownInsteadOfStalling) {
  HasNet net(3e6);  // below the 4 Mbit/s rung
  apps::HttpVideoConfig cfg;
  apps::HttpVideoServer server(*net.server, cfg, {});
  apps::HttpVideoSession session(*net.client, net.server->id(), cfg, {});
  session.start(Time::seconds(1));
  net.sim.run_until(Time::seconds(180));
  ASSERT_TRUE(session.finished());
  const auto m = session.metrics();
  EXPECT_TRUE(m.completed);
  EXPECT_LE(m.stall_count, 1u);
  EXPECT_LT(m.mean_bitrate_bps, 3e6);  // stayed below the link rate
}

TEST(HttpVideo, StarvedLinkStalls) {
  HasNet net(0.8e6);  // below even the lowest rung
  apps::HttpVideoConfig cfg;
  apps::HttpVideoServer server(*net.server, cfg, {});
  apps::HttpVideoSession session(*net.client, net.server->id(), cfg, {});
  session.start(Time::seconds(1));
  net.sim.run_until(Time::seconds(300));
  ASSERT_TRUE(session.finished());
  const auto m = session.metrics();
  EXPECT_GE(m.stall_count, 1u);
  const auto score = qoe::HttpVideoQoe::score(m, cfg);
  EXPECT_LT(score.mos, 3.0);
}

TEST(HttpVideo, CancelMarksAbandoned) {
  HasNet net(0.1e6);
  apps::HttpVideoConfig cfg;
  apps::HttpVideoServer server(*net.server, cfg, {});
  apps::HttpVideoSession session(*net.client, net.server->id(), cfg, {});
  session.start(Time::zero());
  net.sim.run_until(Time::seconds(10));
  session.cancel();
  EXPECT_TRUE(session.finished());
  const auto m = session.metrics();
  EXPECT_FALSE(m.completed);
  EXPECT_EQ(qoe::HttpVideoQoe::score(m, cfg).mos, 1.0);
}

TEST(HttpVideoQoeModel, StallsDominateBitrate) {
  apps::HttpVideoConfig cfg;
  apps::HttpVideoMetrics smooth_low;
  smooth_low.completed = true;
  smooth_low.mean_bitrate_bps = 1e6;  // lowest rung, no stalls
  smooth_low.clip_duration = Time::seconds(32);
  smooth_low.startup_delay = Time::seconds(1);

  apps::HttpVideoMetrics stalling_high = smooth_low;
  stalling_high.mean_bitrate_bps = 8e6;
  stalling_high.stall_count = 3;
  stalling_high.total_stall_time = Time::seconds(6);

  EXPECT_GT(qoe::HttpVideoQoe::score(smooth_low, cfg).mos,
            qoe::HttpVideoQoe::score(stalling_high, cfg).mos);
}

TEST(HttpVideoQoeModel, MonotoneInBitrate) {
  apps::HttpVideoConfig cfg;
  apps::HttpVideoMetrics m;
  m.completed = true;
  m.clip_duration = Time::seconds(32);
  m.startup_delay = Time::seconds(1);
  double prev = 0;
  for (double rate : {1e6, 2.5e6, 4e6, 8e6}) {
    m.mean_bitrate_bps = rate;
    const double mos = qoe::HttpVideoQoe::score(m, cfg).mos;
    EXPECT_GT(mos, prev);
    prev = mos;
  }
  EXPECT_DOUBLE_EQ(prev, 5.0);  // top rung, smooth -> excellent
}

TEST(HttpVideoQoeModel, StartupDelayMildPenalty) {
  apps::HttpVideoConfig cfg;
  apps::HttpVideoMetrics m;
  m.completed = true;
  m.clip_duration = Time::seconds(32);
  m.mean_bitrate_bps = 8e6;
  m.startup_delay = Time::seconds(1);
  const double fast = qoe::HttpVideoQoe::score(m, cfg).mos;
  m.startup_delay = Time::seconds(8);
  const double slow = qoe::HttpVideoQoe::score(m, cfg).mos;
  EXPECT_LT(slow, fast);
  EXPECT_GT(slow, fast - 1.5);  // milder than stalls
}

TEST(HttpVideoRunner, CellAggregation) {
  core::ProbeBudget budget;
  budget.video_reps = 2;
  budget.warmup = Time::seconds(3);
  core::ExperimentRunner runner(budget);
  core::ScenarioConfig cfg;
  cfg.testbed = core::TestbedType::kAccess;
  cfg.workload = core::WorkloadType::kNoBg;
  cfg.buffer_packets = 64;
  const auto cell = runner.run_http_video(cfg);
  EXPECT_EQ(cell.mos.count(), 2u);
  EXPECT_EQ(cell.abandoned, 0);
  EXPECT_GT(cell.median_mos(), 4.0);  // 16 Mbit/s downlink, idle
}

}  // namespace
}  // namespace qoesim
