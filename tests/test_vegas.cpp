// TCP Vegas tests: delay-based window behaviour and the bufferbloat
// counterfactual.
#include <gtest/gtest.h>

#include "cc_box.hpp"
#include "tcp/vegas.hpp"
#include "tcp_test_util.hpp"

namespace qoesim {
namespace {

using testutil::PairNet;
using testutil::make_sink;

constexpr double kMss = 1460.0;

TEST(Vegas, FactoryAndName) {
  testutil::CcBox cc(tcp::CcKind::kVegas, kMss, 4 * kMss);
  EXPECT_EQ(cc->name(), "vegas");
  EXPECT_STREQ(tcp::to_string(tcp::CcKind::kVegas), "vegas");
}

TEST(Vegas, GrowsWhenBacklogLow) {
  tcp::VegasCc cc(kMss, 10 * kMss);
  cc.on_loss_event(Time::zero());  // leave slow start
  const Time base = Time::milliseconds(50);
  cc.on_ack(kMss, base, Time::zero());  // establishes base RTT
  const double before = cc.cwnd_bytes();
  // RTT == base RTT -> zero backlog -> grow.
  for (int i = 0; i < 20; ++i) cc.on_ack(kMss, base, Time::zero());
  EXPECT_GT(cc.cwnd_bytes(), before);
}

TEST(Vegas, ShrinksWhenBacklogHigh) {
  tcp::VegasCc cc(kMss, 20 * kMss);
  cc.on_loss_event(Time::zero());
  cc.on_ack(kMss, Time::milliseconds(50), Time::zero());  // base
  const double before = cc.cwnd_bytes();
  // RTT far above base: large standing queue -> back off.
  for (int i = 0; i < 20; ++i) {
    cc.on_ack(kMss, Time::milliseconds(200), Time::zero());
  }
  EXPECT_LT(cc.cwnd_bytes(), before);
  EXPECT_GT(cc.backlog_estimate(), 4.0);
}

TEST(Vegas, HoldsInsideTargetBand) {
  tcp::VegasCc cc(kMss, 10 * kMss);
  cc.on_loss_event(Time::zero());
  cc.on_ack(kMss, Time::milliseconds(100), Time::zero());  // base
  // Choose an RTT so the backlog estimate sits between alpha=2 and beta=4:
  // diff = cwnd*(1 - base/rtt)/mss.
  const double cwnd_seg = cc.cwnd_bytes() / kMss;
  const double target_diff = 3.0;
  const double rtt_ms = 100.0 / (1.0 - target_diff / cwnd_seg);
  const double before = cc.cwnd_bytes();
  for (int i = 0; i < 10; ++i) {
    cc.on_ack(kMss, Time::milliseconds(rtt_ms), Time::zero());
  }
  EXPECT_NEAR(cc.cwnd_bytes(), before, kMss * 0.5);
}

TEST(Vegas, BaseRttTracksMinimumObserved) {
  // The baseline is the running *minimum* RTT: later, higher samples are
  // queueing delay and must feed the backlog estimate, not the baseline.
  tcp::VegasCc cc(kMss, 10 * kMss);
  cc.on_loss_event(Time::zero());  // leave slow start
  cc.on_ack(kMss, Time::milliseconds(100), Time::zero());
  cc.on_ack(kMss, Time::milliseconds(80), Time::zero());  // new minimum
  cc.on_ack(kMss, Time::milliseconds(120), Time::zero());
  // With base 80 ms, an RTT of 120 ms means the flow keeps
  // cwnd*(1 - 80/120)/mss packets queued; check the estimate matches.
  const double cwnd_seg = cc.cwnd_bytes() / kMss;
  const double want = cwnd_seg * (1.0 - 80.0 / 120.0);
  EXPECT_NEAR(cc.backlog_estimate(), want, 0.35);
  // A sample at the baseline reads as an empty queue.
  cc.on_ack(kMss, Time::milliseconds(80), Time::zero());
  EXPECT_NEAR(cc.backlog_estimate(), 0.0, 1e-9);
}

TEST(Vegas, AlphaBetaWindowAdjustment) {
  // Pin the congestion-avoidance decision at backlogs below alpha (=2),
  // inside [alpha, beta], and above beta (=4): grow / hold / shrink by at
  // most one MSS per RTT.
  struct Case {
    double target_backlog;
    int direction;  // -1 shrink, 0 hold, +1 grow
  };
  for (const Case c : {Case{1.0, +1}, Case{3.0, 0}, Case{6.0, -1}}) {
    tcp::VegasCc cc(kMss, 20 * kMss);
    cc.on_loss_event(Time::zero());
    const double base_ms = 100.0;
    cc.on_ack(kMss, Time::milliseconds(base_ms), Time::zero());
    const double before = cc.cwnd_bytes();
    // Solve diff = cwnd*(1 - base/rtt)/mss for the RTT that produces the
    // wanted backlog at the current window.
    const double cwnd_seg = before / kMss;
    const double rtt_ms = base_ms / (1.0 - c.target_backlog / cwnd_seg);
    // One RTT worth of ACKs.
    const int acks = static_cast<int>(cwnd_seg);
    for (int i = 0; i < acks; ++i) {
      cc.on_ack(kMss, Time::milliseconds(rtt_ms), Time::zero());
    }
    const double delta = cc.cwnd_bytes() - before;
    switch (c.direction) {
      case +1:
        EXPECT_GT(delta, 0.25 * kMss) << c.target_backlog;
        EXPECT_LE(delta, 1.5 * kMss) << c.target_backlog;  // ~1 MSS/RTT
        break;
      case 0:
        EXPECT_NEAR(delta, 0.0, 0.5 * kMss) << c.target_backlog;
        break;
      case -1:
        EXPECT_LT(delta, -0.25 * kMss) << c.target_backlog;
        EXPECT_GE(delta, -1.5 * kMss) << c.target_backlog;
        // The deliberate decrease must drag ssthresh down with it so the
        // next ACK does not re-enter slow start.
        EXPECT_FALSE(cc.in_slow_start()) << c.target_backlog;
        break;
    }
  }
}

TEST(Vegas, SlowStartExitsOnBacklogNotLoss) {
  tcp::VegasCc cc(kMss, 4 * kMss);
  ASSERT_TRUE(cc.in_slow_start());
  const Time base = Time::milliseconds(50);
  cc.on_ack(kMss, base, Time::zero());
  // Queueing delay mounts while still in slow start: once the backlog
  // estimate exceeds beta, ssthresh snaps to cwnd and slow start ends
  // without a single loss.
  for (int i = 0; i < 200 && cc.in_slow_start(); ++i) {
    cc.on_ack(kMss, Time::milliseconds(200), Time::zero());
  }
  EXPECT_FALSE(cc.in_slow_start());
  EXPECT_GT(cc.backlog_estimate(), 4.0);
}

TEST(Vegas, KeepsDeepBufferNearlyEmpty) {
  // The counterfactual to the paper's bufferbloat cells: a greedy Vegas
  // flow through a 256-packet 2 Mbit/s bottleneck holds only a few
  // packets of queue, where CUBIC holds hundreds.
  PairNet net(2e6, Time::milliseconds(10), 256);
  auto sink = make_sink(*net.b, 80);
  tcp::TcpConfig cfg;
  cfg.cc = tcp::CcKind::kVegas;
  auto client = tcp::TcpSocket::connect(*net.a, net.b->id(), 80, cfg, {});
  client->send(50'000'000);
  net.sim.run_until(Time::seconds(30));
  // Steady-state sRTT stays near the propagation RTT (20 ms), far from
  // the 1.5+ s a filled 256-packet buffer would add.
  EXPECT_LT(client->rtt().srtt(), Time::milliseconds(120));
  // And still delivers: utilization within reach of capacity.
  const double rate = client->stats().bytes_acked * 8.0 / 30.0;
  EXPECT_GT(rate, 0.6 * 2e6);
}

TEST(Vegas, ReliableUnderLossToo) {
  PairNet net(10e6, Time::milliseconds(10), 4);  // loss via tiny buffer
  auto sink = make_sink(*net.b, 80);
  tcp::TcpConfig cfg;
  cfg.cc = tcp::CcKind::kVegas;
  bool closed = false;
  auto client = tcp::TcpSocket::connect(
      *net.a, net.b->id(), 80, cfg,
      {.on_connected = {},
       .on_data = {},
       .on_remote_close = {},
       .on_closed = [&] { closed = true; }});
  client->send(2'000'000);
  client->close();
  net.sim.run_until(Time::seconds(60));
  EXPECT_TRUE(closed);
  EXPECT_EQ(client->stats().bytes_acked, 2'000'000u);
}


TEST(Vegas, LosesAgainstLossBasedCompetitor) {
  // The documented reason the Internet never adopted Vegas: a competing
  // loss-based flow fills the queue, Vegas sees the inflated RTT as its
  // own backlog and retreats. The test pins the known asymmetry.
  PairNet net(10e6, Time::milliseconds(10), 64);
  auto sink = make_sink(*net.b, 80);
  tcp::TcpConfig vegas_cfg;
  vegas_cfg.cc = tcp::CcKind::kVegas;
  tcp::TcpConfig reno_cfg;
  reno_cfg.cc = tcp::CcKind::kReno;
  auto vegas = tcp::TcpSocket::connect(*net.a, net.b->id(), 80, vegas_cfg, {});
  auto reno = tcp::TcpSocket::connect(*net.a, net.b->id(), 80, reno_cfg, {});
  vegas->send(50'000'000);
  reno->send(50'000'000);
  net.sim.run_until(Time::seconds(30));
  EXPECT_LT(vegas->stats().bytes_acked, reno->stats().bytes_acked);
}
}  // namespace
}  // namespace qoesim
