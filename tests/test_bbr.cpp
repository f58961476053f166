// BBR tests: the state machine over synthetic delivery-rate samples
// (STARTUP plateau -> DRAIN -> PROBE_BW, PROBE_RTT on a stale RTprop),
// the bandwidth / RTprop filters, loss and timeout responses, and the
// end-to-end bufferbloat counterfactual the ablation bench reports.
#include <gtest/gtest.h>

#include "cc_box.hpp"
#include "tcp/bbr.hpp"
#include "tcp_test_util.hpp"

namespace qoesim {
namespace {

using testutil::PairNet;
using testutil::make_sink;
using State = tcp::BbrCc::State;

constexpr double kMss = 1460.0;

/// Drive `cc` with a constant-bandwidth ACK stream: `pkts_per_round`
/// segments spread over one `rtt`, repeated `rounds` times, mimicking the
/// socket's per-ACK call sequence (on_delivered, on_flight, on_ack).
/// Returns the simulated clock after the run.
Time feed_rounds(tcp::BbrCc& cc, Time start, int rounds, int pkts_per_round,
                 Time rtt, double flight_bytes) {
  Time now = start;
  const Time step = rtt / static_cast<double>(pkts_per_round);
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < pkts_per_round; ++i) {
      cc.on_delivered(kMss, now);
      cc.on_flight(flight_bytes);
      cc.on_ack(kMss, rtt, now);
      now = now + step;
    }
  }
  return now;
}

TEST(Bbr, FactoryAndName) {
  testutil::CcBox cc(tcp::CcKind::kBbr, kMss, 4 * kMss);
  EXPECT_EQ(cc->name(), "bbr");
  EXPECT_STREQ(tcp::to_string(tcp::CcKind::kBbr), "bbr");
}

TEST(Bbr, StartsUnpacedAndUnprimed) {
  tcp::BbrCc cc(kMss, 4 * kMss);
  EXPECT_EQ(cc.state(), State::kStartup);
  EXPECT_EQ(cc.pacing_rate_bps(), 0.0);  // no delivery-rate sample yet
  EXPECT_EQ(cc.btl_bw_bps(), 0.0);
  EXPECT_FALSE(cc.full_pipe());
}

TEST(Bbr, MeasuresBandwidthAndRtprop) {
  tcp::BbrCc cc(kMss, 4 * kMss);
  const Time rtt = Time::milliseconds(50);
  // 10 segments per 50 ms round = 1460*10*8/0.05 = 2.336 Mbit/s.
  feed_rounds(cc, Time::seconds(100), 6, 10, rtt, 10 * kMss);
  EXPECT_EQ(cc.min_rtt(), rtt);
  const double want = 10.0 * kMss * 8.0 / rtt.sec();
  EXPECT_NEAR(cc.btl_bw_bps(), want, want * 0.15);
  EXPECT_GT(cc.pacing_rate_bps(), 0.0);
}

TEST(Bbr, StartupPlateauEntersDrainThenProbeBw) {
  tcp::BbrCc cc(kMss, 4 * kMss);
  const Time rtt = Time::milliseconds(50);
  // Constant delivery rate: the 25%-growth test fails after 3 rounds of
  // flat bandwidth, ending STARTUP. Inflight is reported well above the
  // BDP (the startup overshoot), so DRAIN persists until we lower it.
  Time now = feed_rounds(cc, Time::seconds(100), 6, 10, rtt, 30 * kMss);
  EXPECT_TRUE(cc.full_pipe());
  ASSERT_EQ(cc.state(), State::kDrain);
  EXPECT_LT(cc.pacing_gain(), 1.0);  // drain pacing gain is 1/high-gain
  EXPECT_FALSE(cc.in_slow_start());  // ssthresh pinned on STARTUP exit

  // Report inflight at/below the BDP: the next round ends DRAIN.
  const double bdp = cc.bdp_bytes();
  ASSERT_GT(bdp, 0.0);
  feed_rounds(cc, now, 2, 10, rtt, bdp * 0.9);
  EXPECT_EQ(cc.state(), State::kProbeBw);
  // PROBE_BW pacing gain always comes from the 1.25/0.75/1.0 cycle.
  const double g = cc.pacing_gain();
  EXPECT_TRUE(g == 1.25 || g == 0.75 || g == 1.0) << g;
}

TEST(Bbr, ProbeBwCwndTracksTwoBdp) {
  tcp::BbrCc cc(kMss, 4 * kMss);
  const Time rtt = Time::milliseconds(50);
  Time now = feed_rounds(cc, Time::seconds(100), 6, 10, rtt, 10 * kMss);
  now = feed_rounds(cc, now, 20, 10, rtt, cc.bdp_bytes());
  ASSERT_EQ(cc.state(), State::kProbeBw);
  // cwnd converges to cwnd_gain (2) * BDP and stops growing there.
  EXPECT_NEAR(cc.cwnd_bytes(), 2.0 * cc.bdp_bytes(),
              0.5 * cc.bdp_bytes() + kMss);
}

TEST(Bbr, StaleRtpropEntersAndLeavesProbeRtt) {
  tcp::BbrCc cc(kMss, 4 * kMss);
  const Time rtt = Time::milliseconds(50);
  Time now = feed_rounds(cc, Time::seconds(100), 6, 10, rtt, 10 * kMss);
  now = feed_rounds(cc, now, 2, 10, rtt, cc.bdp_bytes() * 0.9);
  ASSERT_EQ(cc.state(), State::kProbeBw);

  // RTT samples stuck above the 50 ms floor: once the 10 s RTprop window
  // expires, the controller must dip into PROBE_RTT.
  const Time inflated = Time::milliseconds(80);
  bool entered = false;
  for (int r = 0; r < 300 && !entered; ++r) {
    now = feed_rounds(cc, now, 1, 10, inflated, cc.bdp_bytes());
    entered = cc.state() == State::kProbeRtt;
  }
  ASSERT_TRUE(entered);
  // PROBE_RTT sits at the minimal window so the queue can drain.
  EXPECT_NEAR(cc.cwnd_bytes(), 4 * kMss, 1.0);
  // The stale window accepts the in-probe sample as the new floor.
  EXPECT_EQ(cc.min_rtt(), inflated);

  // After the 200 ms dwell it resumes PROBE_BW.
  feed_rounds(cc, now, 8, 10, inflated, 4 * kMss);
  EXPECT_EQ(cc.state(), State::kProbeBw);
}

TEST(Bbr, LossCapsAtFlightTimeoutCollapsesToOneSegment) {
  tcp::BbrCc cc(kMss, 4 * kMss);
  const Time rtt = Time::milliseconds(50);
  Time now = feed_rounds(cc, Time::seconds(100), 6, 10, rtt, 10 * kMss);
  const double bw_before = cc.btl_bw_bps();
  ASSERT_GT(cc.cwnd_bytes(), 6 * kMss);

  cc.on_flight(5 * kMss);
  cc.on_loss_event(now);
  // Packet conservation: cwnd falls to roughly the reported pipe -- but
  // the path model (bandwidth filter) is untouched.
  EXPECT_LE(cc.cwnd_bytes(), 6 * kMss + 1.0);
  EXPECT_GE(cc.cwnd_bytes(), 4 * kMss - 1.0);
  EXPECT_EQ(cc.btl_bw_bps(), bw_before);

  cc.on_timeout(now);
  EXPECT_NEAR(cc.cwnd_bytes(), kMss, 1.0);
  EXPECT_EQ(cc.btl_bw_bps(), bw_before);
}

TEST(Bbr, IgnoresEcnEcho) {
  tcp::BbrCc cc(kMss, 4 * kMss);
  feed_rounds(cc, Time::seconds(100), 6, 10, Time::milliseconds(50),
              10 * kMss);
  const double before = cc.cwnd_bytes();
  cc.on_ecn_echo(Time::seconds(200));
  EXPECT_EQ(cc.cwnd_bytes(), before);  // BBRv1 is deliberately mark-blind
}

TEST(Bbr, KeepsDeepBufferNearlyEmpty) {
  // The bufferbloat counterfactual (same shape as the Vegas test): a
  // greedy BBR flow through a 256-packet 2 Mbit/s bottleneck holds a few
  // packets of standing queue where CUBIC holds hundreds.
  PairNet net(2e6, Time::milliseconds(10), 256);
  auto sink = make_sink(*net.b, 80);
  tcp::TcpConfig cfg;
  cfg.cc = tcp::CcKind::kBbr;
  auto client = tcp::TcpSocket::connect(*net.a, net.b->id(), 80, cfg, {});
  client->send(50'000'000);
  net.sim.run_until(Time::seconds(30));
  // sRTT stays near the 20 ms propagation RTT, far from the 1.5+ s a
  // filled 256-packet buffer would add.
  EXPECT_LT(client->rtt().srtt(), Time::milliseconds(120));
  // And still delivers: utilization within reach of capacity.
  const double rate = client->stats().bytes_acked * 8.0 / 30.0;
  EXPECT_GT(rate, 0.6 * 2e6);
}

TEST(Bbr, ReliableUnderLossToo) {
  PairNet net(10e6, Time::milliseconds(10), 4);  // loss via tiny buffer
  auto sink = make_sink(*net.b, 80);
  tcp::TcpConfig cfg;
  cfg.cc = tcp::CcKind::kBbr;
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

}  // namespace
}  // namespace qoesim
