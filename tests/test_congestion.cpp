// Unit tests for congestion-control algorithms (Reno, BIC, CUBIC) and the
// placement factory every socket builds its controller with.
#include "tcp/congestion_control.hpp"

#include <gtest/gtest.h>

#include "cc_box.hpp"
#include "tcp/bic.hpp"
#include "tcp/cubic.hpp"
#include "tcp/reno.hpp"

namespace qoesim::tcp {
namespace {

using testutil::CcBox;

constexpr double kMss = 1460.0;
const Time kRtt = Time::milliseconds(50);

TEST(Factory, CreatesAllKinds) {
  for (auto kind : {CcKind::kReno, CcKind::kBic, CcKind::kCubic,
                    CcKind::kVegas, CcKind::kBbr}) {
    CcBox cc(kind, kMss, 4 * kMss);
    EXPECT_EQ(cc->name(), to_string(kind));
    EXPECT_DOUBLE_EQ(cc->cwnd_bytes(), 4 * kMss);
    EXPECT_TRUE(cc->in_slow_start());
  }
}

TEST(Factory, RejectsBadMss) {
  EXPECT_THROW(RenoCc(0.0, 4 * kMss), std::invalid_argument);
}

TEST(Reno, SlowStartDoublesPerRtt) {
  RenoCc cc(kMss, 2 * kMss);
  // One RTT worth of ACKs: every byte acked adds a byte.
  cc.on_ack(2 * kMss, kRtt, Time::zero());
  EXPECT_DOUBLE_EQ(cc.cwnd_bytes(), 4 * kMss);
}

TEST(Reno, CongestionAvoidanceLinear) {
  RenoCc cc(kMss, 10 * kMss);
  cc.on_loss_event(Time::zero());  // ssthresh = 5 MSS, cwnd = 5 MSS
  EXPECT_FALSE(cc.in_slow_start());
  const double before = cc.cwnd_bytes();
  // One full window of ACKs grows cwnd by ~1 MSS.
  double acked = 0;
  while (acked < before) {
    cc.on_ack(kMss, kRtt, Time::zero());
    acked += kMss;
  }
  EXPECT_NEAR(cc.cwnd_bytes() - before, kMss, kMss * 0.25);
}

TEST(Reno, LossHalvesWindow) {
  RenoCc cc(kMss, 20 * kMss);
  cc.on_loss_event(Time::zero());
  EXPECT_DOUBLE_EQ(cc.cwnd_bytes(), 10 * kMss);
  EXPECT_DOUBLE_EQ(cc.ssthresh_bytes(), 10 * kMss);
}

TEST(Reno, TimeoutCollapsesToOneMss) {
  RenoCc cc(kMss, 20 * kMss);
  cc.on_timeout(Time::zero());
  EXPECT_DOUBLE_EQ(cc.cwnd_bytes(), kMss);
  EXPECT_DOUBLE_EQ(cc.ssthresh_bytes(), 10 * kMss);
}

TEST(Reno, FloorAtTwoMss) {
  RenoCc cc(kMss, 2 * kMss);
  cc.on_loss_event(Time::zero());
  EXPECT_DOUBLE_EQ(cc.cwnd_bytes(), 2 * kMss);
}

TEST(Reno, HystartExitsSlowStartOnDelayRise) {
  RenoCc cc(kMss, 20 * kMss);  // above the hystart low-window floor
  cc.on_ack(kMss, Time::milliseconds(50), Time::zero());  // floor
  EXPECT_TRUE(cc.in_slow_start());
  // RTT jumps well above min + max(4ms, min/8): leave slow start.
  cc.on_ack(kMss, Time::milliseconds(100), Time::zero());
  EXPECT_FALSE(cc.in_slow_start());
}

TEST(Reno, HystartInactiveBelowLowWindow) {
  RenoCc cc(kMss, 4 * kMss);
  cc.on_ack(kMss, Time::milliseconds(50), Time::zero());
  cc.on_ack(kMss, Time::milliseconds(200), Time::zero());
  EXPECT_TRUE(cc.in_slow_start());  // small windows keep doubling
}

TEST(Bic, BinarySearchTowardLastMax) {
  BicCc cc(kMss, 100 * kMss);
  cc.on_ack(kMss, kRtt, Time::zero());
  cc.on_loss_event(Time::zero());  // last_max = 100, cwnd = 80
  EXPECT_NEAR(cc.cwnd_bytes(), 80 * kMss, kMss);
  EXPECT_GT(cc.last_max_cwnd(), 0.0);
  const double before = cc.cwnd_bytes();
  // One window of acks: increment = (last_max - cwnd)/2 capped at 32.
  double acked = 0;
  while (acked < before) {
    cc.on_ack(kMss, kRtt, Time::zero());
    acked += kMss;
  }
  const double inc_segments = (cc.cwnd_bytes() - before) / kMss;
  EXPECT_GT(inc_segments, 5.0);
  EXPECT_LE(inc_segments, 33.0);
}

TEST(Bic, FastConvergenceReducesLastMax) {
  BicCc cc(kMss, 100 * kMss);
  cc.on_loss_event(Time::zero());
  const double first_max = cc.last_max_cwnd();
  cc.on_loss_event(Time::zero());  // cwnd < last_max: fast convergence
  EXPECT_LT(cc.last_max_cwnd(), first_max);
}

TEST(Bic, IncrementCappedBySmax) {
  BicCc cc(kMss, 1000 * kMss);
  cc.on_loss_event(Time::zero());
  const double before = cc.cwnd_bytes();
  double acked = 0;
  while (acked < before) {
    cc.on_ack(kMss, kRtt, Time::zero());
    acked += kMss;
  }
  EXPECT_LE((cc.cwnd_bytes() - before) / kMss, 33.0);
}

TEST(Cubic, ReductionUsesBeta) {
  CubicCc cc(kMss, 100 * kMss);
  cc.on_loss_event(Time::zero());
  EXPECT_NEAR(cc.cwnd_bytes(), 70 * kMss, kMss);
}

TEST(Cubic, GrowsTowardWmaxAfterLoss) {
  CubicCc cc(kMss, 100 * kMss);
  cc.on_ack(kMss, kRtt, Time::milliseconds(1));
  cc.on_loss_event(Time::milliseconds(1));
  const double reduced = cc.cwnd_bytes();
  Time now = Time::milliseconds(1);
  for (int rtt = 0; rtt < 200; ++rtt) {
    now += kRtt;
    double acked = 0;
    while (acked < cc.cwnd_bytes()) {
      cc.on_ack(kMss, kRtt, now);
      acked += kMss;
    }
  }
  EXPECT_GT(cc.cwnd_bytes(), reduced);
  EXPECT_GT(cc.cwnd_bytes(), 90 * kMss);  // recovered most of w_max
}

TEST(Cubic, PerAckGrowthBounded) {
  // Regression test for the K-anchoring bug: right after a loss the target
  // must stay near the current window, not jump toward w_max.
  CubicCc cc(kMss, 400 * kMss);
  cc.on_ack(kMss, kRtt, Time::milliseconds(1));
  cc.on_loss_event(Time::milliseconds(1));
  const double reduced = cc.cwnd_bytes();
  // One window of ACKs immediately after the loss.
  Time now = Time::milliseconds(2);
  double acked = 0;
  while (acked < reduced) {
    cc.on_ack(kMss, kRtt, now);
    acked += kMss;
  }
  // Growth within one RTT must be modest (<= 50% by the RFC 8312 clamp).
  EXPECT_LE(cc.cwnd_bytes(), 1.6 * reduced);
}

TEST(Cubic, TimeoutResetsEpoch) {
  CubicCc cc(kMss, 100 * kMss);
  cc.on_timeout(Time::seconds(1));
  EXPECT_DOUBLE_EQ(cc.cwnd_bytes(), kMss);
  EXPECT_NEAR(cc.w_max_segments(), 100.0, 1.0);
}

class AllCcs : public ::testing::TestWithParam<CcKind> {};

TEST_P(AllCcs, WindowAlwaysPositiveUnderRandomEvents) {
  CcBox cc(GetParam(), kMss, 4 * kMss);
  Time now;
  for (int i = 0; i < 2000; ++i) {
    now += Time::milliseconds(10);
    switch (i % 7) {
      case 3:
        cc->on_loss_event(now);
        break;
      case 6:
        cc->on_timeout(now);
        break;
      default:
        cc->on_ack(kMss, kRtt, now);
    }
    EXPECT_GE(cc->cwnd_bytes(), kMss * 0.99);
    EXPECT_LT(cc->cwnd_bytes(), 1e9);
  }
}

TEST_P(AllCcs, MonotoneGrowthBetweenLosses) {
  CcBox cc(GetParam(), kMss, 2 * kMss);
  Time now;
  double prev = cc->cwnd_bytes();
  for (int i = 0; i < 500; ++i) {
    now += Time::milliseconds(10);
    cc->on_ack(kMss, kRtt, now);
    EXPECT_GE(cc->cwnd_bytes(), prev - 1e-9);
    prev = cc->cwnd_bytes();
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllCcs,
                         ::testing::Values(CcKind::kReno, CcKind::kBic,
                                           CcKind::kCubic));

}  // namespace
}  // namespace qoesim::tcp
