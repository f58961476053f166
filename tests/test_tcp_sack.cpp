// SACK-specific recovery behaviour: scoreboard-driven hole filling, tail
// loss probes, and regression tests for recovery pathologies found during
// development (pipe jam, go-back-N interactions).
#include <gtest/gtest.h>

#include <deque>

#include "net/drop_tail.hpp"
#include "sim/simulation.hpp"
#include "tcp/tcp_server.hpp"
#include "tcp/tcp_socket.hpp"

namespace qoesim {
namespace {

/// Queue that drops a contiguous index range [first, last] of arrivals.
class RangeDropQueue final : public net::QueueDiscipline {
 public:
  RangeDropQueue(std::size_t capacity, std::uint64_t first, std::uint64_t last)
      : QueueDiscipline(capacity), first_(first), last_(last) {}

  std::size_t packet_count() const override { return q_.size(); }
  std::size_t byte_count() const override { return bytes_; }
  std::string name() const override { return "RangeDrop"; }

 protected:
  bool do_enqueue(net::Packet&& p, Time now) override {
    ++arrivals_;
    if ((arrivals_ >= first_ && arrivals_ <= last_) || q_.size() >= capacity_) {
      count_drop(p, now);
      return false;
    }
    bytes_ += p.size_bytes;
    q_.push_back(std::move(p));
    return true;
  }
  bool do_dequeue(Time, net::Packet& out) override {
    if (q_.empty()) return false;
    out = q_.front();
    q_.pop_front();
    bytes_ -= out.size_bytes;
    return true;
  }

 private:
  std::deque<net::Packet> q_;
  std::size_t bytes_ = 0;
  std::uint64_t arrivals_ = 0;
  std::uint64_t first_, last_;
};

struct SackNet {
  SackNet(std::uint64_t drop_first, std::uint64_t drop_last)
      : a(sim, 0, "a"),
        b(sim, 1, "b"),
        ab(sim, "ab", 10e6, Time::milliseconds(10),
           std::make_unique<RangeDropQueue>(1000, drop_first, drop_last)),
        ba(sim, "ba", 10e6, Time::milliseconds(10),
           std::make_unique<net::DropTailQueue>(1000)) {
    ab.set_sink([this](net::Packet&& p) { b.receive(std::move(p)); });
    ba.set_sink([this](net::Packet&& p) { a.receive(std::move(p)); });
    a.add_port(&ab);
    a.set_default_route(0);
    b.add_port(&ba);
    b.set_default_route(0);
  }
  Simulation sim;
  net::Node a, b;
  net::Link ab, ba;
};

std::unique_ptr<tcp::TcpServer> sink(net::Node& node) {
  return std::make_unique<tcp::TcpServer>(
      node, 80, tcp::TcpConfig{}, [](std::shared_ptr<tcp::TcpSocket> s) {
        auto weak = std::weak_ptr(s);
        s->set_callbacks({.on_connected = {},
                          .on_data = {},
                          .on_remote_close =
                              [weak] {
                                if (auto x = weak.lock()) x->close();
                              },
                          .on_closed = {}});
      });
}

TEST(TcpSack, MultiHoleBurstRecoversWithoutRto) {
  // Drop arrivals 10..14 and let SACK blocks steer the retransmissions;
  // data beyond the holes keeps flowing SACK info.
  SackNet net(10, 14);
  auto server = sink(net.b);
  auto client = tcp::TcpSocket::connect(net.a, 1, 80, {}, {});
  client->send(150 * 1460);
  client->close();
  net.sim.run_until(Time::seconds(20));
  EXPECT_TRUE(client->fully_closed());
  EXPECT_EQ(client->stats().bytes_acked, 150u * 1460u);
  EXPECT_EQ(client->stats().timeouts, 0u);
  EXPECT_GE(client->stats().retransmits, 5u);
  EXPECT_LE(client->stats().retransmits, 20u);  // no mass duplication
}

TEST(TcpSack, TailBurstRepairedByProbe) {
  // Drop a run of segments at the very end of the transfer (the classic
  // tail loss): the tail-loss probe must convert this into SACK recovery
  // (or a single timeout at worst), never a long stall.
  SackNet net(46, 50);  // SYN + 49 data segments: drop the last five
  auto server = sink(net.b);
  auto client = tcp::TcpSocket::connect(net.a, 1, 80, {}, {});
  client->send(49 * 1460);
  client->close();
  net.sim.run_until(Time::seconds(20));
  EXPECT_TRUE(client->fully_closed());
  EXPECT_EQ(client->stats().bytes_acked, 49u * 1460u);
  EXPECT_GE(client->stats().tlp_probes, 1u);
  // Teardown completes promptly (no RTO-backoff spiral).
  EXPECT_LT(client->stats().closed_at.sec(), 3.0);
}

TEST(TcpSack, SingleTailSegmentProbe) {
  SackNet net(51, 51);  // drop only the final data segment
  auto server = sink(net.b);
  auto client = tcp::TcpSocket::connect(net.a, 1, 80, {}, {});
  client->send(50 * 1460);
  client->close();
  net.sim.run_until(Time::seconds(20));
  EXPECT_TRUE(client->fully_closed());
  EXPECT_LT(client->stats().closed_at.sec(), 2.0);
}

TEST(TcpSack, LostRetransmissionEventuallyRepaired) {
  // Drop segment 10 twice (original and first retransmission): the rescue
  // pass or RTO must still complete the transfer.
  class DoubleDropQueue final : public net::QueueDiscipline {
   public:
    explicit DoubleDropQueue(std::size_t capacity)
        : QueueDiscipline(capacity) {}
    std::size_t packet_count() const override { return q_.size(); }
    std::size_t byte_count() const override { return bytes_; }
    std::string name() const override { return "DoubleDrop"; }

   protected:
    bool do_enqueue(net::Packet&& p, Time now) override {
      // Identify the victim by TCP sequence: segment with seq for byte
      // 9*1460+1 (the 10th data segment). Drop its first two appearances.
      if (p.proto == net::Protocol::kTcp &&
          p.tcp.seq == 9ull * 1460ull + 1ull && p.tcp.payload > 0 &&
          drops_ < 2) {
        ++drops_;
        count_drop(p, now);
        return false;
      }
      if (q_.size() >= capacity_) {
        count_drop(p, now);
        return false;
      }
      bytes_ += p.size_bytes;
      q_.push_back(std::move(p));
      return true;
    }
    bool do_dequeue(Time, net::Packet& out) override {
      if (q_.empty()) return false;
      out = q_.front();
      q_.pop_front();
      bytes_ -= out.size_bytes;
      return true;
    }

   private:
    std::deque<net::Packet> q_;
    std::size_t bytes_ = 0;
    int drops_ = 0;
  };

  Simulation sim;
  net::Node a(sim, 0, "a"), b(sim, 1, "b");
  net::Link ab(sim, "ab", 10e6, Time::milliseconds(10),
               std::make_unique<DoubleDropQueue>(1000));
  net::Link ba(sim, "ba", 10e6, Time::milliseconds(10),
               std::make_unique<net::DropTailQueue>(1000));
  ab.set_sink([&b](net::Packet&& p) { b.receive(std::move(p)); });
  ba.set_sink([&a](net::Packet&& p) { a.receive(std::move(p)); });
  a.add_port(&ab);
  a.set_default_route(0);
  b.add_port(&ba);
  b.set_default_route(0);

  auto server = sink(b);
  auto client = tcp::TcpSocket::connect(a, 1, 80, {}, {});
  client->send(100 * 1460);
  client->close();
  sim.run_until(Time::seconds(30));
  EXPECT_TRUE(client->fully_closed());
  EXPECT_EQ(client->stats().bytes_acked, 100u * 1460u);
}

TEST(TcpSack, NoSpuriousRetransmitsOnCleanPath) {
  SackNet net(0, 0);  // drop range disabled (arrivals start at 1)
  auto server = sink(net.b);
  auto client = tcp::TcpSocket::connect(net.a, 1, 80, {}, {});
  client->send(500 * 1460);
  client->close();
  net.sim.run_until(Time::seconds(30));
  EXPECT_TRUE(client->fully_closed());
  EXPECT_EQ(client->stats().retransmits, 0u);
  EXPECT_EQ(client->stats().timeouts, 0u);
}

TEST(TcpSack, ReorderingToleratedViaDupackThreshold) {
  // A 4-tuple-preserving network cannot reorder in this simulator, but a
  // receiver SACK for data ahead of a delayed in-order segment must not
  // wedge the connection: emulate with a one-packet "skip" (drop+later
  // success is equivalent for the scoreboard path).
  SackNet net(7, 7);
  auto server = sink(net.b);
  tcp::TcpConfig cfg;
  cfg.dupack_threshold = 3;
  auto client = tcp::TcpSocket::connect(net.a, 1, 80, cfg, {});
  client->send(60 * 1460);
  client->close();
  net.sim.run_until(Time::seconds(20));
  EXPECT_TRUE(client->fully_closed());
  EXPECT_EQ(client->stats().bytes_acked, 60u * 1460u);
}

TEST(TcpSack, TlpDisabledFallsBackToRto) {
  SackNet net(46, 50);
  auto server = sink(net.b);
  tcp::TcpConfig cfg;
  cfg.enable_tlp = false;
  auto client = tcp::TcpSocket::connect(net.a, 1, 80, cfg, {});
  client->send(49 * 1460);
  client->close();
  net.sim.run_until(Time::seconds(30));
  EXPECT_TRUE(client->fully_closed());
  EXPECT_EQ(client->stats().tlp_probes, 0u);
  EXPECT_GE(client->stats().timeouts, 1u);  // tail loss needs the RTO now
}

}  // namespace
}  // namespace qoesim
