// ECN path tests: queue-level mark-vs-drop (RED / CoDel per RFC 3168 /
// RFC 8289 §4.2), tracer mark records, TCP handshake negotiation, ECT
// stamping, CE -> ECE -> once-per-RTT congestion response, and the
// end-to-end property the ablation bench reports: a marking CoDel keeps
// its delay control without costing the TCP flow any packets.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/codel.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/red.hpp"
#include "net/topology.hpp"
#include "net/trace_binary.hpp"
#include "sim/simulation.hpp"
#include "tcp/tcp_server.hpp"
#include "tcp/tcp_socket.hpp"
#include "tcp_test_util.hpp"

namespace qoesim {
namespace {

// Packet uids are diagnostics-only and simulation-owned; tests that
// build raw packets stamp them from a file-local counter.
std::uint64_t test_uid = 1;

using net::CoDelQueue;
using net::Ecn;
using net::Packet;
using net::RedQueue;

Packet make_packet(Ecn ecn, std::uint32_t size = net::kMtuBytes) {
  Packet p;
  p.uid = test_uid++;
  p.proto = net::Protocol::kTcp;
  p.ecn = ecn;
  p.size_bytes = size;
  return p;
}

// ---------------------------------------------------------------------------
// RED: the probabilistic early-drop band marks ECT packets instead.

TEST(EcnRed, MarksEctInsteadOfEarlyDropping) {
  RedQueue q(100, net::RedParams{}, /*seed=*/7);
  q.set_ecn_marking(true);
  // Hold the queue mid-band (between min_th=25 and max_th=75) so every
  // admission decision runs the probabilistic early-drop rule.
  Time now = Time::zero();
  Packet out;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(q.enqueue(make_packet(Ecn::kEct0), now));
    now = now + Time::milliseconds(1);
  }
  for (int i = 0; i < 4000; ++i) {
    q.enqueue(make_packet(Ecn::kEct0), now);
    (void)q.dequeue(now, out);
    now = now + Time::milliseconds(1);
  }
  // ECT traffic through a never-full RED must lose nothing: each early
  // drop became a CE mark.
  EXPECT_GT(q.stats().marked, 0u);
  EXPECT_EQ(q.stats().dropped, 0u);
  EXPECT_EQ(q.stats().offered, q.stats().enqueued);
}

TEST(EcnRed, NotEctStillDropsAndNoMarksWhenDisabled) {
  // Marking enabled but Not-ECT traffic: drops as before, zero marks.
  RedQueue ect_off(100, net::RedParams{}, 7);
  ect_off.set_ecn_marking(true);
  // Marking disabled but ECT traffic: also drops, zero marks.
  RedQueue mark_off(100, net::RedParams{}, 7);
  Time now = Time::zero();
  Packet out;
  for (int i = 0; i < 50; ++i) {
    ect_off.enqueue(make_packet(Ecn::kNotEct), now);
    mark_off.enqueue(make_packet(Ecn::kEct0), now);
    now = now + Time::milliseconds(1);
  }
  for (int i = 0; i < 4000; ++i) {
    ect_off.enqueue(make_packet(Ecn::kNotEct), now);
    (void)ect_off.dequeue(now, out);
    mark_off.enqueue(make_packet(Ecn::kEct0), now);
    (void)mark_off.dequeue(now, out);
    now = now + Time::milliseconds(1);
  }
  EXPECT_EQ(ect_off.stats().marked, 0u);
  EXPECT_GT(ect_off.stats().dropped, 0u);
  EXPECT_EQ(mark_off.stats().marked, 0u);
  EXPECT_GT(mark_off.stats().dropped, 0u);
}

TEST(EcnRed, FullBufferStillDropsEct) {
  RedQueue q(10, net::RedParams{}, 7);
  q.set_ecn_marking(true);
  Time now = Time::zero();
  for (std::size_t i = 0; i < 10; ++i) {
    q.enqueue(make_packet(Ecn::kEct0), now);
  }
  ASSERT_EQ(q.packet_count(), 10u);
  const auto dropped_before = q.stats().dropped;
  EXPECT_FALSE(q.enqueue(make_packet(Ecn::kEct0), now));
  EXPECT_EQ(q.stats().dropped, dropped_before + 1);
}

// ---------------------------------------------------------------------------
// CoDel: the dequeue-time drop schedule marks ECT packets and delivers
// them, advancing the control law exactly as a drop would.

TEST(EcnCoDel, MarksAtDequeueInsteadOfDropping) {
  CoDelQueue q(1000);
  q.set_ecn_marking(true);
  // Build sustained sojourn above target (5 ms) for over an interval
  // (100 ms): enqueue at t, dequeue 150 ms later.
  Time t = Time::zero();
  Packet out;
  std::uint64_t ce_delivered = 0;
  for (int i = 0; i < 3000; ++i) {
    q.enqueue(make_packet(Ecn::kEct0), t);
    t = t + Time::milliseconds(1);
    if (i >= 150) {
      if (q.dequeue(t, out) && out.ecn == Ecn::kCe) ++ce_delivered;
    }
  }
  EXPECT_GT(q.stats().marked, 0u);
  EXPECT_EQ(q.stats().dropped, 0u);  // every would-be drop became a mark
  // Marked packets are delivered, not consumed: counts must agree.
  EXPECT_EQ(ce_delivered, q.stats().marked);
  EXPECT_TRUE(q.dropping());
  EXPECT_GT(q.drop_count(), 1u);  // the control law kept escalating
}

TEST(EcnCoDel, NotEctTrafficStillDropsWithMarkingEnabled) {
  CoDelQueue q(1000);
  q.set_ecn_marking(true);
  Time t = Time::zero();
  Packet out;
  for (int i = 0; i < 3000; ++i) {
    q.enqueue(make_packet(Ecn::kNotEct), t);
    t = t + Time::milliseconds(1);
    if (i >= 150) (void)q.dequeue(t, out);
  }
  EXPECT_GT(q.stats().dropped, 0u);
  EXPECT_EQ(q.stats().marked, 0u);
}

// ---------------------------------------------------------------------------
// Tracer: a traced CoDel+ECN link records every CE mark per packet.

TEST(EcnTracer, TracedCoDelLinkRecordsEveryMark) {
  Simulation sim;
  auto codel = std::make_unique<CoDelQueue>(1000);
  codel->set_ecn_marking(true);
  net::Link link(sim, "bottleneck", 1e6, Time::zero(), std::move(codel));
  link.set_sink([](Packet&&) {});
  net::BinaryTracer tracer;
  tracer.observe_link(link, 0);
  // 2x overload of ECT packets: CoDel's control law marks instead of
  // dropping.
  for (int i = 0; i < 1000; ++i) {
    sim.scheduler().post_at(Time::milliseconds(5 * i), [&link] {
      link.send(make_packet(Ecn::kEct0, 1250));
    });
  }
  sim.run();
  std::uint64_t marks = 0;
  for (std::size_t i = 0; i < tracer.records(); ++i) {
    const net::BinRecord r =
        net::decode_record(tracer.data() + i * net::kTraceRecordBytes);
    if (r.event == net::TraceEvent::kMark) {
      ++marks;
      EXPECT_EQ(r.ecn, Ecn::kCe);  // recorded after the mark is applied
    }
  }
  EXPECT_GT(marks, 0u);
  EXPECT_EQ(marks, link.queue().stats().marked);
  EXPECT_EQ(link.queue().stats().dropped, 0u);
  EXPECT_STREQ(net::to_string(net::TraceEvent::kMark), "mark");
}

// ---------------------------------------------------------------------------
// TCP negotiation and the ECE/CWR echo loop.

struct EcnNet {
  Simulation sim;
  net::Topology topo{sim};
  net::Node* a = nullptr;
  net::Node* b = nullptr;
  net::Topology::LinkPair links;

  EcnNet(net::QueueKind kind, bool mark, double rate_bps, Time delay,
         std::size_t buffer) {
    a = &topo.add_node("a");
    b = &topo.add_node("b");
    net::LinkSpec spec;
    spec.rate_bps = rate_bps;
    spec.delay = delay;
    spec.buffer_packets = buffer;
    spec.queue = kind;
    spec.ecn = mark;
    links = topo.connect(*a, *b, spec, spec);
    topo.compute_routes();
  }
};

TEST(EcnTcp, NegotiatedOnlyWhenBothEndsEnable) {
  for (const bool server_ecn : {false, true}) {
    for (const bool client_ecn : {false, true}) {
      testutil::PairNet net;
      tcp::TcpConfig server_cfg;
      server_cfg.ecn = server_ecn;
      std::shared_ptr<tcp::TcpSocket> accepted;
      tcp::TcpServer server(*net.b, 80, server_cfg,
                            [&](std::shared_ptr<tcp::TcpSocket> s) {
                              accepted = std::move(s);
                            });
      tcp::TcpConfig client_cfg;
      client_cfg.ecn = client_ecn;
      auto client =
          tcp::TcpSocket::connect(*net.a, net.b->id(), 80, client_cfg, {});
      net.sim.run_until(Time::seconds(2));
      ASSERT_TRUE(client->established());
      ASSERT_TRUE(accepted);
      const bool want = server_ecn && client_ecn;
      EXPECT_EQ(client->ecn_negotiated(), want)
          << "client=" << client_ecn << " server=" << server_ecn;
      EXPECT_EQ(accepted->ecn_negotiated(), want);
    }
  }
}

TEST(EcnTcp, DataIsEctAcksAreNot) {
  // Deep buffer: nothing may be lost, so no (deliberately Not-ECT)
  // retransmissions muddy the ECT counts.
  EcnNet net(net::QueueKind::kDropTail, false, 10e6, Time::milliseconds(10),
             600);
  std::uint64_t ect_data = 0, not_ect_data = 0, ect_acks = 0;
  auto observe = [&](const Packet& p, Time) {
    if (p.proto != net::Protocol::kTcp) return;
    if (p.tcp.payload > 0) {
      (net::is_ect(p.ecn) ? ect_data : not_ect_data) += 1;
    } else if (net::is_ect(p.ecn)) {
      ++ect_acks;
    }
  };
  net.links.forward->add_tx_observer(observe);
  net.links.backward->add_tx_observer(observe);

  tcp::TcpConfig cfg;
  cfg.ecn = true;
  auto sink = testutil::make_sink(*net.b, 80, cfg);
  auto client = tcp::TcpSocket::connect(*net.a, net.b->id(), 80, cfg, {});
  client->send(500'000);
  client->close();
  net.sim.run_until(Time::seconds(10));
  EXPECT_EQ(client->stats().bytes_acked, 500'000u);
  EXPECT_GT(ect_data, 0u);
  EXPECT_EQ(not_ect_data, 0u);  // every data segment travelled as ECT(0)
  EXPECT_EQ(ect_acks, 0u);      // pure ACKs must stay Not-ECT (RFC 3168)
}

TEST(EcnTcp, WithoutNegotiationNothingIsEct) {
  testutil::PairNet net;
  std::uint64_t ect = 0;
  auto observe = [&](const Packet& p, Time) {
    if (net::is_ect(p.ecn) || p.ecn == Ecn::kCe) ++ect;
  };
  net.links.forward->add_tx_observer(observe);
  net.links.backward->add_tx_observer(observe);
  auto sink = testutil::make_sink(*net.b, 80);
  auto client = tcp::TcpSocket::connect(*net.a, net.b->id(), 80, {}, {});
  client->send(200'000);
  client->close();
  net.sim.run_until(Time::seconds(10));
  EXPECT_EQ(client->stats().bytes_acked, 200'000u);
  EXPECT_EQ(ect, 0u);
}

TEST(EcnTcp, CeMarksEchoAndThrottleOncePerRtt) {
  // Bulk CUBIC through a marking CoDel bottleneck: the receiver must see
  // CE, the sender must react -- but far less often than marks arrive
  // (once per RTT, not once per mark).
  EcnNet net(net::QueueKind::kCoDel, true, 5e6, Time::milliseconds(20), 400);
  tcp::TcpConfig cfg;
  cfg.ecn = true;
  cfg.cc = tcp::CcKind::kCubic;
  std::shared_ptr<tcp::TcpSocket> accepted;
  tcp::TcpServer server(*net.b, 80, cfg,
                        [&](std::shared_ptr<tcp::TcpSocket> s) {
                          auto weak = std::weak_ptr<tcp::TcpSocket>(s);
                          s->set_callbacks({.on_connected = {},
                                            .on_data = {},
                                            .on_remote_close =
                                                [weak] {
                                                  if (auto l = weak.lock())
                                                    l->close();
                                                },
                                            .on_closed = {}});
                          accepted = std::move(s);
                        });
  auto client = tcp::TcpSocket::connect(*net.a, net.b->id(), 80, cfg, {});
  client->send(8'000'000);
  client->close();
  net.sim.run_until(Time::seconds(60));

  ASSERT_TRUE(accepted);
  EXPECT_EQ(client->stats().bytes_acked, 8'000'000u);
  EXPECT_GT(accepted->stats().ecn_ce_received, 0u);
  EXPECT_GT(client->stats().ecn_responses, 0u);
  // Once per RTT, not once per mark: the escalating mark schedule delivers
  // more CE than the sender is allowed to react to.
  EXPECT_LE(client->stats().ecn_responses,
            accepted->stats().ecn_ce_received);
  // The whole point: congestion was signalled without losing packets, so
  // (virtually) nothing had to be retransmitted.
  EXPECT_EQ(net.links.forward->queue().stats().dropped, 0u);
  EXPECT_GT(net.links.forward->queue().stats().marked, 0u);
}

TEST(EcnTcp, MarkingCodelKeepsDelayWithoutLoss) {
  // The ablation bench's CoDel row as a unit test: same transfer, drop vs
  // mark. Marking must not lose packets at the bottleneck and must keep
  // the sojourn-control property (sRTT near propagation, not buffer-full).
  auto run = [&](bool mark) {
    EcnNet net(net::QueueKind::kCoDel, mark, 2e6, Time::milliseconds(10),
               256);
    tcp::TcpConfig cfg;
    cfg.ecn = mark;
    auto sink = testutil::make_sink(*net.b, 80, cfg);
    auto client = tcp::TcpSocket::connect(*net.a, net.b->id(), 80, cfg, {});
    client->send(4'000'000);
    net.sim.run_until(Time::seconds(25));
    struct Out {
      std::uint64_t dropped, marked, acked;
      Time srtt;
    };
    return Out{net.links.forward->queue().stats().dropped,
               net.links.forward->queue().stats().marked,
               client->stats().bytes_acked, client->rtt().srtt()};
  };
  const auto drop = run(false);
  const auto mark = run(true);
  EXPECT_GT(drop.dropped, 0u);
  EXPECT_EQ(drop.marked, 0u);
  EXPECT_EQ(mark.dropped, 0u);
  EXPECT_GT(mark.marked, 0u);
  // Delay control survives marking: CoDel holds the queue near its 5 ms
  // target either way (256 packets full would add ~1.5 s).
  EXPECT_LT(mark.srtt, Time::milliseconds(120));
  // And the link still carries the load.
  EXPECT_GT(mark.acked, drop.acked / 2);
}

}  // namespace
}  // namespace qoesim
