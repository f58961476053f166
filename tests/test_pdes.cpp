// Model tests for the conservative-PDES sharded engine
// (core/sharded_engine): mailbox delivery must be indistinguishable from
// the single-scheduler wire path, and every observable -- delivery times,
// same-timestamp delivery order, transport counters, combined scheduler
// stats -- must be byte-identical at every shard count. The fuzz tests
// compare runs against a plain Simulation+Topology reference and against
// each other under explicit pin maps that force different cuts.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/sharded_engine.hpp"
#include "net/topology.hpp"
#include "tcp/tcp_server.hpp"
#include "tcp/tcp_socket.hpp"
#include "udp/udp_socket.hpp"

namespace qoesim::core {
namespace {

constexpr Time kDelay = Time::milliseconds(10);
constexpr std::uint32_t kPort = 7000;

net::LinkSpec long_link() {
  net::LinkSpec s;
  s.rate_bps = 10e6;
  s.delay = kDelay;
  s.buffer_packets = 64;
  return s;
}

struct Delivery {
  std::int64_t at_ns = 0;
  net::NodeId src = 0;
  std::uint32_t seq = 0;
  std::uint32_t size = 0;
  friend bool operator==(const Delivery&, const Delivery&) = default;
};

struct Send {
  bool a_to_b = false;
  std::int64_t at_ns = 0;
  std::uint32_t bytes = 0;
  std::uint32_t seq = 0;
};

// Fuzzed two-way UDP traffic over one long duplex link; the same send
// list is replayed against every engine/reference variant.
std::vector<Send> fuzz_sends(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Send> sends;
  for (std::uint32_t i = 0; i < 600; ++i) {
    Send s;
    s.a_to_b = rng() % 2 == 0;
    // Clustered times so many datagrams share timestamps and queue behind
    // each other -- the tie-break and FIFO cases the mailbox must get
    // exactly right.
    s.at_ns = static_cast<std::int64_t>(rng() % 50) * 10'000'000 +
              static_cast<std::int64_t>(rng() % 3) * 500;
    s.bytes = 40 + static_cast<std::uint32_t>(rng() % 1200);
    s.seq = i;
    sends.push_back(s);
  }
  return sends;
}

void schedule_sends(const std::vector<Send>& sends, Simulation& sim_a,
                    Simulation& sim_b, udp::UdpSocket& tx_a,
                    udp::UdpSocket& tx_b, net::NodeId a, net::NodeId b) {
  for (const Send& s : sends) {
    Simulation& sim = s.a_to_b ? sim_a : sim_b;
    udp::UdpSocket& tx = s.a_to_b ? tx_a : tx_b;
    const net::NodeId dst = s.a_to_b ? b : a;
    sim.at(Time::nanoseconds(s.at_ns), [&tx, dst, s] {
      net::AppTag tag;
      tag.seq = s.seq;
      tx.send_to(dst, kPort, s.bytes, tag);
    });
  }
}

// One engine run of the two-node fuzz scenario; returns the merged
// delivery logs of both endpoints plus the combined scheduler stats.
std::pair<std::vector<Delivery>, Scheduler::Stats> run_sharded(
    const std::vector<Send>& sends, unsigned shards,
    std::vector<std::int32_t> pins) {
  ShardedEngine::Config cfg;
  cfg.shards = shards;
  cfg.pin = std::move(pins);
  ShardedEngine engine(std::move(cfg));
  const net::NodeId a = engine.add_node("a");
  const net::NodeId b = engine.add_node("b");
  engine.connect(a, b, long_link(), long_link());
  engine.build();

  udp::UdpSocket sock_a(engine.node(a), kPort);
  udp::UdpSocket sock_b(engine.node(b), kPort);
  std::vector<Delivery> log_a, log_b;  // per-endpoint: shard-local writes
  Simulation& sim_a = engine.sim_of(a);
  Simulation& sim_b = engine.sim_of(b);
  sock_a.set_receive([&log_a, &sim_a](net::Packet&& p) {
    log_a.push_back({sim_a.now().ns(), p.src, p.app.seq, p.size_bytes});
  });
  sock_b.set_receive([&log_b, &sim_b](net::Packet&& p) {
    log_b.push_back({sim_b.now().ns(), p.src, p.app.seq, p.size_bytes});
  });
  schedule_sends(sends, sim_a, sim_b, sock_a, sock_b, a, b);

  engine.run_until(Time::seconds(2));
  std::vector<Delivery> log = log_a;
  log.insert(log.end(), log_b.begin(), log_b.end());
  return {log, engine.scheduler_stats()};
}

TEST(ShardedEngine, MailboxMatchesWireDelivery) {
  const std::vector<Send> sends = fuzz_sends(11);

  // Reference: the ordinary single-scheduler wire path (Link sink).
  Simulation sim;
  net::Topology topo(sim);
  net::Node& a = topo.add_node("a");
  net::Node& b = topo.add_node("b");
  topo.connect(a, b, long_link(), long_link());
  topo.compute_routes();
  udp::UdpSocket sock_a(a, kPort);
  udp::UdpSocket sock_b(b, kPort);
  std::vector<Delivery> ref;
  sock_a.set_receive([&ref, &sim](net::Packet&& p) {
    ref.push_back({sim.now().ns(), p.src, p.app.seq, p.size_bytes});
  });
  sock_b.set_receive([&ref, &sim](net::Packet&& p) {
    ref.push_back({sim.now().ns(), p.src, p.app.seq, p.size_bytes});
  });
  schedule_sends(sends, sim, sim, sock_a, sock_b, a.id(), b.id());
  sim.scheduler().run_until(Time::seconds(2));
  ASSERT_FALSE(ref.empty());

  // The engine mailboxes the link at every shard count (discipline follows
  // the link delay, not the cut), so both variants must reproduce the
  // reference log: same packets, same nanoseconds, same order.
  // The merged log groups a's deliveries before b's; the reference is
  // interleaved, so compare per-endpoint subsequences.
  auto split = [](const std::vector<Delivery>& log, net::NodeId from) {
    std::vector<Delivery> out;
    for (const Delivery& d : log)
      if (d.src == from) out.push_back(d);
    return out;
  };
  const auto [one, stats_one] = run_sharded(sends, 1, {});
  const auto [two, stats_two] = run_sharded(sends, 2, {0, 1});
  for (const net::NodeId from : {net::NodeId{0}, net::NodeId{1}}) {
    EXPECT_EQ(split(one, from), split(ref, from));
    EXPECT_EQ(split(two, from), split(ref, from));
  }

  // Combined engine counters are part of the determinism contract too
  // (the bench prints them on stdout).
  EXPECT_EQ(stats_one.fired, stats_two.fired);
  EXPECT_EQ(stats_one.scheduled, stats_two.scheduled);
  EXPECT_EQ(stats_one.cancelled, stats_two.cancelled);
  EXPECT_EQ(stats_one.peak_queue_depth, stats_two.peak_queue_depth);
}

// Four leaves firing datagrams that arrive at the hub at identical
// timestamps: the delivery order among those ties must not depend on the
// shard count (merge key + seq allocation, not thread interleaving).
TEST(ShardedEngine, TieBreakOrderInvariant) {
  auto run = [](unsigned shards, std::vector<std::int32_t> pins) {
    ShardedEngine::Config cfg;
    cfg.shards = shards;
    cfg.pin = std::move(pins);
    ShardedEngine engine(std::move(cfg));
    const net::NodeId hub = engine.add_node("hub");
    std::vector<net::NodeId> leaves;
    for (int i = 0; i < 4; ++i)
      leaves.push_back(engine.add_node("leaf" + std::to_string(i)));
    for (const net::NodeId leaf : leaves)
      engine.connect(hub, leaf, long_link(), long_link());
    engine.build();

    udp::UdpSocket rx(engine.node(hub), kPort);
    std::vector<Delivery> log;
    Simulation& hub_sim = engine.sim_of(hub);
    rx.set_receive([&log, &hub_sim](net::Packet&& p) {
      log.push_back({hub_sim.now().ns(), p.src, p.app.seq, p.size_bytes});
    });
    std::vector<std::unique_ptr<udp::UdpSocket>> tx;
    for (const net::NodeId leaf : leaves)
      tx.push_back(std::make_unique<udp::UdpSocket>(engine.node(leaf)));
    for (std::uint32_t round = 0; round < 40; ++round) {
      for (std::size_t l = 0; l < leaves.size(); ++l) {
        engine.sim_of(leaves[l]).at(
            Time::milliseconds(5 * (round + 1)),
            [&tx, &leaves, hub, l, round] {
              net::AppTag tag;
              tag.seq = round;
              tx[l]->send_to(hub, kPort, 100, tag);
            });
      }
    }
    engine.run_until(Time::seconds(1));
    return log;
  };

  const std::vector<Delivery> one = run(1, {});
  const std::vector<Delivery> two = run(2, {0, 1, 1, 0, 0});
  const std::vector<Delivery> four = run(4, {0, 1, 2, 3, 1});
  ASSERT_EQ(one.size(), 160u);
  EXPECT_EQ(two, one);
  EXPECT_EQ(four, one);
}

// A TCP download whose data and ACK segments cross shard boundaries on
// every round trip: transport counters must match the single-shard run
// exactly (loss recovery, RTT estimation and pacing all ride on delivery
// order).
TEST(ShardedEngine, TcpAcrossShardsInvariant) {
  struct Outcome {
    std::uint64_t bytes = 0;
    std::uint64_t segments = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t fired = 0;
    std::uint64_t peak = 0;
  };
  auto run = [](unsigned shards, std::vector<std::int32_t> pins) {
    ShardedEngine::Config cfg;
    cfg.shards = shards;
    cfg.pin = std::move(pins);
    ShardedEngine engine(std::move(cfg));
    const net::NodeId a = engine.add_node("a");
    const net::NodeId r = engine.add_node("r");
    const net::NodeId b = engine.add_node("b");
    net::LinkSpec narrow = long_link();
    narrow.rate_bps = 2e6;  // force queueing + some loss at the relay
    narrow.buffer_packets = 16;
    engine.connect(a, r, long_link(), narrow);
    engine.connect(r, b, long_link(), long_link());
    engine.build();

    std::vector<std::shared_ptr<tcp::TcpSocket>> accepted;
    tcp::TcpServer server(engine.node(b), 80, {},
                          [&accepted](std::shared_ptr<tcp::TcpSocket> sock) {
                            sock->send(400'000);
                            accepted.push_back(std::move(sock));
                          });
    auto client = tcp::TcpSocket::connect(engine.node(a), b, 80);
    engine.run_until(Time::seconds(8));

    Outcome out;
    out.bytes = client->stats().bytes_received;
    out.segments = client->stats().segments_sent;
    out.retransmits = accepted.empty() ? 0 : accepted[0]->stats().retransmits;
    out.fired = engine.scheduler_stats().fired;
    out.peak = engine.scheduler_stats().peak_queue_depth;
    return out;
  };

  const Outcome one = run(1, {});
  const Outcome three = run(3, {0, 1, 2});
  EXPECT_GT(one.bytes, 100'000u);  // the download actually ran
  EXPECT_EQ(three.bytes, one.bytes);
  EXPECT_EQ(three.segments, one.segments);
  EXPECT_EQ(three.retransmits, one.retransmits);
  EXPECT_EQ(three.fired, one.fired);
  EXPECT_EQ(three.peak, one.peak);
}

// One topology declared two ways -- a single-Simulation Topology and the
// engine at one shard -- wires the same ports in the same order; only the
// engine build (floor 1 ms) gives links at or above the floor mailboxes.
TEST(ShardedEngine, BuildsTheSameTopologyAsSingleSimulation) {
  struct Decl {
    net::NodeId a, b;
    Time ab, ba;
  };
  const std::vector<Decl> decls = {
      {0, 1, kDelay, kDelay},
      {1, 2, Time::microseconds(50), Time::microseconds(50)},
      {2, 3, Time::milliseconds(1), Time::milliseconds(3)},
      {1, 3, Time::microseconds(500), kDelay},  // one direction sub-floor
  };
  auto spec = [](Time delay) {
    net::LinkSpec s = long_link();
    s.delay = delay;
    return s;
  };

  Simulation sim;
  net::Topology single(sim);
  for (int i = 0; i < 4; ++i) single.add_node("n" + std::to_string(i));
  for (const Decl& d : decls)
    single.connect(single.node(d.a), single.node(d.b), spec(d.ab), spec(d.ba));

  ShardedEngine engine(ShardedEngine::Config{});
  for (int i = 0; i < 4; ++i) engine.add_node("n" + std::to_string(i));
  for (const Decl& d : decls) engine.connect(d.a, d.b, spec(d.ab), spec(d.ba));
  engine.build();
  net::Topology& sharded = engine.topology();

  ASSERT_EQ(sharded.node_count(), single.node_count());
  for (net::NodeId n = 0; n < single.node_count(); ++n) {
    const net::Node& x = single.node(n);
    const net::Node& y = sharded.node(n);
    ASSERT_EQ(y.port_count(), x.port_count()) << "node " << n;
    for (std::size_t p = 0; p < x.port_count(); ++p) {
      EXPECT_EQ(y.port_link(p)->name(), x.port_link(p)->name());
      EXPECT_EQ(y.port_link(p)->prop_delay(), x.port_link(p)->prop_delay());
    }
  }

  EXPECT_TRUE(single.crossings().empty());
  // Declarations 0 and 2 clear the floor in both directions.
  const auto& crossings = sharded.crossings();
  ASSERT_EQ(crossings.size(), 4u);
  EXPECT_EQ(crossings[0].link, sharded.link(0, true));
  EXPECT_EQ(crossings[1].link, sharded.link(0, false));
  EXPECT_EQ(crossings[2].link, sharded.link(2, true));
  EXPECT_EQ(crossings[3].link, sharded.link(2, false));
  EXPECT_EQ(sharded.inbound(0).size(), 4u);
}

TEST(ShardedEngine, TopologyRejectsBadShards) {
  Simulation s0, s1;
  net::Topology topo({&s0, &s1}, Time::milliseconds(1));
  EXPECT_THROW(topo.add_node("x", 2), std::invalid_argument);
  net::Node& a = topo.add_node("a", 0);
  net::Node& b = topo.add_node("b", 1);
  net::LinkSpec lan = long_link();
  lan.delay = Time::microseconds(50);
  EXPECT_THROW(topo.connect(a, b, lan, lan), std::invalid_argument);
  // A link that clears the floor may join the two shards.
  topo.connect(a, b, long_link(), long_link());
  ASSERT_EQ(topo.crossings().size(), 2u);
  EXPECT_EQ(topo.inbound(1), std::vector<std::uint32_t>{0});
  EXPECT_EQ(topo.inbound(0), std::vector<std::uint32_t>{1});
}

TEST(ShardedEngine, ValidatesConfiguration) {
  ShardedEngine::Config no_shards;
  no_shards.shards = 0;
  EXPECT_THROW(ShardedEngine{no_shards}, std::invalid_argument);
  ShardedEngine::Config no_floor;
  no_floor.lookahead_floor = Time::zero();
  EXPECT_THROW(ShardedEngine{no_floor}, std::invalid_argument);

  ShardedEngine::Config cfg;
  cfg.shards = 2;
  ShardedEngine engine(std::move(cfg));
  const net::NodeId a = engine.add_node("a");
  const net::NodeId b = engine.add_node("b");
  engine.connect(a, b, long_link(), long_link());
  EXPECT_THROW(engine.run_until(Time::seconds(1)), std::logic_error);
  engine.build();
  EXPECT_THROW(engine.build(), std::logic_error);
  EXPECT_THROW(engine.add_node("late"), std::logic_error);
  EXPECT_EQ(engine.quantum(), kDelay);
  EXPECT_EQ(engine.shard_count(), 2u);
}

TEST(ShardedEngine, ShortLinkClusterNeverSplits) {
  ShardedEngine::Config cfg;
  cfg.shards = 4;
  ShardedEngine engine(std::move(cfg));
  const net::NodeId a = engine.add_node("a");
  const net::NodeId b = engine.add_node("b");
  net::LinkSpec lan = long_link();
  lan.delay = Time::microseconds(50);  // below the floor: ineligible
  engine.connect(a, b, lan, lan);
  engine.build();
  EXPECT_EQ(engine.shard_count(), 1u);  // one cluster, however many requested
  EXPECT_EQ(engine.quantum(), Time::max());

  // Pinning the two halves of a short-link cluster apart is a contract
  // violation the partitioner must reject.
  ShardedEngine::Config conflicted;
  conflicted.shards = 2;
  conflicted.pin = {0, 1};
  ShardedEngine bad(std::move(conflicted));
  const net::NodeId x = bad.add_node("x");
  const net::NodeId y = bad.add_node("y");
  bad.connect(x, y, lan, lan);
  EXPECT_THROW(bad.build(), std::invalid_argument);
}


// Connection churn through one hub at flow counts a tier-1 run affords:
// four clients on 1 ms spokes (every spoke clears the floor, so each
// client is its own cluster) open 48 flows each in on_connected chains,
// hold them idle, close them all, drop their references and reopen a
// few. Every node counter and the combined event count must match the
// single-shard run; idle flows never attach a cold block, nothing is
// blackholed, and the reopened flows reuse the server's freed arena
// slots instead of growing its slab. The 192 first-wave flows fill the
// server arena's first two slabs (64 + 128 slots) exactly, so a reopen
// that did not reuse a freed slot would have to grow a third.
TEST(ShardedEngine, ConnectionChurnAcrossShardsInvariant) {
  constexpr unsigned kClients = 4;
  constexpr unsigned kFlowsPerClient = 48;
  constexpr unsigned kChainsPerClient = 4;
  constexpr unsigned kReopenPerClient = 4;
  constexpr Time kSteady = Time::milliseconds(500);
  constexpr Time kClose = Time::milliseconds(600);
  constexpr Time kClear = Time::milliseconds(1600);
  constexpr Time kReopen = Time::milliseconds(1800);
  constexpr Time kEnd = Time::milliseconds(2300);

  // Each client's state is touched only by its own node's shard.
  struct Client {
    net::Node* node = nullptr;
    net::NodeId server = 0;
    std::vector<std::shared_ptr<tcp::TcpSocket>> socks;
    unsigned launched = 0;
  };
  struct Outcome {
    net::Node::Stats steady;
    net::Node::Stats end;
    std::uint64_t fired = 0;
    std::uint64_t server_slab_growth = 0;  ///< steady state -> end
    unsigned established_at_end = 0;
  };
  struct Chain {
    static void open_next(Client& c) {
      if (c.launched == kFlowsPerClient) return;
      ++c.launched;
      tcp::TcpSocket::Callbacks cb;
      cb.on_connected = [&c] { open_next(c); };
      c.socks.push_back(tcp::TcpSocket::connect(*c.node, c.server, kPort, {},
                                                std::move(cb)));
    }
  };

  auto run = [&](unsigned shards, std::vector<std::int32_t> pins) {
    ShardedEngine::Config cfg;
    cfg.shards = shards;
    cfg.pin = std::move(pins);
    ShardedEngine engine(std::move(cfg));
    net::LinkSpec spoke;
    spoke.rate_bps = 1e9;
    spoke.delay = Time::milliseconds(1);
    spoke.buffer_packets = 1024;
    const net::NodeId srv = engine.add_node("srv");
    std::vector<net::NodeId> cli;
    for (unsigned c = 0; c < kClients; ++c) {
      cli.push_back(engine.add_node("c" + std::to_string(c)));
      engine.connect(srv, cli.back(), spoke, spoke);
    }
    engine.build();

    // Touched only by the server's shard.
    std::vector<std::shared_ptr<tcp::TcpSocket>> accepted;
    tcp::TcpServer server(
        engine.node(srv), kPort, {},
        [&accepted](std::shared_ptr<tcp::TcpSocket> sock) {
          // Answer the client's FIN so teardown completes and the slot
          // returns to the arena mid-run; `accepted` outlives the run.
          tcp::TcpSocket* raw = sock.get();
          tcp::TcpSocket::Callbacks cb;
          cb.on_remote_close = [raw] { raw->close(); };
          raw->set_callbacks(std::move(cb));
          accepted.push_back(std::move(sock));
        });

    std::vector<Client> clients(kClients);
    for (unsigned c = 0; c < kClients; ++c) {
      Client& client = clients[c];
      client.node = &engine.node(cli[c]);
      client.server = srv;
      for (unsigned k = 0; k < kChainsPerClient; ++k) {
        engine.sim_of(cli[c]).at(Time::microseconds(10 + 17 * c + 113 * k),
                                 [&client] { Chain::open_next(client); });
      }
    }

    Outcome out;
    engine.run_until(kSteady);
    out.steady = engine.node_stats();
    const std::uint64_t slabs_steady =
        engine.node(srv).flow_arena().stats().slab_growths;

    // Staggered closes, then drop every app reference, then reopen.
    for (unsigned c = 0; c < kClients; ++c) {
      Client& client = clients[c];
      Simulation& sim = engine.sim_of(cli[c]);
      for (std::size_t j = 0; j < client.socks.size(); ++j) {
        sim.at(kClose + Time::microseconds(50.0 * j + c),
               [s = client.socks[j]] { s->close(); });
      }
      sim.at(kClear, [&client] { client.socks.clear(); });
      for (unsigned k = 0; k < kReopenPerClient; ++k) {
        sim.at(kReopen + Time::microseconds(17 * c + 113 * k), [&client] {
          client.socks.push_back(
              tcp::TcpSocket::connect(*client.node, client.server, kPort));
        });
      }
    }
    engine.sim_of(srv).at(kClear, [&accepted] { accepted.clear(); });
    engine.run_until(kEnd);
    out.end = engine.node_stats();
    out.fired = engine.scheduler_stats().fired;
    out.server_slab_growth =
        engine.node(srv).flow_arena().stats().slab_growths - slabs_steady;
    for (const Client& c : clients) {
      for (const auto& sock : c.socks) {
        if (sock->established()) ++out.established_at_end;
      }
    }
    return out;
  };
  auto fields = [](const net::Node::Stats& s) {
    return std::vector<std::uint64_t>{
        s.delivered,
        s.undelivered,
        s.stray_late,
        s.unrouted,
        s.binds,
        s.unbinds,
        s.demux_rehashes,
        s.flows_opened,
        s.flows_closed,
        s.flow_peak_live,
        s.flow_hot_bytes,
        s.flow_cold_allocs,
        s.flow_cold_frees,
        s.flow_cold_peak_live,
        s.flow_cold_bytes,
    };
  };

  const Outcome one = run(1, {});
  // The whole first wave was open and idle at steady state: client and
  // server side of every flow, all live at once.
  EXPECT_EQ(one.steady.flows_opened, 2u * kClients * kFlowsPerClient);
  EXPECT_EQ(one.steady.flow_peak_live, 2u * kClients * kFlowsPerClient);
  // Only the reopened flows are live at the end.
  EXPECT_EQ(one.end.flows_closed, 2u * kClients * kFlowsPerClient);
  EXPECT_EQ(one.established_at_end, kClients * kReopenPerClient);

  const std::vector<std::pair<unsigned, std::vector<std::int32_t>>> runs = {
      {1, {}}, {2, {}}, {3, {0, 1, 2, 1, 2}}, {4, {}}};
  for (const auto& [shards, pins] : runs) {
    SCOPED_TRACE(shards);
    const Outcome o = shards == 1 ? one : run(shards, pins);
    EXPECT_EQ(fields(o.end), fields(one.end));
    EXPECT_EQ(o.fired, one.fired);
    EXPECT_GT(o.end.flow_hot_bytes, 0u);
    EXPECT_EQ(o.end.flow_cold_allocs, 0u);
    EXPECT_EQ(o.end.undelivered, 0u);
    EXPECT_EQ(o.end.unrouted, 0u);
    EXPECT_EQ(o.server_slab_growth, 0u);
  }
}

}  // namespace
}  // namespace qoesim::core
