// Run-time gate for the contract "the per-packet path does not allocate".
//
// A loss-free dumbbell -- four hosts -> router -> server, 16 long-lived
// TCP uploads, a BinaryTracer on both bottleneck directions -- warms up
// until every pool, ring, heap and slab has reached its peak size. Over
// the next 10 simulated seconds (>= 400k fired events) the counting
// allocator must not see a single operator new. One case per queue
// discipline runs on a plain Simulation; one more runs the same graph on
// ShardedEngine at one shard, where the bottleneck is a mailbox crossing
// (push on transmit, barrier drain on the far side). Together they cover
// the scheduler, links, queues, node demux, the TCP send/ACK/pacing path,
// the binary tracer and the mailbox.
//
// Not covered, by construction: flow set-up (listener accept, arena
// slots), loss recovery (the receiver's out-of-order IntervalSet spills
// to the heap on every loss episode) and pool growth that is still under
// way. The 16 KiB receive window keeps the aggregate window below the
// bottleneck's BDP plus buffer, so nothing is dropped; with the 4 MiB
// default the same dumbbell loses packets and allocates. The dropping
// queue path is covered by test_link's standing-queue allocation case.
//
// DISABLED_PlantedAllocationFails adds one allocation per bottleneck
// packet to the DropTail case; ctest runs it on its own and expects it to
// fail (alloc_gate_planted_allocation_fails, WILL_FAIL), proving the gate
// bites.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "core/sharded_engine.hpp"
#include "net/topology.hpp"
#include "net/trace_binary.hpp"
#include "tcp/tcp_server.hpp"
#include "tcp/tcp_socket.hpp"

namespace qoesim {
namespace {

constexpr const char* kHostNames[] = {"h0", "h1", "h2", "h3"};
constexpr std::uint32_t kHosts = std::size(kHostNames);
constexpr std::uint32_t kFlowsPerHost = 4;
constexpr std::uint32_t kPort = 80;
constexpr Time kWarmup = Time::seconds(5);
constexpr Time kWindow = Time::seconds(10);
constexpr std::uint64_t kMinEvents = 400'000;

// Node ids and link indices follow declaration order: hosts 0..3, then
// the router, then the server; the bottleneck is the last connect().
constexpr net::NodeId kRouter = kHosts;
constexpr net::NodeId kServer = kHosts + 1;
constexpr std::size_t kBottleneck = kHosts;

// Below ShardedEngine's default 1 ms lookahead floor, so only the
// bottleneck becomes a mailbox crossing.
net::LinkSpec access_link() {
  net::LinkSpec s;
  s.rate_bps = 1e9;
  s.delay = Time::microseconds(100);
  s.buffer_packets = 1000;
  return s;
}

net::LinkSpec bottleneck_link(net::QueueKind kind) {
  net::LinkSpec s;
  s.rate_bps = 100e6;
  s.delay = Time::milliseconds(10);
  s.buffer_packets = 200;
  s.queue = kind;
  return s;
}

/// Declare the dumbbell through either builder's add_node/connect.
template <typename AddNode, typename Connect>
void declare_dumbbell(net::QueueKind kind, AddNode add_node, Connect connect) {
  for (const char* host : kHostNames) add_node(host);
  add_node("router");
  add_node("server");
  for (net::NodeId h = 0; h < kHosts; ++h)
    connect(h, kRouter, access_link(), access_link());
  connect(kRouter, kServer, bottleneck_link(kind), bottleneck_link(kind));
}

/// 16 uploads that outlast the run, window-limited so that the
/// bottleneck queue stays short and never drops.
class Uploads {
 public:
  template <typename NodeOf>
  explicit Uploads(NodeOf node_of)
      : server_(node_of(kServer), kPort, config(),
                [this](std::shared_ptr<tcp::TcpSocket> sock) {
                  accepted_.push_back(std::move(sock));
                }) {
    for (net::NodeId h = 0; h < kHosts; ++h) {
      for (std::uint32_t f = 0; f < kFlowsPerHost; ++f) {
        auto sock = tcp::TcpSocket::connect(node_of(h), kServer, kPort,
                                            config());
        sock->send(std::uint64_t{1} << 40);
        clients_.push_back(std::move(sock));
      }
    }
  }

  std::size_t accepted() const { return accepted_.size(); }

 private:
  static tcp::TcpConfig config() {
    tcp::TcpConfig cfg;
    cfg.receive_window = 16 * 1024;
    return cfg;
  }

  std::vector<std::shared_ptr<tcp::TcpSocket>> clients_;
  std::vector<std::shared_ptr<tcp::TcpSocket>> accepted_;
  tcp::TcpServer server_;
};

/// Both bottleneck directions, traced. The run-end checks are the
/// preconditions the gate relies on: nothing dropped, every record kept.
class Bottleneck {
 public:
  Bottleneck(net::Link* fwd, net::Link* bwd) : fwd_(fwd), bwd_(bwd) {
    tracer_.observe_link(*fwd_, 0);
    tracer_.observe_link(*bwd_, 1);
  }
  Bottleneck(const Bottleneck&) = delete;
  Bottleneck& operator=(const Bottleneck&) = delete;

  net::Link& forward() { return *fwd_; }

  void expect_loss_free_and_traced() const {
    EXPECT_EQ(fwd_->queue().stats().dropped, 0u) << "the run must be loss-free";
    EXPECT_EQ(bwd_->queue().stats().dropped, 0u) << "the run must be loss-free";
    EXPECT_GT(tracer_.records(), 0u);
    EXPECT_EQ(tracer_.overflow(), 0u);
  }

 private:
  net::Link* fwd_;
  net::Link* bwd_;
  net::BinaryTracer tracer_;
};

struct Window {
  std::uint64_t allocations = 0;
  std::uint64_t events = 0;
};

/// Warm up, then count allocations and fired events over the window.
template <typename RunUntil, typename Fired>
Window measure(RunUntil run_until, Fired fired) {
  run_until(kWarmup);
  const std::uint64_t events_before = fired();
  const std::uint64_t allocs_before = testutil::allocations();
  run_until(kWarmup + kWindow);
  Window w;
  w.allocations = testutil::allocations() - allocs_before;
  w.events = fired() - events_before;
  return w;
}

/// The dumbbell on one Simulation. `plant` adds one heap allocation per
/// packet sent into the bottleneck (the gate's negative control).
Window run_on_simulation(net::QueueKind kind, bool plant) {
  Simulation sim;
  net::Topology topo(sim);
  declare_dumbbell(
      kind, [&](const std::string& name) { topo.add_node(name); },
      [&](net::NodeId a, net::NodeId b, net::LinkSpec ab, net::LinkSpec ba) {
        topo.connect(topo.node(a), topo.node(b), ab, ba);
      });
  topo.compute_routes();
  Bottleneck neck(topo.link(kBottleneck, true), topo.link(kBottleneck, false));
  std::unique_ptr<net::Packet> planted;
  if (plant) {
    neck.forward().add_tx_observer([&planted](const net::Packet& p, Time) {
      planted = std::make_unique<net::Packet>(p);
    });
  }
  Uploads uploads([&](net::NodeId id) -> net::Node& { return topo.node(id); });

  const Window w = measure([&](Time t) { sim.run_until(t); },
                           [&] { return sim.scheduler().stats().fired; });
  EXPECT_EQ(uploads.accepted(), kHosts * kFlowsPerHost);
  neck.expect_loss_free_and_traced();
  return w;
}

class AllocGate : public ::testing::TestWithParam<net::QueueKind> {};

TEST_P(AllocGate, LossFreeDumbbellAllocatesNothing) {
  const Window w = run_on_simulation(GetParam(), /*plant=*/false);
  EXPECT_GE(w.events, kMinEvents);
  EXPECT_EQ(w.allocations, 0u)
      << "the per-packet path allocated over " << w.events << " events";
}

INSTANTIATE_TEST_SUITE_P(
    Disciplines, AllocGate,
    ::testing::Values(net::QueueKind::kDropTail, net::QueueKind::kRed,
                      net::QueueKind::kCoDel, net::QueueKind::kPriority),
    [](const ::testing::TestParamInfo<net::QueueKind>& info) {
      return std::string(net::to_string(info.param));
    });

// ShardedEngine::run_until starts shard_count - 1 worker threads per call,
// and starting a std::thread allocates, so the gate stays at one shard:
// the epoch loop and the mailbox push/drain path are the same, inline.
TEST(AllocGateEngine, OneShardMailboxCrossingAllocatesNothing) {
  core::ShardedEngine::Config cfg;
  cfg.shards = 1;
  core::ShardedEngine engine(std::move(cfg));
  declare_dumbbell(
      net::QueueKind::kDropTail,
      [&](const std::string& name) { engine.add_node(name); },
      [&](net::NodeId a, net::NodeId b, net::LinkSpec ab, net::LinkSpec ba) {
        engine.connect(a, b, ab, ba);
      });
  engine.build();
  ASSERT_EQ(engine.shard_count(), 1u);
  ASSERT_EQ(engine.topology().crossings().size(), 2u)
      << "both bottleneck directions, and nothing else, are mailboxed";
  Bottleneck neck(engine.link(kBottleneck, true),
                  engine.link(kBottleneck, false));
  Uploads uploads(
      [&](net::NodeId id) -> net::Node& { return engine.node(id); });

  const Window w = measure([&](Time t) { engine.run_until(t); },
                           [&] { return engine.scheduler_stats().fired; });
  EXPECT_EQ(uploads.accepted(), kHosts * kFlowsPerHost);
  neck.expect_loss_free_and_traced();
  EXPECT_GE(w.events, kMinEvents);
  EXPECT_EQ(w.allocations, 0u)
      << "the mailbox path allocated over " << w.events << " events";
}

TEST(AllocGatePlanted, DISABLED_PlantedAllocationFails) {
  const Window w = run_on_simulation(net::QueueKind::kDropTail, /*plant=*/true);
  EXPECT_GE(w.events, kMinEvents);
  EXPECT_EQ(w.allocations, 0u)
      << "the planted allocation fired " << w.allocations << " times";
}

}  // namespace
}  // namespace qoesim
