// Model tests for the conservative-PDES topology partitioner
// (core/partition). The partitioner's contract is load-bearing for the
// --shards determinism gate: short-edge clusters are atomic, the quantum
// is a property of the topology (all eligible edges) rather than of one
// particular cut, and the whole computation is a pure function of its
// input. The randomized test below checks those invariants over a few
// hundred arbitrary graphs instead of hand-picked examples.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/partition.hpp"
#include "core/scenario.hpp"

namespace qoesim::core {
namespace {

constexpr Time kFloor = Time::milliseconds(1);
constexpr Time kShort = Time::microseconds(100);
constexpr Time kLong = Time::milliseconds(10);

PartitionGraph pods(std::size_t pod_count, std::size_t pod_size) {
  // `pod_count` cliques of `pod_size` nodes on short edges, joined in a
  // ring by long edges between the pods' first nodes.
  PartitionGraph g;
  g.node_count = pod_count * pod_size;
  for (std::size_t p = 0; p < pod_count; ++p) {
    const auto base = static_cast<net::NodeId>(p * pod_size);
    for (std::size_t i = 1; i < pod_size; ++i)
      g.edges.push_back({base, static_cast<net::NodeId>(base + i), kShort});
    const auto next = static_cast<net::NodeId>(((p + 1) % pod_count) * pod_size);
    g.edges.push_back({base, next, kLong});
  }
  return g;
}

TEST(Partition, SingleShardTrivial) {
  const ShardPlan plan = partition(pods(4, 3), 1, kFloor);
  EXPECT_EQ(plan.shard_count, 1u);
  EXPECT_EQ(plan.shard_of, std::vector<std::uint32_t>(12, 0));
  EXPECT_EQ(plan.cluster_count, 4u);
  // The quantum is topology-derived even when nothing is cut.
  EXPECT_EQ(plan.quantum, kLong);
}

TEST(Partition, PodsSplitEvenly) {
  const ShardPlan plan = partition(pods(8, 3), 4, kFloor);
  EXPECT_EQ(plan.shard_count, 4u);
  EXPECT_EQ(plan.cluster_count, 8u);
  std::vector<std::size_t> load(4, 0);
  for (const std::uint32_t s : plan.shard_of) load[s]++;
  for (const std::size_t l : load) EXPECT_EQ(l, 6u);  // 2 pods x 3 nodes
}

TEST(Partition, NeverSplitsACluster) {
  const ShardPlan plan = partition(pods(4, 5), 3, kFloor);
  for (std::size_t i = 0; i < plan.shard_of.size(); ++i) {
    for (std::size_t j = 0; j < plan.shard_of.size(); ++j) {
      if (plan.cluster_of[i] == plan.cluster_of[j]) {
        EXPECT_EQ(plan.shard_of[i], plan.shard_of[j]);
      }
    }
  }
}

TEST(Partition, QuantumIgnoresAssignment) {
  // Two quanta candidates: a 10 ms ring edge and one 2 ms shortcut. Even
  // when the 2 ms edge ends up inside a shard, it is eligible, so it must
  // set the quantum -- otherwise different shard counts would run
  // different barrier schedules.
  PartitionGraph g = pods(4, 2);
  g.edges.push_back({0, 2, Time::milliseconds(2)});
  for (unsigned shards : {1u, 2u, 4u}) {
    const ShardPlan plan = partition(g, shards, kFloor);
    EXPECT_EQ(plan.quantum, Time::milliseconds(2)) << shards << " shards";
  }
}

TEST(Partition, PinsForceAssignment) {
  std::vector<std::int32_t> pins(8, kUnpinned);
  pins[0] = 3;  // pod 0 (nodes 0,1) onto shard 3
  pins[3] = 0;  // pod 1 (nodes 2,3) onto shard 0, via its second node
  const ShardPlan plan = partition(pods(4, 2), 4, kFloor, pins);
  EXPECT_EQ(plan.shard_of[0], 3u);
  EXPECT_EQ(plan.shard_of[1], 3u);
  EXPECT_EQ(plan.shard_of[2], 0u);
  EXPECT_EQ(plan.shard_of[3], 0u);
}

TEST(Partition, ConflictingPinsThrow) {
  std::vector<std::int32_t> pins(8, kUnpinned);
  pins[0] = 0;
  pins[1] = 1;  // same cluster as node 0
  EXPECT_THROW(partition(pods(4, 2), 4, kFloor, pins), std::invalid_argument);
}

TEST(Partition, MalformedInputThrows) {
  PartitionGraph g = pods(2, 2);
  EXPECT_THROW(partition(g, 0, kFloor), std::invalid_argument);
  g.edges.push_back({99, 0, kLong});
  EXPECT_THROW(partition(g, 2, kFloor), std::invalid_argument);
  g.edges.pop_back();
  std::vector<std::int32_t> pins(4, kUnpinned);
  pins[0] = 7;  // >= requested shards
  EXPECT_THROW(partition(g, 2, kFloor, pins), std::invalid_argument);
}

TEST(Partition, WeightsSteerBalance) {
  // One heavy isolated node vs. three light ones on 2 shards: LPT puts
  // the heavy node alone.
  PartitionGraph g;
  g.node_count = 4;
  g.node_weight = {9.0, 1.0, 1.0, 1.0};
  const ShardPlan plan = partition(g, 2, kFloor);
  EXPECT_EQ(plan.shard_count, 2u);
  const std::uint32_t heavy = plan.shard_of[0];
  for (std::size_t i = 1; i < 4; ++i) EXPECT_NE(plan.shard_of[i], heavy);
}

// The paper's two dumbbells (Fig. 3a/3b), declared from the
// AccessParams/BackboneParams defaults in core/testbed.cpp construction
// order. Neither is one short-link cluster: were they built through the
// PDES engine, both would split. Figure cells run on one Simulation
// because ExperimentRunner never builds them through ShardedEngine.
TEST(Partition, PaperTestbedsAreSeveralClusters) {
  const AccessParams access;
  PartitionGraph a;
  a.node_count = 6;  // dslam, home-router, server0, client0, server1, client1
  a.edges.push_back({0, 1, Time::microseconds(100)});  // DSL line
  for (net::NodeId i = 0; i < 2; ++i) {
    const auto server = static_cast<net::NodeId>(2 + 2 * i);
    a.edges.push_back({server, 0, access.server_side_delay});
    a.edges.push_back({1, static_cast<net::NodeId>(server + 1),
                       access.client_side_delay});
  }
  const ShardPlan access_plan = partition(a, 4, kFloor);
  EXPECT_EQ(access_plan.cluster_count, 5u);
  EXPECT_EQ(access_plan.quantum, Time::milliseconds(5));
  EXPECT_EQ(access_plan.shard_count, 4u);

  const BackboneParams backbone;
  PartitionGraph b;
  b.node_count = 2 + 2 * backbone.hosts_per_side;  // gsr-left, gsr-right, ...
  b.edges.push_back({0, 1, backbone.one_way_delay});  // OC3
  for (std::size_t i = 0; i < backbone.hosts_per_side; ++i) {
    const auto server = static_cast<net::NodeId>(2 + 2 * i);
    b.edges.push_back({server, 0, Time::microseconds(50)});
    b.edges.push_back({1, static_cast<net::NodeId>(server + 1),
                       Time::microseconds(50)});
  }
  const ShardPlan backbone_plan = partition(b, 4, kFloor);
  EXPECT_EQ(backbone_plan.cluster_count, 2u);
  EXPECT_EQ(backbone_plan.quantum, Time::milliseconds(30));
  EXPECT_EQ(backbone_plan.shard_count, 2u);
}

// Randomized model test: arbitrary graphs, random weights, pins and
// floors. Checks every documented invariant on each sample.
TEST(Partition, RandomizedInvariants) {
  std::mt19937_64 rng(0xC0FFEEu);  // fixed seed: reproducible failures
  for (int iter = 0; iter < 300; ++iter) {
    PartitionGraph g;
    g.node_count = 1 + rng() % 24;
    g.node_weight.resize(g.node_count);
    for (double& w : g.node_weight) w = 1.0 + static_cast<double>(rng() % 8);
    const std::size_t edge_count = rng() % (2 * g.node_count);
    for (std::size_t e = 0; e < edge_count; ++e) {
      const auto a = static_cast<net::NodeId>(rng() % g.node_count);
      const auto b = static_cast<net::NodeId>(rng() % g.node_count);
      // Delays straddle the floor so both edge classes appear.
      g.edges.push_back({a, b, Time::microseconds(
                                   static_cast<double>(10 + rng() % 3000))});
    }
    const unsigned requested = 1 + rng() % 8;

    const ShardPlan plan = partition(g, requested, kFloor);

    // (a) Every node assigned to a populated shard.
    ASSERT_EQ(plan.shard_of.size(), g.node_count);
    ASSERT_EQ(plan.cluster_of.size(), g.node_count);
    EXPECT_GE(plan.shard_count, 1u);
    EXPECT_LE(plan.shard_count, requested);
    for (const std::uint32_t s : plan.shard_of) EXPECT_LT(s, plan.shard_count);

    // (b) Short edges never cross shards; clusters are atomic.
    Time min_eligible = Time::max();
    for (const PartitionGraph::Edge& e : g.edges) {
      if (e.delay < kFloor) {
        EXPECT_EQ(plan.cluster_of[e.a], plan.cluster_of[e.b]);
        EXPECT_EQ(plan.shard_of[e.a], plan.shard_of[e.b]);
      } else {
        min_eligible = std::min(min_eligible, e.delay);
      }
      // (c) Anything actually cut must clear the quantum.
      if (plan.shard_of[e.a] != plan.shard_of[e.b]) {
        EXPECT_GE(e.delay, plan.quantum);
      }
    }

    // (d) Quantum = min over eligible edges, independent of the cut.
    EXPECT_EQ(plan.quantum, min_eligible);

    // (e) Pure function: same input, same plan.
    const ShardPlan again = partition(g, requested, kFloor);
    EXPECT_EQ(again.shard_of, plan.shard_of);
    EXPECT_EQ(again.quantum, plan.quantum);

    // (f) Pinning one node per cluster to its chosen shard reproduces the
    // plan exactly (pins are honored, and honoring them is stable).
    std::vector<std::int32_t> pins(g.node_count, kUnpinned);
    std::vector<bool> seen(plan.cluster_count, false);
    for (std::size_t i = 0; i < g.node_count; ++i) {
      if (!seen[plan.cluster_of[i]] && rng() % 2 == 0) {
        seen[plan.cluster_of[i]] = true;
        pins[i] = static_cast<std::int32_t>(plan.shard_of[i]);
      }
    }
    const ShardPlan pinned = partition(g, requested, kFloor, pins);
    for (std::size_t i = 0; i < g.node_count; ++i) {
      if (pins[i] != kUnpinned) {
        EXPECT_EQ(pinned.shard_of[i], static_cast<std::uint32_t>(pins[i]));
      }
    }
  }
}

}  // namespace
}  // namespace qoesim::core
