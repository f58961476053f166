// qoesim -- topology builder.
//
// Owns nodes and links, wires link sinks to peer nodes, and computes static
// shortest-path routes (BFS on hop count, deterministic tie-breaking).
// The experiment testbeds (core/testbed.cpp) build on one Simulation; the
// conservative-PDES engine (core/sharded_engine.cpp) builds the same way
// across one Simulation per shard, with mailbox delivery on every link
// that clears its lookahead floor. Routing is computed globally (node ids
// are global), so a packet's path is independent of the shard assignment.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/mailbox.hpp"
#include "net/node.hpp"
#include "net/queue.hpp"
#include "sim/simulation.hpp"

namespace qoesim::net {

/// One direction of a connection.
struct LinkSpec {
  double rate_bps = 1e9;
  Time delay = Time::zero();
  std::size_t buffer_packets = 1000;
  QueueKind queue = QueueKind::kDropTail;
  /// Enable ECN CE-marking on the queue discipline (AQM schemes only;
  /// see QueueDiscipline::set_ecn_marking).
  bool ecn = false;
  std::string name;  ///< optional; auto-derived if empty
};

/// Construction order is the determinism anchor: node ids, link indices
/// (and with them per-link queue seeds) and crossing channels all follow
/// the order of add_node()/connect() calls, at every shard count.
class Topology {
 public:
  /// One mailbox link. Its index into crossings() is the global merge
  /// tie-break key (the channel); inbound() groups the indices by
  /// destination shard for the barrier drain.
  struct Crossing {
    std::unique_ptr<ShardMailbox> outbox;
    std::unique_ptr<MailboxInbox> inbox;
    Link* link = nullptr;
  };

  /// Single-simulation build. The floor is Time::max(), so no link gets a
  /// mailbox. `node_stats` (optional) is the accumulator every node
  /// created by this topology folds its lifetime counters into on
  /// destruction; benches pass one down (via core::StatsRegistry) so the
  /// harness can assert the zero-blackhole invariant across a whole sweep.
  explicit Topology(Simulation& sim, Node::StatsFold* node_stats = nullptr)
      : Topology({&sim}, Time::max(), node_stats) {}

  /// Sharded build: `sims` has one Simulation per shard (all sharing the
  /// master seed, so rng(label) streams are partition-invariant). Every
  /// link whose smaller direction delay is >= `lookahead_floor` gets a
  /// ShardMailbox on its tx side paired with a MailboxInbox on its
  /// destination shard, whether or not its endpoints sit on different
  /// shards -- decided by delay alone, so the event schedule does not
  /// depend on the shard count.
  Topology(std::vector<Simulation*> sims, Time lookahead_floor,
           Node::StatsFold* node_stats = nullptr);

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// Throws std::invalid_argument if `shard` has no Simulation.
  Node& add_node(const std::string& name, std::uint32_t shard = 0);

  struct LinkPair {
    Link* forward = nullptr;   ///< a -> b
    Link* backward = nullptr;  ///< b -> a
  };

  /// Create a duplex connection between two nodes. Throws
  /// std::invalid_argument if a link below the lookahead floor would join
  /// two shards (partition bug or hand-rolled shard assignment).
  LinkPair connect(Node& a, Node& b, LinkSpec a_to_b, LinkSpec b_to_a);

  /// Compute next-hop tables for all node pairs (call after wiring).
  void compute_routes();

  Node& node(NodeId id) { return *nodes_.at(id); }
  const Node& node(NodeId id) const { return *nodes_.at(id); }
  std::size_t node_count() const { return nodes_.size(); }

  /// The two directed links of the `i`-th connect() call.
  Link* link(std::size_t i, bool forward) {
    return links_.at(i * 2 + (forward ? 0 : 1)).get();
  }

  const std::vector<Crossing>& crossings() const { return crossings_; }
  /// Crossing indices whose destination is shard `s`, in channel order.
  const std::vector<std::uint32_t>& inbound(std::uint32_t s) const {
    return inbound_.at(s);
  }

  /// Sum of all live nodes' forwarding/demux counters. A healthy topology
  /// finishes a run with undelivered == unrouted == 0; anything else means
  /// packets were silently blackholed (misroute or missing handler).
  Node::Stats node_stats() const;

 private:
  Link* make_link(Node& from, Node& to, const LinkSpec& spec, bool mailboxed);

  std::vector<Simulation*> sims_;
  Time lookahead_floor_;
  Node::StatsFold* node_stats_ = nullptr;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::uint32_t> shard_of_;  ///< node id -> shard
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<Crossing> crossings_;
  std::vector<std::vector<std::uint32_t>> inbound_;
  // adjacency[from] = list of (neighbor, port index on `from`)
  std::vector<std::vector<std::pair<NodeId, std::size_t>>> adjacency_;
};

/// qoebench/harness/workloads.cpp names the PDES engine's topology by this.
using ShardedTopology = Topology;

}  // namespace qoesim::net
