#include "net/topology.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <stdexcept>

namespace qoesim::net {

Topology::Topology(std::vector<Simulation*> sims, Time lookahead_floor,
                   Node::StatsFold* node_stats)
    : sims_(std::move(sims)),
      lookahead_floor_(lookahead_floor),
      node_stats_(node_stats),
      inbound_(sims_.size()) {}

Node& Topology::add_node(const std::string& name, std::uint32_t shard) {
  if (shard >= sims_.size()) {
    throw std::invalid_argument("Topology: shard id out of range");
  }
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(*sims_[shard], id, name));
  nodes_.back()->set_stats_fold(node_stats_);
  shard_of_.push_back(shard);
  adjacency_.emplace_back();
  return *nodes_.back();
}

Link* Topology::make_link(Node& from, Node& to, const LinkSpec& spec,
                          bool mailboxed) {
  std::string name =
      spec.name.empty() ? from.name() + "->" + to.name() : spec.name;
  // Per-link queue seed derived from the scenario seed: RED instances in
  // different sweep cells (and on different links of one topology) must
  // not share one drop lottery. The link index salts duplicate names, and
  // is global, so link k draws the same stream at every shard count (all
  // shard sims share the master seed).
  Simulation& sim = from.sim();
  const std::uint64_t queue_seed = RandomStream::derive_seed(
      sim.seed(), "queue/" + std::to_string(links_.size()) + "/" + name);
  auto queue = make_queue(spec.queue, spec.buffer_packets, queue_seed);
  queue->set_ecn_marking(spec.ecn);
  links_.push_back(std::make_unique<Link>(sim, std::move(name), spec.rate_bps,
                                          spec.delay, std::move(queue)));
  Link* link = links_.back().get();
  Node* dest = &to;
  link->set_sink([dest](Packet&& p) { dest->receive(std::move(p)); });
  const std::size_t port = from.add_port(link);
  adjacency_[from.id()].emplace_back(to.id(), port);

  if (mailboxed) {
    const std::uint32_t dst_shard = shard_of_[to.id()];
    Crossing crossing;
    crossing.outbox = std::make_unique<ShardMailbox>();
    crossing.inbox = std::make_unique<MailboxInbox>(to.sim(), to);
    crossing.link = link;
    link->set_mailbox(crossing.outbox.get());
    inbound_[dst_shard].push_back(
        static_cast<std::uint32_t>(crossings_.size()));
    crossings_.push_back(std::move(crossing));
  }
  return link;
}

Topology::LinkPair Topology::connect(Node& a, Node& b, LinkSpec a_to_b,
                                     LinkSpec b_to_a) {
  // Mailbox discipline is a property of the delays alone (both directions
  // must clear the floor), exactly mirroring the partitioner's
  // crossing-eligibility rule -- never of whether this particular
  // assignment separates the endpoints.
  const bool mailboxed =
      std::min(a_to_b.delay, b_to_a.delay) >= lookahead_floor_;
  if (!mailboxed && shard_of_[a.id()] != shard_of_[b.id()]) {
    throw std::invalid_argument(
        "Topology: short link crosses a shard boundary (partition bug or "
        "hand-rolled shard assignment)");
  }
  LinkPair pair;
  pair.forward = make_link(a, b, a_to_b, mailboxed);
  pair.backward = make_link(b, a, b_to_a, mailboxed);
  return pair;
}

Node::Stats Topology::node_stats() const {
  Node::Stats total;
  for (const auto& node : nodes_) total += node->stats();
  return total;
}

void Topology::compute_routes() {
  // BFS on hop count from every source. BFS from every destination over
  // reversed edges would be cheaper, but n is tiny (testbeds have ~12
  // nodes); BFS from every source is clearer. Deterministic tie-breaking:
  // neighbors expand in adjacency (= link construction) order.
  const std::size_t n = nodes_.size();
  for (NodeId src = 0; src < n; ++src) {
    std::vector<std::size_t> dist(n, std::numeric_limits<std::size_t>::max());
    std::vector<std::ptrdiff_t> first_port(n, -1);
    std::deque<NodeId> frontier;
    dist[src] = 0;
    frontier.push_back(src);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop_front();
      for (const auto& [v, port] : adjacency_[u]) {
        if (dist[v] != std::numeric_limits<std::size_t>::max()) continue;
        dist[v] = dist[u] + 1;
        first_port[v] = u == src ? static_cast<std::ptrdiff_t>(port)
                                 : first_port[u];
        frontier.push_back(v);
      }
    }
    for (NodeId dst = 0; dst < n; ++dst) {
      if (dst != src && first_port[dst] >= 0) {
        nodes_[src]->set_next_hop(dst,
                                  static_cast<std::size_t>(first_port[dst]));
      }
    }
  }
}

}  // namespace qoesim::net
