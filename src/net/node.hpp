// qoesim -- network node: forwarding plane plus transport demux.
//
// A Node is both a router (static next-hop forwarding by destination) and a
// host endpoint (packets addressed to the node are delivered to a bound
// transport handler). The demux is connection-oriented: exact 4-tuple
// bindings win over wildcard listeners on (protocol, local port) -- the
// same lookup a kernel performs, which lets TcpServer accept new flows.
//
// Both per-packet paths are allocation-free in steady state: forwarding
// indexes a dense next-hop vector by destination id, and delivery probes
// one open-addressing flat table (see flat_table.hpp) holding exact
// connections and wildcard listeners. Handlers are SmallFunction (inline
// captures, move-only), so neither binding a flow nor delivering a packet
// copies a std::function.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/annotations.hpp"
#include "core/flow_arena.hpp"
#include "net/flat_table.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/callback.hpp"
#include "sim/simulation.hpp"

namespace qoesim::net {

/// Shard-plane: a node (its demux table, routes, counters) belongs to the
/// shard running its simulation. Public entry points assert the capability
/// through the simulation's ShardAffinity; the inner delivery path
/// requires it statically (see core/annotations.hpp).
class QOESIM_SHARD_PLANE Node {
 public:
  using Handler = SmallFunction<void(Packet&&)>;

  /// Lifetime counters, kept per node and folded into the StatsFold
  /// installed via set_stats_fold() (if any) on destruction, so benches
  /// can assert no packet was silently blackholed by a misrouted topology.
  struct Stats {
    std::uint64_t delivered = 0;    ///< packets handed to a bound handler
    std::uint64_t undelivered = 0;  ///< addressed here, no handler bound
    /// Late TCP segments of an already-torn-down connection (carrying ACK
    /// and/or FIN, no binding) -- includes SYN-ACKs retransmitted into a
    /// client that aborted its connect. A real stack absorbs these in
    /// TIME_WAIT (or answers with RST); the simulator tears the binding
    /// down immediately and accounts for them here instead, so
    /// `undelivered` stays a strict misconfiguration signal: any fresh
    /// conversation (pure TCP SYN, UDP) arriving at a node with no
    /// handler still counts as undelivered.
    std::uint64_t stray_late = 0;
    std::uint64_t unrouted = 0;     ///< no route and no default route
    std::uint64_t binds = 0;        ///< connection + listener binds
    std::uint64_t unbinds = 0;
    std::uint64_t demux_rehashes = 0;  ///< flat-table growth events

    // Flow-arena accounting (see core/flow_arena.hpp): counters sum across
    // nodes; the per-flow byte sizes take the max (every node pools the
    // same socket type, so they normally agree).
    std::uint64_t flows_opened = 0;
    std::uint64_t flows_closed = 0;
    std::uint64_t flow_peak_live = 0;      ///< summed per-node peaks
    std::uint64_t flow_hot_bytes = 0;      ///< pooled slot size (max)
    std::uint64_t flow_cold_allocs = 0;
    std::uint64_t flow_cold_frees = 0;
    std::uint64_t flow_cold_peak_live = 0; ///< summed per-node peaks
    std::uint64_t flow_cold_bytes = 0;     ///< cold block size (max)

    Stats& operator+=(const Stats& o) {
      delivered += o.delivered;
      undelivered += o.undelivered;
      stray_late += o.stray_late;
      unrouted += o.unrouted;
      binds += o.binds;
      unbinds += o.unbinds;
      demux_rehashes += o.demux_rehashes;
      flows_opened += o.flows_opened;
      flows_closed += o.flows_closed;
      flow_peak_live += o.flow_peak_live;
      flow_hot_bytes = flow_hot_bytes > o.flow_hot_bytes ? flow_hot_bytes
                                                         : o.flow_hot_bytes;
      flow_cold_allocs += o.flow_cold_allocs;
      flow_cold_frees += o.flow_cold_frees;
      flow_cold_peak_live += o.flow_cold_peak_live;
      flow_cold_bytes = flow_cold_bytes > o.flow_cold_bytes
                            ? flow_cold_bytes
                            : o.flow_cold_bytes;
      return *this;
    }
  };

  /// Thread-safe accumulator for the Stats of many nodes (all fields sum).
  /// Nodes die on sweep worker threads, so fold() takes a mutex; contention
  /// is one lock per node lifetime. There is no process-wide instance:
  /// benches own one (inside a core::StatsRegistry) and Topology installs
  /// it on every node it creates, keeping the engine itself free of shared
  /// mutable state (a PDES-sharding prerequisite).
  class StatsFold {
   public:
    void fold(const Stats& s);
    Stats snapshot() const;

   private:
    mutable Mutex mutex_;
    Stats total_ QOESIM_GUARDED_BY(mutex_);
  };

  Node(Simulation& sim, NodeId id, std::string name)
      : sim_(sim), id_(id), name_(std::move(name)) {}
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  Simulation& sim() { return sim_; }

  /// Attach an outgoing link; returns the port index.
  std::size_t add_port(Link* out);
  std::size_t port_count() const { return ports_.size(); }
  Link* port_link(std::size_t port) const { return ports_.at(port); }

  /// Static routing: packets for `dst` leave through `port`.
  void set_next_hop(NodeId dst, std::size_t port);
  /// Fallback port when no specific route exists (hosts' default route).
  void set_default_route(std::size_t port);

  /// Entry point for packets arriving from links.
  void receive(Packet&& p);

  /// Send a packet originated by (or forwarded through) this node.
  void send(Packet&& p);

  // ---- transport demux ----------------------------------------------------

  /// Bind an exact connection (proto, local port, remote node, remote port).
  /// Rebinding a key that is already bound replaces its handler. Returns
  /// the binding's demux generation stamp -- pass it to the gen-checked
  /// unbind_connection overload so a deferred teardown cannot erase a
  /// newer binding on the reused 4-tuple.
  std::uint64_t bind_connection(Protocol proto, std::uint32_t local_port,
                                NodeId remote, std::uint32_t remote_port,
                                Handler h);
  void unbind_connection(Protocol proto, std::uint32_t local_port,
                         NodeId remote, std::uint32_t remote_port);
  /// Gen-checked unbind: a no-op when the binding was already replaced
  /// (its generation moved past `expected_gen`).
  void unbind_connection(Protocol proto, std::uint32_t local_port,
                         NodeId remote, std::uint32_t remote_port,
                         std::uint64_t expected_gen);

  /// Bind a wildcard listener on (proto, local port).
  void bind_listener(Protocol proto, std::uint32_t local_port, Handler h);
  void unbind_listener(Protocol proto, std::uint32_t local_port);

  /// Allocate an ephemeral port (IANA dynamic range [49152, 65535]),
  /// wrapping around and skipping ports with a live local binding. Throws
  /// std::runtime_error if all 16384 ports are bound.
  std::uint32_t allocate_port();

  /// Packets delivered to a bound handler.
  std::uint64_t delivered() const { return stats_.delivered; }
  /// Packets that arrived addressed to this node with no bound handler.
  std::uint64_t undelivered() const { return stats_.undelivered; }
  /// Packets dropped because no route existed.
  std::uint64_t unrouted() const { return stats_.unrouted; }

  /// Live demux bindings (connections + listeners) and table growths.
  /// demux_rehashes() staying flat across a churn phase demonstrates the
  /// node plane's steady state performs no allocation.
  std::size_t bound_count() const { return demux_.size(); }
  std::uint64_t demux_rehashes() const { return demux_.rehashes(); }

  /// The pooled per-flow state arena every TcpSocket this node originates
  /// or accepts lives in (see core/flow_arena.hpp and the README "flow
  /// lifecycle & memory contract" section).
  core::FlowArena& flow_arena() { return flows_; }

  /// This node's lifetime counters.
  Stats stats() const;
  /// Install the accumulator this node folds its lifetime Stats into on
  /// destruction (nullptr = don't fold anywhere, the default). The fold
  /// must outlive the node; the bench harness reads its snapshot to assert
  /// that a figure run blackholed nothing (undelivered == unrouted == 0).
  void set_stats_fold(StatsFold* fold) { stats_fold_ = fold; }

 private:
  void deliver_local(Packet&& p) QOESIM_REQUIRES_SHARD;
  void note_bound(std::uint32_t local_port);
  void note_unbound(std::uint32_t local_port);
  bool port_in_use(std::uint32_t port) const;

  Simulation& sim_;
  NodeId id_;
  std::string name_;
  std::vector<Link*> ports_;
  /// Next-hop port per destination id; -1 = no entry. Node ids are dense
  /// (Topology hands them out sequentially), so direct indexing replaces
  /// the former std::map route lookup.
  std::vector<std::int32_t> routes_;
  std::ptrdiff_t default_route_ = -1;

  /// Exact connections and wildcard listeners in one table (listeners use
  /// the DemuxKey::wildcard sentinel remote, which no packet ever carries).
  FlatTable<Handler> demux_;

  static constexpr std::uint32_t kEphemeralLo = 49152;
  static constexpr std::uint32_t kEphemeralHi = 65535;
  std::uint32_t next_ephemeral_ = kEphemeralLo;
  /// Per-ephemeral-port count of live local bindings (connections and
  /// listeners), indexed from kEphemeralLo and grown only up to the
  /// highest port ever bound (an index past the end is free); lets
  /// allocate_port() skip still-bound ports after wrapping around.
  std::vector<std::uint16_t> ephemeral_use_;

  /// Pooled flow-state arena (slots + cold blocks). Members die in reverse
  /// declaration order, so the arena is destroyed *before* the demux. That
  /// is safe only because each TCP handler still bound there captures a
  /// FlowArena::Ref (shared ownership of the arena's slabs) plus a handle,
  /// not the arena itself. ~Node drops the arena's socket refs before
  /// folding stats so flows_closed counts teardown.
  core::FlowArena flows_;

  Stats stats_;
  StatsFold* stats_fold_ = nullptr;
};

}  // namespace qoesim::net
