// qoesim -- conservative-PDES sharded engine (Chandy-Misra-Bryant with
// barrier epochs).
//
// One scenario, N worker threads: the topology is partitioned at link
// boundaries (core/partition.hpp), each shard owns a full Simulation
// (scheduler arena, link rings, nodes -- nothing is shared), and the
// shards advance in lockstep epochs of one quantum, the minimum
// crossing-eligible link delay. Within an epoch a shard runs its events
// with Scheduler::run_before under its own ShardGuard; at the barrier
// every shard drains its inbound mailboxes in a seq-ordered merge and
// admits the records with freshly allocated sequence numbers, which is
// exactly the tie-breaking a single scheduler would have produced (see
// README "sharding contract" for the invariance argument).
//
// Epoch structure per quantum T -> T+Q (two barrier phases):
//
//   run_before(T+Q)          events in [T, T+Q), shard-local
//   -- barrier A --          every shard's epoch is over; outboxes frozen
//   drain inbound mailboxes  sort by (deliver_at, channel, link_seq),
//                            allocate seqs, admit into per-link inboxes
//   -- barrier B --          drains done; producers may push again
//
// The barrier also samples aggregate queue depth (the only point where a
// cross-shard sum is partition-invariant), so the engine's combined
// scheduler stats line is byte-identical at every shard count.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/partition.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"

namespace qoesim::core {

class ShardedEngine {
 public:
  struct Config {
    /// Requested shard count; the partitioner may use fewer (it never
    /// splits a short-link cluster).
    unsigned shards = 1;
    /// Links with min-direction delay >= this are crossing-eligible and
    /// use mailbox delivery at every shard count.
    Time lookahead_floor = Time::milliseconds(1);
    std::uint64_t seed = 1;
    /// Optional per-node shard pins (kUnpinned = free); model tests use
    /// this to force specific cuts.
    std::vector<std::int32_t> pin;
    /// Accumulator every node folds into on destruction (blackhole gate).
    net::Node::StatsFold* node_stats = nullptr;
  };

  explicit ShardedEngine(Config cfg);
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // ---- description phase (before build) -----------------------------------

  net::NodeId add_node(std::string name, double weight = 1.0);
  /// Declare a duplex connection; returns the declaration index (used to
  /// retrieve the constructed links after build()).
  std::size_t connect(net::NodeId a, net::NodeId b, net::LinkSpec ab,
                      net::LinkSpec ba);

  /// Partition the declared graph, instantiate one Simulation per shard,
  /// and build the topology across them in declaration order (node ids,
  /// link indices and crossing channels then match at every shard count);
  /// computes global routes. Callable once; add_node/connect must not be
  /// called afterwards.
  void build();

  // ---- after build() ------------------------------------------------------

  bool built() const { return topo_ != nullptr; }
  const ShardPlan& plan() const { return plan_; }
  Time quantum() const { return plan_.quantum; }
  std::uint32_t shard_count() const { return plan_.shard_count; }

  net::Node& node(net::NodeId id) { return topo_->node(id); }
  Simulation& sim_of(net::NodeId id) { return topo_->node(id).sim(); }
  net::Link* link(std::size_t decl, bool forward) {
    return topo_->link(decl, forward);
  }
  net::Topology& topology() { return *topo_; }

  /// Advance every shard to exactly `end` through the epoch/barrier loop,
  /// spawning shard_count-1 worker threads (shard 0 runs on the caller;
  /// a single-shard plan runs entirely inline through the same loop, so
  /// --shards 1 exercises the identical barrier/drain schedule). May be
  /// called repeatedly with increasing horizons.
  void run_until(Time end);

  /// Combined scheduler counters: sums over shards, with peak_queue_depth
  /// replaced by the barrier-sampled aggregate peak -- the partition-
  /// invariant definition (intra-epoch per-shard transients are not).
  /// Fold this into a bench's StatsRegistry; the per-shard schedulers
  /// deliberately have no fold installed.
  Scheduler::Stats scheduler_stats() const;
  net::Node::Stats node_stats() const { return topo_->node_stats(); }

 private:
  /// Mutex+condvar rendezvous for the epoch phases. The last thread to
  /// arrive runs the release hook (depth aggregation) while every other
  /// participant is parked, then wakes them -- giving the hook exclusive,
  /// race-free access to the per-shard samples, and giving mailbox reads
  /// after the barrier a happens-before edge over writes before it.
  /// (std::barrier would do, but a condvar keeps TSan's view trivial.)
  class EpochBarrier {
   public:
    explicit EpochBarrier(unsigned parties) : parties_(parties) {}

    template <typename OnRelease>
    void arrive_and_wait(OnRelease&& on_release) {
      std::unique_lock<std::mutex> lock(mutex_);
      const std::uint64_t gen = generation_;
      if (++arrived_ == parties_) {
        arrived_ = 0;
        on_release();
        ++generation_;
        cv_.notify_all();
        return;
      }
      cv_.wait(lock, [&] { return generation_ != gen; });
    }

   private:
    const unsigned parties_;
    std::mutex mutex_;
    std::condition_variable cv_;
    unsigned arrived_ = 0;
    std::uint64_t generation_ = 0;
  };

  void worker(unsigned shard, Time end);
  void drain_shard(unsigned shard);
  void sample_depth(unsigned shard);

  /// One declared duplex connection, recorded before build() so the
  /// partitioner can cut the graph before any engine object exists.
  struct Decl {
    net::NodeId a = 0;
    net::NodeId b = 0;
    net::LinkSpec ab;
    net::LinkSpec ba;
  };

  Config cfg_;
  std::vector<std::string> names_;
  std::vector<double> weights_;
  std::vector<Decl> decls_;

  ShardPlan plan_;
  std::vector<std::unique_ptr<Simulation>> sims_;
  std::unique_ptr<net::Topology> topo_;
  std::unique_ptr<EpochBarrier> barrier_;
  /// Per-shard drain scratch (records merged at one barrier); persists so
  /// steady-state drains allocate nothing.
  std::vector<std::vector<net::MailboxRecord>> scratch_;
  /// Per-shard post-drain queue depths, written between barrier phases A
  /// and B and aggregated by the phase-B release hook.
  std::vector<std::size_t> depth_;
  std::uint64_t peak_depth_ = 0;
  Time epoch_start_;  ///< all shards' common clock between run_until calls
};

}  // namespace qoesim::core
