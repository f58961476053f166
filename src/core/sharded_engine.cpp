#include "core/sharded_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

namespace qoesim::core {

ShardedEngine::ShardedEngine(Config cfg) : cfg_(std::move(cfg)) {
  if (cfg_.shards == 0) {
    throw std::invalid_argument("ShardedEngine: shards must be >= 1");
  }
  if (cfg_.lookahead_floor <= Time::zero()) {
    // A zero floor would admit zero-delay mailbox links, i.e. a zero
    // quantum and a barrier loop that never advances.
    throw std::invalid_argument("ShardedEngine: lookahead_floor must be > 0");
  }
}

net::NodeId ShardedEngine::add_node(std::string name, double weight) {
  if (built()) {
    throw std::logic_error("ShardedEngine: add_node after build");
  }
  names_.push_back(std::move(name));
  weights_.push_back(weight);
  return static_cast<net::NodeId>(names_.size() - 1);
}

std::size_t ShardedEngine::connect(net::NodeId a, net::NodeId b,
                                   net::LinkSpec ab, net::LinkSpec ba) {
  if (built()) {
    throw std::logic_error("ShardedEngine: connect after build");
  }
  decls_.push_back({a, b, std::move(ab), std::move(ba)});
  return decls_.size() - 1;
}

void ShardedEngine::build() {
  if (built()) throw std::logic_error("ShardedEngine: build called twice");

  PartitionGraph graph;
  graph.node_count = names_.size();
  graph.node_weight = weights_;
  graph.edges.reserve(decls_.size());
  for (const Decl& d : decls_) {
    graph.edges.push_back({d.a, d.b, std::min(d.ab.delay, d.ba.delay)});
  }
  plan_ = partition(graph, cfg_.shards, cfg_.lookahead_floor, cfg_.pin);

  // One Simulation per shard, all sharing the master seed: rng(label)
  // streams derive from (seed, label) only, so every component draws the
  // same stream at every shard count. No per-shard scheduler fold is
  // installed -- the engine publishes one combined, partition-invariant
  // Stats instead (scheduler_stats()).
  sims_.reserve(plan_.shard_count);
  for (std::uint32_t s = 0; s < plan_.shard_count; ++s) {
    sims_.push_back(std::make_unique<Simulation>(cfg_.seed));
  }
  std::vector<Simulation*> sim_ptrs;
  sim_ptrs.reserve(sims_.size());
  for (auto& sim : sims_) sim_ptrs.push_back(sim.get());

  auto topo = std::make_unique<net::Topology>(
      std::move(sim_ptrs), cfg_.lookahead_floor, cfg_.node_stats);
  // All nodes before any link, in declaration order: the per-scheduler
  // construction-time sequence allocations that follow (flow binds, app
  // timers) then happen in one global order regardless of the shard count.
  for (std::size_t i = 0; i < names_.size(); ++i) {
    topo->add_node(names_[i], plan_.shard_of[i]);
  }
  for (const Decl& d : decls_) {
    topo->connect(topo->node(d.a), topo->node(d.b), d.ab, d.ba);
  }
  topo->compute_routes();
  topo_ = std::move(topo);

  barrier_ = std::make_unique<EpochBarrier>(plan_.shard_count);
  scratch_.resize(plan_.shard_count);
  depth_.assign(plan_.shard_count, 0);
}

void ShardedEngine::drain_shard(unsigned shard) {
  std::vector<net::MailboxRecord>& scratch = scratch_[shard];
  scratch.clear();
  Scheduler& sched = sims_[shard]->scheduler();
  const ShardGuard guard(&sched.shard());
  for (const std::uint32_t c : topo_->inbound(shard)) {
    topo_->crossings()[c].outbox->drain_into(scratch, c);
  }
  // The merge key (deliver_at, channel, link_seq) is partition-invariant:
  // channel follows declaration order, link_seq per-link tx order. Seqs
  // are allocated in merge order, so two records sharing a timestamp on
  // this scheduler fire in the same relative order a single-shard drain
  // gives them (interleaved foreign records only shift absolute seq
  // values, never this relative order).
  std::sort(scratch.begin(), scratch.end(),
            [](const net::MailboxRecord& x, const net::MailboxRecord& y) {
              if (x.deliver_at != y.deliver_at)
                return x.deliver_at < y.deliver_at;
              if (x.channel != y.channel) return x.channel < y.channel;
              return x.link_seq < y.link_seq;
            });
  for (net::MailboxRecord& r : scratch) {
    const std::uint64_t seq = sched.allocate_seq();
    topo_->crossings()[r.channel].inbox->admit(r.deliver_at, seq,
                                               std::move(r.packet));
  }
}

void ShardedEngine::sample_depth(unsigned shard) {
  depth_[shard] = sims_[shard]->scheduler().pending_events();
}

void ShardedEngine::worker(unsigned shard, Time end) {
  Time t = epoch_start_;
  while (t < end) {
    // min(t + quantum, end) without overflowing Time::max() quanta.
    const Time next = end - t > plan_.quantum ? t + plan_.quantum : end;
    sims_[shard]->scheduler().run_before(next);
    barrier_->arrive_and_wait([] {});  // A: all epochs over, outboxes frozen
    drain_shard(shard);
    sample_depth(shard);
    barrier_->arrive_and_wait([this] {  // B: drains done, depths sampled
      std::size_t total = 0;
      for (const std::size_t d : depth_) total += d;
      peak_depth_ = std::max<std::uint64_t>(peak_depth_, total);
    });
    t = next;
  }
}

void ShardedEngine::run_until(Time end) {
  if (!built()) throw std::logic_error("ShardedEngine: run before build");
  if (end <= epoch_start_) return;
  const std::uint32_t n = plan_.shard_count;
  if (n == 1) {
    worker(0, end);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(n - 1);
    for (std::uint32_t s = 1; s < n; ++s) {
      threads.emplace_back([this, s, end] { worker(s, end); });
    }
    worker(0, end);
    for (std::thread& th : threads) th.join();
  }
  epoch_start_ = end;
}

Scheduler::Stats ShardedEngine::scheduler_stats() const {
  Scheduler::Stats total;
  for (const auto& sim : sims_) {
    const Scheduler::Stats& s = sim->scheduler().stats();
    total.scheduled += s.scheduled;
    total.fired += s.fired;
    total.cancelled += s.cancelled;
    total.rescheduled += s.rescheduled;
  }
  total.peak_queue_depth = peak_depth_;
  return total;
}

}  // namespace qoesim::core
