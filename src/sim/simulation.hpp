// qoesim -- top-level simulation context.
//
// A Simulation bundles the scheduler with a master seed and serves as the
// root object every component hangs off. It also owns every monotonic id
// counter (packet uids, transport flow ids): nothing in the engine keeps
// process-wide mutable state, so arbitrarily many Simulations can run
// concurrently (sweep cells today, PDES shards later) without sharing
// anything. Everything else takes a Simulation& (or Scheduler&) explicitly.
#pragma once

#include <cstdint>
#include <string_view>

#include "sim/event.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace qoesim {

class Simulation {
 public:
  /// `scheduler_stats` (optional) is the accumulator the scheduler folds
  /// its lifetime counters into on destruction; benches pass one down (via
  /// core::StatsRegistry) so sweeps can report aggregate events/sec.
  explicit Simulation(std::uint64_t seed = 1,
                      Scheduler::StatsFold* scheduler_stats = nullptr)
      : seed_(seed) {
    scheduler_.set_stats_fold(scheduler_stats);
  }

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  Scheduler& scheduler() { return scheduler_; }
  const Scheduler& scheduler() const { return scheduler_; }

  /// Shard-ownership checker shared by every engine object of this
  /// simulation (nodes, links, pools all assert through it on their hot
  /// entry points; see core/annotations.hpp).
  ShardAffinity& shard() { return scheduler_.shard(); }

  Time now() const { return scheduler_.now(); }
  std::uint64_t seed() const { return seed_; }

  /// Per-component random stream derived from the master seed.
  RandomStream rng(std::string_view label) const {
    return RandomStream::derive(seed_, label);
  }

  /// Monotonically increasing packet uid, unique within this simulation
  /// (diagnostics only; no simulation behaviour depends on it). Being
  /// simulation-owned -- not a process-wide counter -- keeps uids
  /// deterministic for a fixed seed regardless of how many cells run
  /// concurrently.
  std::uint64_t next_packet_uid() { return next_packet_uid_++; }

  /// Monotonically increasing transport flow id (first flow = 1, so 0
  /// stays the "no flow" sentinel in net::Packet). Simulation-owned for
  /// the same determinism/sharding reasons as next_packet_uid().
  std::uint64_t next_flow_id() { return next_flow_id_++; }

  // Timer-lane scheduling (see sim/event.hpp). The callback is taken by
  // rvalue reference all the way down to the arena slot, so a call site's
  // temporary is moved exactly once.
  EventHandle at(Time when, Scheduler::Callback&& cb) {
    return scheduler_.schedule_at(when, std::move(cb));
  }
  EventHandle after(Time delay, Scheduler::Callback&& cb) {
    return scheduler_.schedule_in(delay, std::move(cb));
  }

  void run_until(Time until) { scheduler_.run_until(until); }
  void run() { scheduler_.run(); }

 private:
  std::uint64_t seed_;
  std::uint64_t next_packet_uid_ = 0;
  std::uint64_t next_flow_id_ = 1;
  Scheduler scheduler_;
};

}  // namespace qoesim
