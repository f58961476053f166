// qoesim -- cross-shard packet mailboxes for the conservative-PDES engine.
//
// A link whose propagation delay clears the engine's lookahead floor uses
// mailbox delivery instead of the in-scheduler WireRing: the tx side
// (producer shard) appends timestamped records into a ShardMailbox during
// its epoch, and at every barrier the destination shard drains all of its
// inbound mailboxes in one seq-ordered merge, admitting each record into
// the per-link MailboxInbox ring that materializes delivery events with
// the exact same (when, seq) tie-breaking as post_at_seq.
//
// The ShardMailbox is deliberately dumb: a vector of value-type records
// and a FIFO counter, no locks, no atomics. The producer writes only
// during its epoch; the consumer reads only between the two barrier
// phases, when the producer is quiescent -- the barrier provides the
// happens-before edge, so the channel itself needs no synchronization
// (and qoesim_lint's shard-state check flags any that sneaks in).
//
// Determinism contract (see README "sharding contract"): mailbox
// discipline is decided by link delay alone (delay >= lookahead floor),
// never by whether the link currently crosses a shard boundary, so the
// event schedule -- and therefore the output of the engine-scale benches
// (bench_pdes, bench_megaflows) -- is byte-identical at every shard
// count, including 1. Figure cells never reach this path: ExperimentRunner
// builds them on one Simulation, not through core::ShardedEngine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/annotations.hpp"
#include "net/packet.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace qoesim::net {

class Node;

/// One packet in cross-shard transit. `channel` is the global crossing
/// index of the mailbox it traveled through and `link_seq` its FIFO
/// position on that mailbox; together with deliver_at they form the merge
/// key (deliver_at, channel, link_seq) the barrier drain sorts by, which
/// is partition-invariant (both components depend only on the topology's
/// construction order and per-link tx order).
struct MailboxRecord {
  Time deliver_at;
  std::uint64_t channel = 0;
  std::uint64_t link_seq = 0;
  Packet packet;
};

/// SPSC batch buffer from one link's tx side to its destination shard.
/// push() runs inside the producer shard's epoch; drain_into() runs at a
/// barrier on the consumer shard, with the producer quiescent.
class QOESIM_CROSS_SHARD_CHANNEL ShardMailbox {
 public:
  ShardMailbox() = default;
  ShardMailbox(const ShardMailbox&) = delete;
  ShardMailbox& operator=(const ShardMailbox&) = delete;

  /// Producer side (link tx-complete): append one record. The per-mailbox
  /// FIFO counter preserves the link's transmission order across drains.
  void push(Time deliver_at, Packet&& p) {
    // qoesim-lint: allow(hot-alloc) -- drain_into clears without shrinking, so the batch reaches high-water capacity in warmup and steady-state pushes allocate nothing (same policy as WireRing)
    batch_.push_back(
        MailboxRecord{deliver_at, 0, next_link_seq_++, std::move(p)});
  }

  /// Consumer side (barrier drain): move every batched record into `out`,
  /// tagging each with this mailbox's global crossing index.
  void drain_into(std::vector<MailboxRecord>& out, std::uint64_t channel) {
    for (MailboxRecord& r : batch_) {
      r.channel = channel;
      out.push_back(std::move(r));
    }
    batch_.clear();  // keeps capacity; steady state allocates nothing
  }

  bool empty() const { return batch_.empty(); }
  std::size_t size() const { return batch_.size(); }

 private:
  std::vector<MailboxRecord> batch_;
  std::uint64_t next_link_seq_ = 0;
};

/// Receive-side ring of one mailbox link, owned by the destination shard.
/// Admitted records wait here with their reserved sequence numbers; like
/// the WireRing, one armed delivery event per link suffices because
/// records are admitted in merge order (non-decreasing (when, seq) per
/// link), and each delivery re-arms the next entry at its own reserved
/// seq, so every packet keeps its exact FIFO position among
/// same-timestamp events.
class QOESIM_SHARD_PLANE MailboxInbox {
 public:
  MailboxInbox(Simulation& sim, Node& dest) : sim_(sim), dest_(dest) {}
  MailboxInbox(const MailboxInbox&) = delete;
  MailboxInbox& operator=(const MailboxInbox&) = delete;

  /// Admit one drained record under the destination shard's epoch. `seq`
  /// must come from this shard's Scheduler::allocate_seq(), taken in
  /// merge order; `when` must be >= the scheduler's clock (guaranteed by
  /// the lookahead: deliver_at >= tx epoch start + quantum = barrier
  /// time).
  void admit(Time when, std::uint64_t seq, Packet&& p) QOESIM_REQUIRES_SHARD;

  /// Records admitted but not yet delivered.
  std::size_t depth() const { return size_; }

 private:
  struct Entry {
    Time when;
    std::uint64_t seq = 0;
    Packet packet;
  };

  void arm(Time when, std::uint64_t seq) QOESIM_REQUIRES_SHARD;
  void deliver_front() QOESIM_REQUIRES_SHARD;

  Simulation& sim_;
  Node& dest_;
  std::vector<Entry> buf_;  // power-of-two ring, grown geometrically
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace qoesim::net
