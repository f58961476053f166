// qoesim -- in-flight packet slab pool and wire ring.
//
// PacketPool holds the packets a link currently has "in flight" (one being
// serialized plus any riding the propagation delay). Slots are recycled
// through a free list, mirroring the scheduler's event arena: steady-state
// forwarding performs zero heap allocations per packet, because a slot and
// the scheduler events referencing it (by 4-byte SlotId, well inside
// SmallCallback's inline buffer) are reused as soon as the packet is
// delivered. The slab only grows when more packets are simultaneously in
// flight than ever before on this link, which is bounded by
// 1 + ceil(prop_delay / serialization_time) -- growth events are counted
// in Stats::slab_growths so tests can assert the steady state allocates
// nothing.
//
// WireRing is the companion FIFO of (slot, deliver_at) entries for packets
// that finished serialization and are propagating. Because a link's
// propagation delay is constant and serialization completions are ordered,
// deliver_at is non-decreasing, so one delivery event draining the ring
// front replaces a scheduler event per packet.
//
// PacketRing is the buffered segment's counterpart: the FIFO storage every
// queue discipline keeps its waiting packets in. Like WireRing it is a
// power-of-two ring that only grows -- here a ring of fixed-size packet
// blocks that are recycled in place -- so a queue that has seen its peak
// stores and releases packets without touching the heap, unlike
// std::deque, which frees and reallocates a chunk every two packets as
// the FIFO advances.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "core/annotations.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"

namespace qoesim::net {

/// Shard-plane: a pool belongs to one Link and is only touched from the
/// owning shard's event loop; the mutating operations require the shard
/// capability (Link's entry points assert it; see core/annotations.hpp).
class QOESIM_SHARD_PLANE PacketPool {
 public:
  using SlotId = std::uint32_t;
  static constexpr SlotId kNil = 0xffffffffu;

  struct Stats {
    std::uint64_t acquired = 0;
    std::uint64_t released = 0;
    /// Number of times a new slot had to be created (the only operation
    /// that can touch the heap). Constant in steady state.
    std::uint64_t slab_growths = 0;
    std::uint64_t peak_in_flight = 0;
  };

  /// Store `p` in a pooled slot; reuses a free slot when available.
  SlotId acquire(Packet&& p) QOESIM_REQUIRES_SHARD;

  /// Move the packet out of `slot` and return the slot to the free list.
  Packet release(SlotId slot) QOESIM_REQUIRES_SHARD;

  /// References returned here stay valid across acquire()/release(): the
  /// slab is a deque, so growth never relocates existing slots. A Link
  /// iterates its tx observers over such a reference while an observer
  /// could reenter Link::send (and thus acquire()).
  Packet& at(SlotId slot) QOESIM_REQUIRES_SHARD { return slots_[slot]; }
  const Packet& at(SlotId slot) const QOESIM_REQUIRES_SHARD {
    return slots_[slot];
  }

  std::size_t in_flight() const {
    return static_cast<std::size_t>(stats_.acquired - stats_.released);
  }
  std::size_t slot_count() const { return slots_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  std::deque<Packet> slots_;  // reference-stable slab (see at())
  std::vector<SlotId> free_;  // stack of recycled slot ids
  Stats stats_;
};

/// FIFO ring buffer of packets on the wire. Capacity grows by doubling
/// (never shrinks), so like the pool it stops allocating once the link has
/// seen its peak in-flight population. Shard-plane like the pool: mutation
/// requires the shard capability, const inspection does not.
class QOESIM_SHARD_PLANE WireRing {
 public:
  struct Entry {
    PacketPool::SlotId slot = PacketPool::kNil;
    /// FIFO position reserved (Scheduler::allocate_seq) when the packet
    /// finished serialization: the delivery event fires with this seq, so
    /// same-timestamp ties resolve exactly as if the packet had scheduled
    /// its own propagation event there.
    std::uint64_t seq = 0;
    Time deliver_at;
  };

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  const Entry& front() const { return buf_[head_]; }

  void push(Entry e) QOESIM_REQUIRES_SHARD;
  void pop() QOESIM_REQUIRES_SHARD;

 private:
  std::vector<Entry> buf_;  // power-of-two capacity circular buffer
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// FIFO of packets waiting in a queue discipline. Packets live in
/// fixed-size blocks held by a power-of-two ring of block pointers; a
/// drained block stays in its ring position and is refilled when the FIFO
/// wraps around to it, so blocks are allocated only while the queue
/// reaches a new peak occupancy and never freed before the ring is. Growth
/// doubles the pointer ring and never moves a queued packet, and memory
/// tracks the peak occupancy in whole blocks rather than a power-of-two
/// rounding of it. Owned by a queue discipline, which is reached only
/// through its Link's shard-asserting entry points, so the ring itself
/// carries no shard annotations.
class PacketRing {
 public:
  static constexpr std::size_t kBlockPackets = 4;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  const Packet& front() const { return (*front_)[head_]; }

  /// Append `p` at the back; takes the next block when the back one is
  /// full (allocating it only on the ring's first pass over that slot).
  void push(Packet&& p) {
    if (tail_ == kBlockPackets) next_block();
    (*back_)[tail_++] = std::move(p);
    ++size_;
  }

  /// Move the front packet out and remove it. Precondition: !empty().
  Packet pop() {
    Packet p = std::move((*front_)[head_++]);
    if (--size_ == 0) {
      // Empty: the next push restarts at the top of this same block.
      blocks_live_ = 0;
      head_ = 0;
      tail_ = kBlockPackets;
    } else if (head_ == kBlockPackets) {
      first_ = (first_ + 1) & (blocks_.size() - 1);
      --blocks_live_;
      front_ = blocks_[first_].get();
      head_ = 0;
    }
    return p;
  }

 private:
  using Block = std::array<Packet, kBlockPackets>;

  void next_block();

  std::vector<std::unique_ptr<Block>> blocks_;  // power-of-two ring
  std::size_t first_ = 0;        // ring index of the front block
  std::size_t blocks_live_ = 0;  // blocks holding queued packets
  Block* front_ = nullptr;
  Block* back_ = nullptr;
  std::size_t head_ = 0;              // front packet's index in *front_
  std::size_t tail_ = kBlockPackets;  // one past the back packet in *back_
  std::size_t size_ = 0;
};

}  // namespace qoesim::net
