// qoesim -- in-flight packet slab pool and wire ring.
//
// PacketPool holds the packets a link currently has "in flight" (one being
// serialized plus any riding the propagation delay). Slots are recycled
// through a free list, mirroring the scheduler's event arena: steady-state
// forwarding performs zero heap allocations per packet, because a slot and
// the scheduler events referencing it (by 4-byte SlotId, well inside a
// packet-lane closure) are reused as soon as the packet is delivered. A
// link fills a slot in place -- the queue discipline dequeues straight
// into stage() -- and delivers the packet from it, so a packet is copied
// into the pool once and never out of it. The slab only grows when more
// packets are simultaneously in flight than ever before on this link,
// which is bounded by 1 + ceil(prop_delay / serialization_time) -- growth
// events are counted in Stats::slab_growths so tests can assert the steady
// state allocates nothing.
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

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
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
    /// Number of slots ever put to use: each growth is the first acquire
    /// of a slot whose storage had to be created (the only operation that
    /// can touch the heap). Constant in steady state.
    std::uint64_t slab_growths = 0;
    std::uint64_t peak_in_flight = 0;
  };

  /// The free slot the next acquire() takes, for the caller to fill in
  /// place. Creates the slot's storage if none is free, but a slot counts
  /// (acquired, slab_growths, peak_in_flight) only once acquired: a slot
  /// staged for a dequeue that yields nothing simply stays free.
  Packet& stage() QOESIM_REQUIRES_SHARD {
    if (free_.empty()) add_slot();
    return at(free_.back());
  }

  /// Take the slot stage() returned, now holding a packet.
  SlotId acquire() QOESIM_REQUIRES_SHARD {
    const SlotId slot = free_.back();
    free_.pop_back();
    ++stats_.acquired;
    // Slots are first acquired in id order, so the ids below slab_growths
    // are exactly the slots used before.
    if (slot == stats_.slab_growths) ++stats_.slab_growths;
    stats_.peak_in_flight =
        std::max<std::uint64_t>(stats_.peak_in_flight, in_flight());
    return slot;
  }

  /// Return `slot` to the free list; its packet is no longer referenced.
  void release(SlotId slot) QOESIM_REQUIRES_SHARD {
    ++stats_.released;
    free_.push_back(slot);  // capacity reserved in add_slot(): no allocation
  }

  /// References returned here stay valid across stage()/acquire()/
  /// release(): growth adds a chunk and never moves existing slots. A Link
  /// hands such a reference to its observers and sink while they could
  /// reenter Link::send (and thus stage()).
  Packet& at(SlotId slot) QOESIM_REQUIRES_SHARD {
    // Slot s lives at v = s + kFirstChunk: chunk k holds the v with bit
    // width kFirstChunkBits + k + 1, so one bit scan finds the chunk and
    // clearing v's top bit the offset.
    const std::uint32_t v = slot + kFirstChunk;
    const unsigned top = static_cast<unsigned>(std::bit_width(v)) - 1;
    return chunks_[top - kFirstChunkBits][v ^ (1u << top)];
  }

  std::size_t in_flight() const {
    return static_cast<std::size_t>(stats_.acquired - stats_.released);
  }
  const Stats& stats() const { return stats_; }

 private:
  // Chunk k holds kFirstChunk << k slots. The first chunk is small, so a
  // lightly used link (one packet in flight at a time) keeps two slots.
  static constexpr unsigned kFirstChunkBits = 1;
  static constexpr std::uint32_t kFirstChunk = 1u << kFirstChunkBits;
  static constexpr unsigned kMaxSlotBits = 24;  // as the scheduler's arena
  static constexpr unsigned kChunks = kMaxSlotBits - kFirstChunkBits + 1;

  void add_slot() QOESIM_REQUIRES_SHARD;

  std::array<std::unique_ptr<Packet[]>, kChunks> chunks_;
  std::uint32_t slot_count_ = 0;  // slots with storage, ids [0, count)
  std::vector<SlotId> free_;      // stack of free slot ids
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

  /// Move the front packet into `out` and remove it. Precondition:
  /// !empty().
  void pop(Packet& out) {
    out = std::move((*front_)[head_++]);
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
