// qoesim -- block rings: the FIFO storage of every packet a link holds.
//
// A link holds a packet in one of two FIFOs. Packets waiting in the
// buffer sit in their queue discipline's PacketRing. Packets in flight --
// the one being serialized and those riding the propagation delay -- sit
// in the link's InFlightRing as {packet, reserved seq, deliver_at}
// entries; a MailboxInbox keeps admitted cross-shard packets in the same
// ring. Both are one template, BlockRing.
//
// A BlockRing stores its entries in blocks: the live ones, front to back,
// in a power-of-two ring of block pointers, the others on a stack of
// spares. A block the FIFO leaves becomes a spare and is refilled in place
// when the back needs a new block (std::deque, by contrast, frees and
// reallocates a chunk every few entries as the FIFO advances). Growth adds
// a block, or doubles the pointer ring, and never moves an entry: a
// reference to a queued entry stays valid while the ring grows. A link
// relies on that, because it hands its sink the front in-flight entry in
// place, and the sink may re-enter Link::send on the same link, which
// stages a new entry at the back (see README "Packet lifecycle on a
// link").
//
// Because entries never move, the slots the front block has already
// handed out stay unusable until that block drains. A ring that has seen
// its peak occupancy may therefore still need one more block; it stops
// allocating once its capacity is at least the peak plus its largest
// block less one (then the back always finds a spare). At a fixed peak,
// growth stops after a few blocks.
//
// The first block holds one entry and each new block is as large as all
// earlier ones together, up to kMaxBlock entries, so a lightly used ring
// costs one entry of storage and a deep one still walks long blocks.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/annotations.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"

namespace qoesim::net {

/// Shard-plane: a ring belongs to one link or queue and is touched only
/// from the owning shard's event loop, so its mutators require the shard
/// capability (callers assert it; see core/annotations.hpp). Const
/// inspection does not.
template <class T>
class QOESIM_SHARD_PLANE BlockRing {
 public:
  /// Largest block, in entries.
  static constexpr std::uint32_t kMaxBlock = 64;

  BlockRing() = default;
  BlockRing(const BlockRing&) = delete;
  BlockRing& operator=(const BlockRing&) = delete;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// True when stage() would have to allocate.
  bool full() const {
    return tail_ == tail_end_ && (spare_.empty() || live_ == ring_.size());
  }
  /// Blocks allocated so far. Constant once capacity() is at least the
  /// peak occupancy plus the largest block less one.
  std::uint64_t growths() const { return growths_; }
  /// Entries in all allocated blocks, live and spare.
  std::size_t capacity() const { return capacity_; }

  const T& front() const { return *head_; }
  T& front() QOESIM_REQUIRES_SHARD { return *head_; }
  /// The newest entry. Precondition: !empty().
  T& back() QOESIM_REQUIRES_SHARD { return tail_[-1]; }

  /// The slot the next commit() appends, for the caller to fill in place.
  /// Takes a block if the back one is full; an uncommitted slot is simply
  /// handed out again.
  T& stage() QOESIM_REQUIRES_SHARD {
    if (tail_ == tail_end_) next_block();
    return *tail_;
  }
  /// Append the slot stage() returned.
  void commit() QOESIM_REQUIRES_SHARD {
    ++tail_;
    ++size_;
  }
  void push(T&& v) QOESIM_REQUIRES_SHARD {
    stage() = std::move(v);
    commit();
  }

  /// Remove the front entry. Precondition: !empty().
  void pop() QOESIM_REQUIRES_SHARD {
    if (--size_ == 0) {
      // Empty: the next entry restarts at the top of the front block. A
      // block an uncommitted stage() moved on to goes back to the spares.
      while (live_ > 1) retire((first_ + --live_) & (ring_.size() - 1));
      head_ = tail_ = front_begin_;
      tail_end_ = head_end_;
    } else if (++head_ == head_end_) {
      retire(first_);
      first_ = (first_ + 1) & (ring_.size() - 1);
      --live_;
      const Block& b = ring_[first_];
      head_ = front_begin_ = b.slots.get();
      head_end_ = head_ + b.capacity;
    }
  }
  /// Move the front entry into `out` and remove it. Precondition:
  /// !empty().
  void pop(T& out) QOESIM_REQUIRES_SHARD {
    out = std::move(*head_);
    pop();
  }

 private:
  struct Block {
    std::unique_ptr<T[]> slots;
    std::uint32_t capacity = 0;
  };

  // A block that holds no entry leaves the ring for the spares (whose
  // capacity next_block reserved, so this does not allocate).
  void retire(std::size_t pos) QOESIM_REQUIRES_SHARD {
    spare_.push_back(std::move(ring_[pos]));
  }

  // The back block is full: continue in a spare block, or allocate one.
  [[gnu::noinline]] void next_block() QOESIM_REQUIRES_SHARD {
    if (live_ == ring_.size()) {
      // Every ring position holds a live block: double the pointer ring,
      // unrolling the live blocks into [0, live_). Entries stay put.
      std::vector<Block> bigger(ring_.empty() ? 1 : ring_.size() * 2);
      for (std::size_t i = 0; i < live_; ++i)
        bigger[i] = std::move(ring_[(first_ + i) & (ring_.size() - 1)]);
      ring_ = std::move(bigger);
      first_ = 0;
    }
    Block& b = ring_[(first_ + live_) & (ring_.size() - 1)];
    if (spare_.empty()) {
      b.capacity = std::clamp<std::uint32_t>(capacity_, 1, kMaxBlock);
      b.slots = std::make_unique<T[]>(b.capacity);
      capacity_ += b.capacity;
      spare_.reserve(++growths_);
    } else {
      b = std::move(spare_.back());
      spare_.pop_back();
    }
    tail_ = b.slots.get();
    tail_end_ = tail_ + b.capacity;
    if (live_++ == 0) {
      head_ = front_begin_ = tail_;
      head_end_ = tail_end_;
    }
  }

  T* head_ = nullptr;         // front entry
  T* head_end_ = nullptr;     // end of the front block
  T* front_begin_ = nullptr;  // start of the front block
  T* tail_ = nullptr;         // one past the back entry
  T* tail_end_ = nullptr;     // end of the back block
  std::size_t size_ = 0;
  std::size_t first_ = 0;  // ring index of the front block
  std::size_t live_ = 0;   // blocks from the front block to the back block
  std::vector<Block> ring_;   // power-of-two ring of live blocks
  std::vector<Block> spare_;  // allocated blocks holding no entry
  std::uint32_t capacity_ = 0;  // entries in all allocated blocks
  std::uint32_t growths_ = 0;
};

/// FIFO of packets waiting in a queue discipline.
using PacketRing = BlockRing<Packet>;

/// A packet a link is serializing or propagating, or one a MailboxInbox
/// has admitted.
struct InFlight {
  Packet packet;
  /// FIFO position reserved (Scheduler::allocate_seq) when the packet
  /// finished serialization: its delivery event fires with this seq, so
  /// same-timestamp ties resolve exactly as if the packet had scheduled
  /// its own propagation event there.
  std::uint64_t seq = 0;
  Time deliver_at;
};

using InFlightRing = BlockRing<InFlight>;

}  // namespace qoesim::net
