#include "net/packet_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace qoesim::net {

void PacketPool::add_slot() {
  if (slot_count_ >> kMaxSlotBits) {
    throw std::length_error("PacketPool: more than 2^24 packets in flight");
  }
  const std::uint32_t v = slot_count_ + kFirstChunk;
  if (std::has_single_bit(v)) {
    // The first slot of a new chunk. The free stack can hold at most one
    // entry per slot; reserving alongside the slab keeps release()
    // allocation-free.
    chunks_[static_cast<unsigned>(std::bit_width(v)) - 1 - kFirstChunkBits] =
        std::make_unique<Packet[]>(v);
    free_.reserve(2 * v - kFirstChunk);
  }
  free_.push_back(slot_count_++);
}

[[gnu::hot]] void WireRing::push(Entry e) {
  if (size_ == buf_.size()) {
    // Grow to the next power of two, unrolling the ring so the live
    // entries occupy [0, size_).
    std::vector<Entry> bigger(buf_.empty() ? 8 : buf_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i)
      bigger[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    buf_ = std::move(bigger);
    head_ = 0;
  }
  buf_[(head_ + size_) & (buf_.size() - 1)] = e;
  ++size_;
}

[[gnu::hot]] void WireRing::pop() {
  head_ = (head_ + 1) & (buf_.size() - 1);
  --size_;
}

void PacketRing::next_block() {
  if (blocks_live_ == blocks_.size()) {
    // Every ring position holds queued packets: double the pointer ring,
    // unrolling the live blocks into [0, blocks_live_). Packets stay put.
    std::vector<std::unique_ptr<Block>> bigger(
        blocks_.empty() ? 1 : blocks_.size() * 2);
    for (std::size_t i = 0; i < blocks_live_; ++i)
      bigger[i] = std::move(blocks_[(first_ + i) & (blocks_.size() - 1)]);
    blocks_ = std::move(bigger);
    first_ = 0;
  }
  std::unique_ptr<Block>& slot =
      blocks_[(first_ + blocks_live_) & (blocks_.size() - 1)];
  if (!slot) {
    // First pass over this ring position: blocks are refilled in place and
    // never freed.
    slot = std::make_unique<Block>();
  }
  back_ = slot.get();
  if (blocks_live_++ == 0) front_ = back_;
  tail_ = 0;
}

}  // namespace qoesim::net
