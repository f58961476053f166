#include "net/packet_pool.hpp"

#include <algorithm>
#include <utility>

namespace qoesim::net {

[[gnu::hot]] PacketPool::SlotId PacketPool::acquire(Packet&& p) {
  ++stats_.acquired;
  stats_.peak_in_flight =
      std::max<std::uint64_t>(stats_.peak_in_flight, in_flight());
  if (!free_.empty()) {
    const SlotId slot = free_.back();
    free_.pop_back();
    slots_[slot] = std::move(p);
    return slot;
  }
  ++stats_.slab_growths;
  const SlotId slot = static_cast<SlotId>(slots_.size());
  slots_.push_back(std::move(p));
  // The free stack can hold at most one entry per slot; reserving alongside
  // the slab keeps release() allocation-free.
  free_.reserve(slots_.size());
  return slot;
}

[[gnu::hot]] Packet PacketPool::release(SlotId slot) {
  ++stats_.released;
  // Capacity reserved in acquire(): never reallocates.
  free_.push_back(slot);
  return std::move(slots_[slot]);
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
