#include "net/mailbox.hpp"

#include "net/node.hpp"

#include <utility>

namespace qoesim::net {

void MailboxInbox::admit(Time when, std::uint64_t seq, Packet&& p) {
  if (size_ == buf_.size()) {
    // Grow to the next power of two, unrolling the ring so the live
    // entries occupy [0, size_) -- same idiom as WireRing::push, with
    // moves because entries carry a Packet.
    std::vector<Entry> bigger(buf_.empty() ? 8 : buf_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i)
      bigger[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    buf_ = std::move(bigger);
    head_ = 0;
  }
  const bool was_idle = size_ == 0;
  buf_[(head_ + size_) & (buf_.size() - 1)] =
      Entry{when, seq, std::move(p)};
  ++size_;
  if (was_idle) arm(when, seq);
}

void MailboxInbox::arm(Time when, std::uint64_t seq) {
  // Always a fresh packet-lane post at the entry's reserved seq (the
  // pooled re-arm idiom shared with Link::arm_delivery); no handle,
  // because the event is never moved or cancelled.
  sim_.scheduler().post_at_seq(when, seq, [this] {
    sim_.shard().assert_held();  // event fires inside the owning epoch
    deliver_front();
  });
}

[[gnu::hot]] void MailboxInbox::deliver_front() {
  Entry& front = buf_[head_];
  Packet p = std::move(front.packet);
  head_ = (head_ + 1) & (buf_.size() - 1);
  --size_;
  dest_.receive(std::move(p));
  if (size_ != 0) {
    const Entry& next = buf_[head_];
    arm(next.when, next.seq);
  }
}

}  // namespace qoesim::net
