#include "net/mailbox.hpp"

#include "net/node.hpp"

#include <utility>

namespace qoesim::net {

void MailboxInbox::admit(Time when, std::uint64_t seq, Packet&& p) {
  InFlight& entry = ring_.stage();
  entry.packet = std::move(p);
  entry.seq = seq;
  entry.deliver_at = when;
  ring_.commit();
  if (ring_.size() == 1) arm(entry);
}

void MailboxInbox::arm(const InFlight& entry) {
  // Always a fresh packet-lane post at the entry's reserved seq (the
  // pooled re-arm idiom shared with Link::arm_delivery); no handle,
  // because the event is never moved or cancelled.
  sim_.scheduler().post_at_seq(entry.deliver_at, entry.seq, [this] {
    sim_.shard().assert_held();  // event fires inside the owning epoch
    deliver_front();
  });
}

[[gnu::hot]] void MailboxInbox::deliver_front() {
  // The node reads the packet in its entry, which leaves the ring only
  // once receive() has returned.
  dest_.receive(std::move(ring_.front().packet));
  ring_.pop();
  if (!ring_.empty()) arm(ring_.front());
}

}  // namespace qoesim::net
