#include "net/queue.hpp"

#include <stdexcept>

#include "net/codel.hpp"
#include "net/drop_tail.hpp"
#include "net/priority_queue.hpp"
#include "net/red.hpp"

namespace qoesim::net {

[[gnu::hot]] bool QueueDiscipline::enqueue(Packet&& p, Time now) {
  ++stats_.offered;
  stats_.bytes_offered += p.size_bytes;
  p.enqueued_at = now;
  const bool accepted = do_enqueue(std::move(p), now);
  if (accepted) {
    ++stats_.enqueued;
    stats_.max_packets_seen =
        std::max<std::uint64_t>(stats_.max_packets_seen, packet_count());
  }
  return accepted;
}

[[gnu::hot]] bool QueueDiscipline::dequeue(Time now, Packet& out) {
  const bool got = do_dequeue(now, out);
  if (got) ++stats_.dequeued;
  return got;
}

bool QueueDiscipline::pass_idle(Packet&& p, Time now, Packet& out) {
  enqueue(std::move(p), now);
  return dequeue(now, out);
}

void QueueDiscipline::set_tracer(BinaryTracer* tracer, std::uint16_t point) {
  if (tracer_ != nullptr && tracer_ != tracer) {
    throw std::logic_error("queue " + name() +
                           ": already traced by another BinaryTracer");
  }
  tracer_ = tracer;
  trace_point_ = point;
}

std::unique_ptr<QueueDiscipline> make_queue(QueueKind kind,
                                            std::size_t capacity_packets,
                                            std::uint64_t seed) {
  switch (kind) {
    case QueueKind::kDropTail:
      return std::make_unique<DropTailQueue>(capacity_packets);
    case QueueKind::kRed:
      return std::make_unique<RedQueue>(capacity_packets, RedParams{}, seed);
    case QueueKind::kCoDel:
      return std::make_unique<CoDelQueue>(capacity_packets);
    case QueueKind::kPriority:
      return std::make_unique<PriorityQueue>(capacity_packets);
  }
  throw std::invalid_argument("make_queue: unknown kind");
}

const char* to_string(QueueKind kind) {
  switch (kind) {
    case QueueKind::kDropTail: return "DropTail";
    case QueueKind::kRed: return "RED";
    case QueueKind::kCoDel: return "CoDel";
    case QueueKind::kPriority: return "Priority";
  }
  return "?";
}

}  // namespace qoesim::net
