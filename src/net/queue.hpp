// qoesim -- queue discipline interface.
//
// A QueueDiscipline sits in front of a link transmitter; it decides, per
// packet, whether to admit, drop, or (for AQM schemes) mark-by-drop. All
// disciplines share a stats block so the experiment harness can read loss
// rates uniformly. Every drop and CE mark also passes one optional tap, a
// BinaryTracer, so a traced link records them per packet. The paper's
// testbeds use drop-tail buffers sized in packets; RED and CoDel are
// provided for the AQM ablation benchmark.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/packet.hpp"
#include "net/trace_binary.hpp"
#include "sim/time.hpp"

namespace qoesim::net {

struct QueueStats {
  std::uint64_t offered = 0;         ///< enqueue attempts
  std::uint64_t enqueued = 0;        ///< accepted packets
  std::uint64_t dequeued = 0;
  std::uint64_t dropped = 0;         ///< tail drops + AQM drops
  std::uint64_t marked = 0;          ///< CE marks applied instead of drops
  std::uint64_t bytes_offered = 0;
  std::uint64_t bytes_dropped = 0;
  std::uint64_t max_packets_seen = 0;

  double drop_rate() const {
    return offered ? static_cast<double>(dropped) / static_cast<double>(offered)
                   : 0.0;
  }
  double mark_rate() const {
    return offered ? static_cast<double>(marked) / static_cast<double>(offered)
                   : 0.0;
  }
};

class QueueDiscipline {
 public:
  explicit QueueDiscipline(std::size_t capacity_packets)
      : capacity_(capacity_packets) {}
  virtual ~QueueDiscipline() = default;

  QueueDiscipline(const QueueDiscipline&) = delete;
  QueueDiscipline& operator=(const QueueDiscipline&) = delete;

  /// Offer a packet at time `now`. Returns true if admitted. On admission
  /// the packet's `enqueued_at` is stamped for delay accounting.
  bool enqueue(Packet&& p, Time now);

  /// Move the next packet to transmit into `out` and return true, or
  /// return false if there is none. AQM schemes may silently drop head
  /// packets here (counted in stats). A dequeue from an empty queue leaves
  /// `out` untouched, but a caller should still make it: it is how a
  /// discipline learns the transmitter went idle (RED starts its idle
  /// decay, CoDel leaves its dropping state).
  bool dequeue(Time now, Packet& out);

  /// Offer a packet to a link whose transmitter is idle and take the next
  /// packet to transmit into `out`: exactly enqueue(p, now) followed by
  /// dequeue(now, out), which is what the default does. A discipline may
  /// override it to skip its own storage when that gives the same `out`,
  /// the same stats and the same queue state (DropTailQueue does).
  virtual bool pass_idle(Packet&& p, Time now, Packet& out);

  virtual std::size_t packet_count() const = 0;
  virtual std::size_t byte_count() const = 0;
  bool empty() const { return packet_count() == 0; }

  /// Called by the Link this discipline is attached to with the drain rate
  /// of its transmitter. Disciplines that convert times to packet counts
  /// (RED's idle decay) use it; others ignore it.
  virtual void set_drain_rate(double /*bps*/) {}

  /// Enable ECN: AQM schemes (RED, CoDel) CE-mark ECT packets where they
  /// would otherwise early-drop (RFC 3168 §5 / RFC 8289 §4.2). Hard tail
  /// drops of a full buffer still drop, and Not-ECT packets are always
  /// dropped. Disciplines without an early-drop decision ignore the flag.
  virtual void set_ecn_marking(bool on) { ecn_marking_ = on; }
  bool ecn_marking() const { return ecn_marking_; }

  std::size_t capacity_packets() const { return capacity_; }
  const QueueStats& stats() const { return stats_; }
  virtual std::string name() const = 0;

  /// Record every drop and CE mark to `tracer` at `point` (set by
  /// BinaryTracer::observe_link). A queue holds one tracer: a different
  /// one throws std::logic_error instead of taking over the tap.
  void set_tracer(BinaryTracer* tracer, std::uint16_t point);

 protected:
  /// Admission decision + storage; return true if stored.
  virtual bool do_enqueue(Packet&& p, Time now) = 0;
  /// Dequeue into `out`; return false (leaving `out` unspecified if
  /// packets were dropped on the way, untouched otherwise) if nothing is
  /// left to transmit.
  virtual bool do_dequeue(Time now, Packet& out) = 0;

  void count_drop(const Packet& p, Time now) {
    ++stats_.dropped;
    stats_.bytes_dropped += p.size_bytes;
    if (tracer_ != nullptr) {
      tracer_->record(p, now, TraceEvent::kDrop, trace_point_);
    }
  }

  /// True when this packet may be CE-marked instead of dropped.
  bool can_mark(const Packet& p) const {
    return ecn_marking_ && is_ect(p.ecn);
  }

  /// Apply a CE mark in place of a drop (caller keeps/delivers the packet).
  void apply_mark(Packet& p, Time now) {
    p.ecn = Ecn::kCe;
    ++stats_.marked;
    if (tracer_ != nullptr) {
      tracer_->record(p, now, TraceEvent::kMark, trace_point_);
    }
  }

  std::size_t capacity_;
  QueueStats stats_;
  bool ecn_marking_ = false;

 private:
  BinaryTracer* tracer_ = nullptr;
  std::uint16_t trace_point_ = 0;
};

/// Which discipline to instantiate (scenario configuration).
enum class QueueKind { kDropTail, kRed, kCoDel, kPriority };

/// Seed for randomized disciplines when no per-scenario seed is plumbed
/// through make_queue (RedQueue::kDefaultSeed aliases it).
inline constexpr std::uint64_t kDefaultQueueSeed = 0x52454421ull;

/// Instantiate a discipline. `seed` feeds the randomized schemes (RED's
/// drop lottery); callers building per-scenario topologies should derive
/// it from the scenario seed (Topology does) so sweep cells do not share
/// one drop sequence. The default keeps seedless call sites reproducible.
std::unique_ptr<QueueDiscipline> make_queue(
    QueueKind kind, std::size_t capacity_packets,
    std::uint64_t seed = kDefaultQueueSeed);

const char* to_string(QueueKind kind);

}  // namespace qoesim::net
