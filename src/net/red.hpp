// qoesim -- Random Early Detection (Floyd & Jacobson 1993).
//
// Not used by the paper's testbeds (they are drop-tail), but provided for
// the AQM ablation bench: the paper explicitly motivates AQM work (CoDel)
// as a response to bufferbloat, so we quantify what AQM would have changed.
//
// Spec fidelity: the average queue estimate follows eq. 1-3 of the paper,
// including the idle-period decay avg <- (1-w)^m * avg where m counts the
// packet transmission times that would have fit in the idle gap. The
// transmission-time estimate (the paper's `s`) is taken from the attached
// link's rate via set_drain_rate(); standalone instances fall back to
// RedParams::mean_pkt_time.
#pragma once

#include "core/annotations.hpp"
#include "net/packet_pool.hpp"
#include "net/queue.hpp"
#include "sim/random.hpp"

namespace qoesim::net {

struct RedParams {
  double min_th_fraction = 0.25;  ///< min threshold as fraction of capacity
  double max_th_fraction = 0.75;  ///< max threshold as fraction of capacity
  double max_p = 0.1;             ///< drop probability at max threshold
  double weight = 0.002;          ///< EWMA weight for average queue size
  /// Typical transmission time of one packet (the paper's `s`), used to
  /// convert an idle gap into the number of EWMA steps to decay. Replaced
  /// by kMtuBytes at the link rate when the queue is attached to a Link.
  Time mean_pkt_time = Time::milliseconds(1);
};

/// Shard-plane: the per-link RNG stream draws in FIFO arrival order, so a
/// cross-shard enqueue would silently perturb the drop sequence (and with
/// it every figure) long before it corrupted memory. The draw site asserts
/// the shard capability statically; do_enqueue's caller chain (Link::send)
/// carries the dynamic thread check.
class QOESIM_SHARD_PLANE RedQueue final : public QueueDiscipline {
 public:
  explicit RedQueue(std::size_t capacity_packets, RedParams params = {},
                    std::uint64_t seed = kDefaultSeed);

  /// Seed used when no per-scenario seed is plumbed through make_queue.
  static constexpr std::uint64_t kDefaultSeed = kDefaultQueueSeed;

  std::size_t packet_count() const override { return q_.size(); }
  std::size_t byte_count() const override { return bytes_; }
  std::string name() const override { return "RED"; }

  void set_drain_rate(double bps) override;

  double average_queue() const { return avg_; }

 protected:
  bool do_enqueue(Packet&& p, Time now) override;
  bool do_dequeue(Time now, Packet& out) override;

 private:
  RedParams params_;
  PacketRing q_;
  std::size_t bytes_ = 0;
  double avg_ = 0.0;      // EWMA of the instantaneous queue length (packets)
  std::uint64_t count_since_drop_ = 0;
  // Idle tracking for the (1-w)^m decay: the queue starts idle at t=0.
  bool idle_ = true;
  Time idle_since_;
  RandomStream rng_ QOESIM_GUARDED_BY(::qoesim::shard_plane);
};

}  // namespace qoesim::net
