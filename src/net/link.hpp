// qoesim -- unidirectional link with an egress buffer.
//
// A Link models one direction of a physical link: packets offered while the
// transmitter is busy wait in the queue discipline; serialization takes
// size/rate; delivery happens one propagation delay after serialization
// completes. This is where all queueing delay and packet loss in the
// simulated testbeds arise (the paper's "bottleneck interface").
//
// In-flight packets wait in one per-link FIFO of {packet, reserved seq,
// deliver_at} entries (an InFlightRing, see packet_pool.hpp): propagating
// packets in front, the serializing one at the back. Scheduler callbacks
// capture only the link, steady-state forwarding performs no heap
// allocation, and one delivery event per link drains the front instead of
// one propagation event per packet. A packet offered to an idle link
// passes its queue discipline straight into the FIFO
// (QueueDiscipline::pass_idle; one copy for drop-tail); one offered to a
// busy link is copied into the queue and, on dequeue, into the FIFO.
// Delivery hands the front entry to the sink in place.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/annotations.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "net/queue.hpp"
#include "sim/simulation.hpp"
#include "stats/summary.hpp"

namespace qoesim::net {

class ShardMailbox;

/// Shard-plane: a link's in-flight FIFO and queue discipline belong to the
/// shard running its simulation. send() asserts the capability; the
/// internal tx/delivery machinery requires it statically.
class QOESIM_SHARD_PLANE Link {
 public:
  using DeliverFn = std::function<void(Packet&&)>;
  /// Observer invoked when a packet finishes serialization (tx'd onto the
  /// wire). Used by LinkMonitor for utilization accounting.
  using TxObserver = std::function<void(const Packet&, Time)>;

  /// In-flight FIFO counters (for the zero-allocation forwarding tests).
  struct PoolStats {
    std::uint64_t acquired = 0;  ///< packets that started serializing
    std::uint64_t released = 0;  ///< ...and have left the FIFO since
    /// Blocks the FIFO has allocated. Constant in steady state.
    std::uint64_t slab_growths = 0;
    std::uint64_t peak_in_flight = 0;
  };

  Link(Simulation& sim, std::string name, double rate_bps, Time prop_delay,
       std::unique_ptr<QueueDiscipline> queue);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Bind the receiving side (typically Node::receive of the peer). The
  /// sink gets the packet in its in-flight entry and may send on this same
  /// link: entries never move while the FIFO grows.
  void set_sink(DeliverFn sink) { sink_ = std::move(sink); }
  /// Cross-shard (mailbox) delivery: packets that finish serialization
  /// leave the in-flight FIFO and are pushed into `mailbox` with their
  /// arrival timestamp; the destination shard's barrier drain
  /// materializes the delivery events.
  /// Takes precedence over the sink. rx observers do not fire on this
  /// path (the receive-side tap lives in the destination shard's inbox,
  /// which monitors don't hook; LinkMonitor needs only tx observers).
  /// Throws std::logic_error, naming the link, while packets are riding
  /// the propagation delay: they would never reach either receiver.
  void set_mailbox(ShardMailbox* mailbox);
  /// Register an additional transmission observer (multiple supported:
  /// monitors and tracers can coexist).
  void add_tx_observer(TxObserver obs) {
    tx_observers_.push_back(std::move(obs));
  }
  /// Register a delivery observer, invoked when a packet finishes
  /// propagation, just before it is handed to the sink (the receive-side
  /// tap point tracers use to measure one-way link latency).
  void add_rx_observer(TxObserver obs) {
    rx_observers_.push_back(std::move(obs));
  }
  /// From now on, add each packet's time spent waiting in the buffer
  /// (seconds, excluding serialization) to `*stats` as it starts
  /// serializing. LinkMonitor is the caller; a second, different `stats`
  /// throws std::logic_error naming the link.
  void set_queue_delay_stats(stats::RunningStats* stats);

  /// Offer a packet for transmission (enqueue; may drop).
  void send(Packet&& p);

  Time serialization_time(std::uint32_t bytes) const {
    return Time::seconds(static_cast<double>(bytes) * 8.0 / rate_bps_);
  }

  const std::string& name() const { return name_; }
  double rate_bps() const { return rate_bps_; }
  Time prop_delay() const { return prop_delay_; }
  bool transmitting() const { return busy_; }

  QueueDiscipline& queue() { return *queue_; }
  const QueueDiscipline& queue() const { return *queue_; }

  std::uint64_t delivered_packets() const { return delivered_packets_; }
  std::uint64_t delivered_bytes() const { return delivered_bytes_; }

  PoolStats pool_stats() const;
  /// Packets currently riding the propagation delay.
  std::size_t wire_depth() const {
    return in_flight_.size() - (busy_ ? 1 : 0);
  }

 private:
  void start_tx() QOESIM_REQUIRES_SHARD;
  void on_tx_complete() QOESIM_REQUIRES_SHARD;
  void arm_delivery(const InFlight& entry) QOESIM_REQUIRES_SHARD;
  void deliver_front() QOESIM_REQUIRES_SHARD;

  // What a hop touches comes first, so it shares the first cache lines.
  Simulation& sim_;
  std::unique_ptr<QueueDiscipline> queue_;
  InFlightRing in_flight_;
  bool busy_ = false;  // the back entry of in_flight_ is serializing
  Time prop_delay_;
  double rate_bps_;
  std::uint64_t delivered_packets_ = 0;
  std::uint64_t delivered_bytes_ = 0;
  std::uint64_t peak_in_flight_ = 0;
  ShardMailbox* mailbox_ = nullptr;
  stats::RunningStats* queue_delay_ = nullptr;
  DeliverFn sink_;
  std::vector<TxObserver> tx_observers_;
  std::vector<TxObserver> rx_observers_;
  std::string name_;
};

}  // namespace qoesim::net
