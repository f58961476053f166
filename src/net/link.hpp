// qoesim -- unidirectional link with an egress buffer.
//
// A Link models one direction of a physical link: packets offered while the
// transmitter is busy wait in the queue discipline; serialization takes
// size/rate; delivery happens one propagation delay after serialization
// completes. This is where all queueing delay and packet loss in the
// simulated testbeds arise (the paper's "bottleneck interface").
//
// In-flight packets (serializing or propagating) live in a per-link
// PacketPool and are referenced by slot id from scheduler callbacks, so
// steady-state forwarding performs no heap allocation. Packets on the wire
// wait in a WireRing drained by a single delivery event per link instead of
// one propagation event per packet (see packet_pool.hpp).
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

/// Shard-plane: a link's pool, ring, and queue discipline belong to the
/// shard running its simulation. send() asserts the capability; the
/// internal tx/delivery machinery requires it statically.
class QOESIM_SHARD_PLANE Link {
 public:
  using DeliverFn = std::function<void(Packet&&)>;
  /// Observer invoked when a packet finishes serialization (tx'd onto the
  /// wire). Used by LinkMonitor for utilization accounting.
  using TxObserver = std::function<void(const Packet&, Time)>;

  Link(Simulation& sim, std::string name, double rate_bps, Time prop_delay,
       std::unique_ptr<QueueDiscipline> queue);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Bind the receiving side (typically Node::receive of the peer).
  void set_sink(DeliverFn sink) { sink_ = std::move(sink); }
  /// Cross-shard (mailbox) delivery: packets that finish serialization
  /// are released from the pool and pushed into `mailbox` with their
  /// arrival timestamp instead of riding the in-scheduler WireRing; the
  /// destination shard's barrier drain materializes the delivery events.
  /// Takes precedence over the sink. rx observers do not fire on this
  /// path (the receive-side tap lives in the destination shard's inbox,
  /// which monitors don't hook; LinkMonitor needs only tx observers).
  void set_mailbox(ShardMailbox* mailbox) { mailbox_ = mailbox; }
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

  /// Per-packet time spent waiting in the buffer (excludes serialization).
  const stats::RunningStats& queue_delay() const { return queue_delay_; }

  /// In-flight pool counters (for the zero-allocation forwarding tests).
  const PacketPool::Stats& pool_stats() const { return pool_.stats(); }
  /// Packets currently riding the propagation delay.
  std::size_t wire_depth() const { return wire_.size(); }

 private:
  void maybe_start_tx() QOESIM_REQUIRES_SHARD;
  void on_tx_complete(PacketPool::SlotId slot) QOESIM_REQUIRES_SHARD;
  void arm_delivery(const WireRing::Entry& entry) QOESIM_REQUIRES_SHARD;
  void drain_wire() QOESIM_REQUIRES_SHARD;

  Simulation& sim_;
  std::string name_;
  double rate_bps_;
  Time prop_delay_;
  std::unique_ptr<QueueDiscipline> queue_;
  DeliverFn sink_;
  ShardMailbox* mailbox_ = nullptr;
  std::vector<TxObserver> tx_observers_;
  std::vector<TxObserver> rx_observers_;

  PacketPool pool_;  // packets serializing or on the wire
  WireRing wire_;    // FIFO of propagating packets

  bool busy_ = false;
  std::uint64_t delivered_packets_ = 0;
  std::uint64_t delivered_bytes_ = 0;
  stats::RunningStats queue_delay_;
};

}  // namespace qoesim::net
