// qoesim -- TCP connection endpoint.
//
// A full-duplex TCP implementation sufficient for the paper's workloads:
// three-way handshake, cumulative ACKs with delayed-ACK, out-of-order
// reassembly, fast retransmit on three duplicate ACKs with NewReno partial
// ACK handling, RTO with Karn's rule and exponential backoff, FIN-based
// teardown, and pluggable congestion control (Reno/BIC/CUBIC).
//
// Data is modelled as byte counts (no payload content); sequence numbers
// are 64-bit so wrap-around needs no handling.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/annotations.hpp"
#include "core/flow_arena.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/simulation.hpp"
#include "tcp/congestion_control.hpp"
#include "tcp/interval_set.hpp"
#include "tcp/rtt_estimator.hpp"
#include "tcp/sack_scoreboard.hpp"

namespace qoesim::tcp {

struct TcpConfig {
  std::uint32_t mss = net::kDefaultMss;
  CcKind cc = CcKind::kReno;
  double initial_cwnd_segments = 4;
  /// Receive window (bytes); large default emulates window scaling, which
  /// the paper verified was enabled on all testbed hosts.
  std::uint64_t receive_window = 4u * 1024u * 1024u;
  bool delayed_ack = true;
  Time delayed_ack_timeout = Time::milliseconds(40);
  RttEstimator::Config rtt = {};
  std::uint32_t dupack_threshold = 3;
  /// Maximum segments released by one event (ACK arrival, app write,
  /// timer). Linux's equivalent burst bound (tso/pacing heuristics) keeps
  /// window-sized line-rate bursts off slow links; ACK clocking sustains
  /// full throughput regardless.
  std::uint32_t max_burst_segments = 16;
  /// Tail loss probe (Dukkipati et al. 2013, later RFC 8985): after ~2
  /// sRTT of ACK silence, re-send the highest outstanding segment so a
  /// lost tail is repaired through SACK recovery instead of an RTO with
  /// full window collapse.
  bool enable_tlp = true;
  /// RFC 3168 ECN: negotiate on the handshake (both ends must enable it),
  /// send data as ECT(0), echo CE marks as ECE, and react to ECE once per
  /// RTT with a loss-equivalent congestion response (no retransmission).
  bool ecn = false;
};

struct TcpStats {
  std::uint64_t bytes_sent_app = 0;   ///< app bytes submitted
  std::uint64_t bytes_acked = 0;      ///< app bytes acked by peer
  std::uint64_t bytes_received = 0;   ///< in-order app bytes delivered
  std::uint64_t segments_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t tlp_probes = 0;
  std::uint64_t dup_acks_seen = 0;
  std::uint64_t ecn_ce_received = 0;   ///< CE-marked packets seen (receiver)
  std::uint64_t ecn_responses = 0;     ///< ECE-triggered cwnd reductions
  /// Per-flow resident memory (the "flow lifecycle & memory contract"
  /// README section): hot is the pooled arena slot (control block +
  /// socket, constant per node), cold the lazily attached loss/reorder
  /// block (0 while detached -- the steady-state figure).
  std::uint64_t hot_bytes = 0;
  std::uint64_t cold_bytes = 0;
  std::uint64_t cold_attaches = 0;  ///< times the cold block was (re)attached
  Time connect_time = Time::zero();     ///< SYN -> established
  Time established_at = Time::zero();
  Time closed_at = Time::zero();
  bool connected = false;
  bool closed = false;
  bool aborted = false;
};

/// Shard-plane: a socket is driven entirely by its node's shard (timers
/// fire inside the owning epoch, segments arrive through Node's demux,
/// whose entry points carry the dynamic thread check). Marked so
/// qoesim_lint's shard-state check patrols new members for unannotated
/// shared-ownership state.
///
/// Memory contract (README "flow lifecycle & memory contract"): a socket
/// lives in one pooled slot of its node's FlowArena -- control block and
/// object in a single fixed-size allocation (std::allocate_shared), the
/// congestion controller placement-constructed in an inline box, and the
/// loss/reorder machinery in a lazily attached cold block that returns to
/// the arena when the flow is back in steady state. Demux handlers and
/// timers capture a generation-stamped FlowHandle (stale resolves to
/// null), not a shared/weak_ptr.
class QOESIM_SHARD_PLANE TcpSocket {
  /// Passkey: the constructor must be public for std::allocate_shared but
  /// is only callable through connect()/accept().
  struct Passkey {
    explicit Passkey() = default;
  };

 public:
  /// Callbacks an application can hook. All optional.
  struct Callbacks {
    std::function<void()> on_connected;
    std::function<void(std::uint64_t bytes)> on_data;  ///< in-order delivery
    std::function<void()> on_remote_close;             ///< FIN received
    std::function<void()> on_closed;  ///< both directions closed (or abort)
  };

  /// Active open: allocates an ephemeral local port and sends a SYN.
  static std::shared_ptr<TcpSocket> connect(net::Node& node,
                                            net::NodeId remote,
                                            std::uint32_t remote_port,
                                            TcpConfig config = {},
                                            Callbacks callbacks = {});

  /// Passive open (used by TcpServer): responds to `syn` with SYN-ACK.
  static std::shared_ptr<TcpSocket> accept(net::Node& node,
                                           const net::Packet& syn,
                                           TcpConfig config,
                                           Callbacks callbacks);

  /// Cache-packed hot sequencing state: the fields every per-ACK /
  /// per-segment decision reads, gathered into two cache lines. The rest
  /// of the socket (timers, RTT estimator, pacing clock, controller box,
  /// config, callbacks) sits warm in the same pooled slot; the cold
  /// loss/reorder block lives behind cold_.
  struct TcpHot {
    // ---- send side (sequence space: SYN=0, data starts at 1) ----
    std::uint64_t snd_una = 0;       ///< oldest unacknowledged seq
    std::uint64_t snd_nxt_data = 1;  ///< next new data seq to send
    std::uint64_t snd_max = 1;       ///< highest data seq ever sent (+1)
    std::uint64_t rcv_nxt = 0;  ///< next expected peer seq (0 until SYN seen)
    std::uint64_t recover = 0;  ///< NewReno recovery point
    std::uint64_t rtx_next = 0;  ///< next hole candidate this episode
    /// snd_nxt at the moment the last probe fired (RFC 8985's TLPHighRxt):
    /// the episode stays closed until the cumulative ACK reaches it, so an
    /// ACK for pre-probe data cannot re-arm a second probe of the same tail.
    std::uint64_t tlp_high_seq = 0;
    /// Highest data seq outstanding when the last ECE response was taken;
    /// further echoes are ignored until the ack passes it (once per RTT).
    std::uint64_t ecn_response_end = 0;
    std::uint64_t fin_seq = 0;       ///< sequence number consumed by our FIN
    std::uint64_t peer_fin_seq = 0;
    std::uint32_t dupack_count = 0;
    std::uint32_t consecutive_timeouts = 0;
    std::uint32_t pending_ack_segments = 0;
    bool fin_pending = false;  ///< close() called
    bool fin_sent = false;
    bool in_recovery = false;
    bool tlp_allowed = true;  ///< one probe per ACK-progress epoch
    bool ecn_ok = false;            ///< negotiated on the handshake
    bool ecn_echo_pending = false;  ///< receiver: echo ECE until CWR seen
    bool cwr_pending = false;       ///< sender: set CWR on the next data seg
    bool peer_fin_received = false;
    bool our_fin_acked = false;
    bool bound = false;            ///< demux binding live
    bool rtt_probe_armed = false;  ///< one RTT probe at a time (Karn)
  };
  static_assert(sizeof(TcpHot) <= 128, "hot flow state must stay two cache lines");

  /// Cold per-flow state: loss/reorder machinery a steady-state flow never
  /// touches. Attached from the node's FlowArena cold pool on first use
  /// and handed back once every set drains, so an idle established flow
  /// costs exactly its hot slot.
  struct TcpCold {
    /// SACK scoreboard (RFC 2018/6675): selectively acked intervals above
    /// snd_una for the pipe algorithm.
    SackScoreboard sacked;
    /// Receiver out-of-order [start, end) runs, per-segment granularity
    /// (fill_sack reports them on the wire; see IntervalSet::note_segment).
    IntervalSet ooo;
    /// Hole bytes retransmitted and presumed back in flight; counted into
    /// the pipe until cumulatively acked, SACKed, or given up. Marks
    /// within one pass are disjoint ascending, so the merging set
    /// reproduces the old std::map bookkeeping exactly (reads clamp to
    /// [snd_una, high_sack)).
    IntervalSet rtx_marked;
  };

  /// std::allocate_shared plumbing; use connect()/accept().
  TcpSocket(Passkey, net::Node& node, net::NodeId remote,
            std::uint32_t local_port, std::uint32_t remote_port,
            TcpConfig config, Callbacks callbacks);

  ~TcpSocket();
  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  /// Queue `bytes` of application data for transmission.
  void send(std::uint64_t bytes);
  /// Half-close: FIN after all queued data has been sent.
  void close();
  /// Immediate teardown (no FIN exchange; peer will time out).
  void abort();

  void set_callbacks(Callbacks callbacks) { callbacks_ = std::move(callbacks); }

  bool established() const { return state_ == State::kEstablished; }
  bool fully_closed() const { return state_ == State::kClosed && stats_.closed; }
  /// True once both ends agreed to ECN on the handshake.
  bool ecn_negotiated() const { return hot_.ecn_ok; }

  const TcpStats& stats() const { return stats_; }
  const RttEstimator& rtt() const { return rtt_; }
  const CongestionControl& congestion() const { return *cc_; }
  net::FlowId flow_id() const { return flow_id_; }
  std::uint32_t local_port() const { return local_port_; }
  std::uint32_t remote_port() const { return remote_port_; }
  net::NodeId remote_node() const { return remote_; }
  std::string describe() const;

  /// Bytes of queued app data not yet transmitted for the first time.
  std::uint64_t unsent_bytes() const;
  /// Bytes in flight (sent, not cumulatively acked). snd_una can overtake
  /// snd_nxt_data by one when our FIN's sequence number is acknowledged.
  std::uint64_t flight_bytes() const {
    return hot_.snd_una < hot_.snd_nxt_data
               ? hot_.snd_nxt_data - hot_.snd_una
               : 0;
  }

 private:
  enum class State {
    kClosed,
    kSynSent,
    kSynRcvd,
    kEstablished,
    kFinWait,    // our FIN sent, waiting for its ACK and/or peer FIN
    kTimeWait,
  };

  static std::shared_ptr<TcpSocket> make_pooled(net::Node& node,
                                                net::NodeId remote,
                                                std::uint32_t local_port,
                                                std::uint32_t remote_port,
                                                TcpConfig config,
                                                Callbacks callbacks);

  void start_connect();
  void start_accept(const net::Packet& syn);
  void on_packet(net::Packet&& p);
  void handle_ack(const net::Packet& p);
  void handle_data(const net::Packet& p);
  void maybe_send_data();
  /// Bytes believed to be in the network (pipe algorithm under SACK
  /// recovery, plain flight otherwise).
  double outstanding_estimate() const;
  /// Retransmit the first un-sacked hole at/above rtx_next_; false if none.
  bool retransmit_next_hole();
  void send_segment(std::uint64_t seq, std::uint32_t len, bool fin,
                    bool is_retransmit);
  void send_control(bool syn, bool ack, bool fin);
  /// Arm/move the pacing timer; fires maybe_send_data at `deadline`.
  void arm_pacer(Time deadline);
  void send_ack_now();
  void schedule_delayed_ack();
  void enter_recovery();
  void retransmit_head();
  void arm_rto();
  void cancel_rto();
  void on_rto();
  void arm_tlp();
  void on_tlp();
  void check_done();
  void finish_close();
  void deliver_in_order();

  /// Lazily attach the cold block (first loss/reorder event).
  TcpCold& cold();
  /// Destroy and return the cold block to the arena pool.
  void release_cold();
  /// Hand the cold block back once every set drained (steady state again).
  void maybe_release_cold();
  // Null-safe cold reads for the hot paths (detached == empty).
  bool sack_empty() const { return cold_ == nullptr || cold_->sacked.empty(); }
  std::uint64_t sack_high() const { return cold_ ? cold_->sacked.high() : 0; }
  std::uint64_t sack_bytes() const {
    return cold_ ? cold_->sacked.bytes() : 0;
  }

  net::Node& node_;
  Simulation& sim_;
  /// Arena token (shares slab ownership) + our generation-stamped slot.
  /// Demux handlers and timers capture copies of these two instead of a
  /// shared/weak_ptr; finish_close releases the handle, making every
  /// outstanding capture resolve to null.
  core::FlowArena::Ref arena_;
  core::FlowHandle handle_;
  std::uint64_t bind_gen_ = 0;  ///< demux generation of our binding
  net::NodeId remote_;
  std::uint32_t local_port_;
  std::uint32_t remote_port_;
  TcpConfig config_;
  Callbacks callbacks_;
  net::FlowId flow_id_;

  State state_ = State::kClosed;
  RttEstimator rtt_;

  /// Cache-packed sequencing core (see TcpHot).
  TcpHot hot_;

  // ---- warm state: touched per event, but not by every decision ----
  std::uint64_t app_bytes_queued_ = 0;  ///< total app bytes submitted
  /// RFC 5681 window inflation during fast recovery: each duplicate ACK
  /// signals a departed packet, permitting new data to keep the pipe full.
  /// Only used when the peer supplies no SACK information.
  double recovery_inflation_ = 0.0;
  /// Bytes delivered by the most recent ACK (cumulative advance + newly
  /// SACKed); entitles the conservation fallback to an equal amount of
  /// retransmission even when the pipe estimate is jammed by dead bytes.
  double conservation_credit_ = 0.0;
  Time rtx_pass_started_;  ///< start of the current hole pass

  // RTT probe (one at a time; Karn's rule -- armed flag lives in hot_).
  std::uint64_t rtt_probe_seq_ = 0;
  Time rtt_probe_sent_;

  EventHandle rto_timer_;
  EventHandle delack_timer_;
  EventHandle tlp_timer_;

  // ---- pacing (BBR) ----
  /// Earliest time the next paced segment may leave; advanced by each
  /// transmission at the controller's pacing rate.
  Time pacing_release_;
  EventHandle pacing_timer_;

  TcpStats stats_;
  Time syn_sent_at_;

  /// Lazily attached loss/reorder block; null in steady state.
  TcpCold* cold_ = nullptr;
  /// Congestion controller, placement-constructed in the inline box (no
  /// satellite heap object; the variant still dispatches virtually).
  alignas(std::max_align_t) unsigned char cc_box_[kCcBoxBytes];
  CongestionControl* cc_;
};

}  // namespace qoesim::tcp
