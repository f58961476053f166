#include "tcp/tcp_socket.hpp"

#include <algorithm>
#include <sstream>
#include <tuple>

namespace qoesim::tcp {

TcpSocket::TcpSocket(Passkey, net::Node& node, net::NodeId remote,
                     std::uint32_t local_port, std::uint32_t remote_port,
                     TcpConfig config, Callbacks callbacks)
    : node_(node),
      sim_(node.sim()),
      arena_(node.flow_arena().ref()),
      remote_(remote),
      local_port_(local_port),
      remote_port_(remote_port),
      config_(config),
      callbacks_(std::move(callbacks)),
      flow_id_(sim_.next_flow_id()),
      rtt_(config.rtt),
      cc_(make_congestion_control_in(
          cc_box_, config.cc, static_cast<double>(config.mss),
          config.initial_cwnd_segments * static_cast<double>(config.mss))) {}

TcpSocket::~TcpSocket() {
  cancel_rto();
  delack_timer_.cancel();
  pacing_timer_.cancel();
  release_cold();
  cc_->~CongestionControl();
}

TcpSocket::TcpCold& TcpSocket::cold() {
  if (cold_ == nullptr) {
    cold_ = new (arena_.cold_alloc(sizeof(TcpCold))) TcpCold();
    ++stats_.cold_attaches;
    stats_.cold_bytes = sizeof(TcpCold);
  }
  return *cold_;
}

void TcpSocket::release_cold() {
  if (cold_ == nullptr) return;
  cold_->~TcpCold();
  arena_.cold_free(cold_);
  cold_ = nullptr;
  stats_.cold_bytes = 0;
}

void TcpSocket::maybe_release_cold() {
  if (cold_ == nullptr || hot_.in_recovery) return;
  if (!cold_->sacked.empty() || !cold_->ooo.empty() ||
      !cold_->rtx_marked.empty()) {
    return;
  }
  release_cold();
}

/// Pooled open: control block + socket in one FlowArena slot; the arena
/// then adopts the socket (strong ref + generation-stamped handle) so
/// demux handlers and timers can capture {arena ref, handle} instead of a
/// shared/weak_ptr.
std::shared_ptr<TcpSocket> TcpSocket::make_pooled(net::Node& node,
                                                  net::NodeId remote,
                                                  std::uint32_t local_port,
                                                  std::uint32_t remote_port,
                                                  TcpConfig config,
                                                  Callbacks callbacks) {
  core::FlowArena& arena = node.flow_arena();
  auto sock = std::allocate_shared<TcpSocket>(
      core::FlowArena::Allocator<TcpSocket>(arena), Passkey{}, node, remote,
      local_port, remote_port, config, std::move(callbacks));
  sock->handle_ = arena.adopt(sock, sock.get());
  sock->stats_.hot_bytes = arena.stats().slot_bytes;
  return sock;
}

std::shared_ptr<TcpSocket> TcpSocket::connect(net::Node& node,
                                              net::NodeId remote,
                                              std::uint32_t remote_port,
                                              TcpConfig config,
                                              Callbacks callbacks) {
  auto sock = make_pooled(node, remote, node.allocate_port(), remote_port,
                          config, std::move(callbacks));
  sock->start_connect();
  return sock;
}

std::shared_ptr<TcpSocket> TcpSocket::accept(net::Node& node,
                                             const net::Packet& syn,
                                             TcpConfig config,
                                             Callbacks callbacks) {
  auto sock = make_pooled(node, syn.src, syn.tcp.dst_port, syn.tcp.src_port,
                          config, std::move(callbacks));
  sock->start_accept(syn);
  return sock;
}

void TcpSocket::start_connect() {
  // The arena's strong ref keeps the socket alive while bound; the demux
  // entry captures only {arena ref, handle} (fits the handler's inline
  // buffer, so binding a flow does not allocate; see Node::Handler).
  bind_gen_ = node_.bind_connection(
      net::Protocol::kTcp, local_port_, remote_, remote_port_,
      [r = arena_, h = handle_](net::Packet&& p) {
        if (void* s = r.resolve(h)) {
          static_cast<TcpSocket*>(s)->on_packet(std::move(p));
        }
      });
  hot_.bound = true;
  state_ = State::kSynSent;
  syn_sent_at_ = sim_.now();
  send_control(/*syn=*/true, /*ack=*/false, /*fin=*/false);
  arm_rto();
}

void TcpSocket::start_accept(const net::Packet& syn) {
  bind_gen_ = node_.bind_connection(
      net::Protocol::kTcp, local_port_, remote_, remote_port_,
      [r = arena_, h = handle_](net::Packet&& p) {
        if (void* s = r.resolve(h)) {
          static_cast<TcpSocket*>(s)->on_packet(std::move(p));
        }
      });
  hot_.bound = true;
  state_ = State::kSynRcvd;
  syn_sent_at_ = sim_.now();
  hot_.rcv_nxt = syn.tcp.seq + 1;  // SYN consumes one sequence number
  // RFC 3168 §6.1.1: an ECN-setup SYN has both ECE and CWR set; grant only
  // if we are configured for ECN too (the SYN-ACK then carries ECE alone).
  hot_.ecn_ok = config_.ecn && syn.tcp.ece && syn.tcp.cwr;
  send_control(/*syn=*/true, /*ack=*/true, /*fin=*/false);
  arm_rto();
}

void TcpSocket::send(std::uint64_t bytes) {
  if (bytes == 0 || hot_.fin_pending || stats_.aborted) return;
  app_bytes_queued_ += bytes;
  stats_.bytes_sent_app += bytes;
  if (state_ == State::kEstablished) maybe_send_data();
}

void TcpSocket::close() {
  if (hot_.fin_pending || stats_.aborted) return;
  hot_.fin_pending = true;
  if (state_ == State::kEstablished) maybe_send_data();
}

void TcpSocket::abort() {
  if (stats_.aborted || stats_.closed) return;
  stats_.aborted = true;
  finish_close();
}

std::uint64_t TcpSocket::unsent_bytes() const {
  const std::uint64_t data_end = 1 + app_bytes_queued_;
  return data_end > hot_.snd_nxt_data ? data_end - hot_.snd_nxt_data : 0;
}

void TcpSocket::on_packet(net::Packet&& p) {
  if (state_ == State::kClosed) return;

  const net::TcpSegment& seg = p.tcp;

  // Handshake transitions.
  if (state_ == State::kSynSent) {
    if (seg.syn && seg.has_ack && seg.ack >= 1) {
      // RFC 3168 §6.1.1: the ECN-setup SYN-ACK sets ECE and clears CWR.
      hot_.ecn_ok = config_.ecn && seg.ece && !seg.cwr;
      hot_.snd_una = 1;
      hot_.rcv_nxt = seg.seq + 1;
      state_ = State::kEstablished;
      stats_.connected = true;
      stats_.established_at = sim_.now();
      stats_.connect_time = sim_.now() - syn_sent_at_;
      if (stats_.timeouts == 0) rtt_.add_sample(sim_.now() - syn_sent_at_);
      cancel_rto();
      send_ack_now();
      if (callbacks_.on_connected) callbacks_.on_connected();
      maybe_send_data();
    }
    return;
  }

  if (state_ == State::kSynRcvd) {
    if (seg.has_ack && seg.ack >= 1) {
      hot_.snd_una = std::max<std::uint64_t>(hot_.snd_una, 1);
      state_ = State::kEstablished;
      stats_.connected = true;
      stats_.established_at = sim_.now();
      stats_.connect_time = sim_.now() - syn_sent_at_;
      if (stats_.timeouts == 0) rtt_.add_sample(sim_.now() - syn_sent_at_);
      cancel_rto();
      if (callbacks_.on_connected) callbacks_.on_connected();
      // fall through: the packet may carry data and a further ACK
    } else if (seg.syn && !seg.has_ack) {
      // Duplicate SYN (our SYN-ACK was lost): re-answer.
      send_control(/*syn=*/true, /*ack=*/true, /*fin=*/false);
      return;
    } else {
      return;
    }
  }

  if (seg.syn) {
    // Duplicate SYN / SYN-ACK after establishment (our ACK was lost):
    // re-acknowledge so the peer leaves its handshake state.
    send_ack_now();
    return;
  }

  if (hot_.ecn_ok) {
    // Receiver half of RFC 3168 §6.1.3: CWR from the peer ends the current
    // echo episode; a CE mark on this very packet starts the next one.
    if (seg.cwr) hot_.ecn_echo_pending = false;
    if (p.ecn == net::Ecn::kCe) {
      hot_.ecn_echo_pending = true;
      ++stats_.ecn_ce_received;
    }
  }

  if (seg.has_ack) handle_ack(p);
  if (seg.payload > 0 || seg.fin) handle_data(p);

  if (state_ != State::kClosed) maybe_send_data();
  check_done();
}

void TcpSocket::handle_ack(const net::Packet& p) {
  const std::uint64_t ack = p.tcp.ack;
  const std::uint64_t una_before = hot_.snd_una;
  std::uint64_t newly_sacked = 0;
  for (std::uint8_t i = 0; i < p.tcp.sack_count; ++i) {
    // RFC 2883 D-SACK: a block at/below the packet's own cumulative ACK
    // reports duplicate receipt, not new delivery. It must not enter the
    // scoreboard -- the blocks are processed before snd_una advances to
    // `ack`, so without this filter the duplicate bytes would count as
    // newly SACKed and double into the delivery rate and the conservation
    // credit below (sack-dsack-ignored.pkt pins the visible effect).
    if (p.tcp.sack[i].end <= ack) continue;
    newly_sacked += cold().sacked.add_block(p.tcp.sack[i].start,
                                            p.tcp.sack[i].end, hot_.snd_una,
                                            hot_.snd_max + 1);  // +1 covers FIN
  }
  // Conservation of packets: what this ACK reports as delivered may be
  // re-spent on retransmissions by maybe_send_data (PRR-style), keeping
  // the link busy through recovery even when the pipe estimate is stuck.
  const std::uint64_t cum_advance = ack > una_before ? ack - una_before : 0;
  conservation_credit_ = static_cast<double>(cum_advance + newly_sacked);
  // Rate estimators see true delivery on every ACK -- recovery included,
  // uncapped by the ABC credit below.
  if (cum_advance + newly_sacked > 0) {
    cc_->on_delivered(static_cast<double>(cum_advance + newly_sacked),
                      sim_.now());
  }
  // RFC 3168 §6.1.2 sender half: an ECE echo is one congestion event per
  // RTT (beta decrease, CWR out, nothing to retransmit). Handled before
  // the window logic so the triggering ACK does not also grow the window.
  bool ecn_reacted = false;
  if (hot_.ecn_ok && p.tcp.ece && !hot_.in_recovery && ack > hot_.ecn_response_end) {
    hot_.ecn_response_end = hot_.snd_max;
    // CWR goes out either way: it terminates the receiver's echo episode
    // even when the controller elects to ignore the mark (BBRv1).
    hot_.cwr_pending = true;
    cc_->on_flight(static_cast<double>(flight_bytes()));
    ecn_reacted = cc_->on_ecn_echo(sim_.now());
    if (ecn_reacted) ++stats_.ecn_responses;
  }
  if (ack > hot_.snd_una) {
    const std::uint64_t old_una = hot_.snd_una;
    hot_.snd_una = ack;
    hot_.dupack_count = 0;
    hot_.consecutive_timeouts = 0;
    rtt_.reset_backoff();
    // New ACK progress re-opens the probe epoch -- but only once the ACK
    // covers everything outstanding when the last probe fired (RFC 8985
    // TLPHighRxt). An ACK for pre-probe data says nothing about the
    // probed tail; re-arming on it sent a duplicate probe 2*sRTT later.
    if (ack >= hot_.tlp_high_seq) {
      hot_.tlp_allowed = true;
      hot_.tlp_high_seq = 0;
    }
    if (cold_ != nullptr) {
      cold_->sacked.prune(hot_.snd_una);
      // Retransmitted holes below the new ack are resolved. (The straddler
      // trim is invisible: every read clamps to [snd_una, high_sack).)
      cold_->rtx_marked.prune_below(hot_.snd_una);
    }
    hot_.rtx_next = std::max(hot_.rtx_next, hot_.snd_una);

    // App-byte accounting (exclude SYN/FIN sequence numbers).
    const std::uint64_t data_end = 1 + app_bytes_queued_;
    const std::uint64_t acked_lo = std::clamp<std::uint64_t>(old_una, 1, data_end);
    const std::uint64_t acked_hi = std::clamp<std::uint64_t>(ack, 1, data_end);
    stats_.bytes_acked += acked_hi - acked_lo;

    // A timeout may have rolled snd_nxt back; never resend acked bytes.
    hot_.snd_nxt_data =
        std::max(hot_.snd_nxt_data, std::min<std::uint64_t>(ack, data_end));

    // The FIN consumes sequence number data_end; an ACK covering it counts
    // even if a timeout rollback temporarily cleared hot_.fin_sent.
    if (hot_.fin_pending && ack >= data_end + 1) {
      hot_.fin_sent = true;
      hot_.fin_seq = data_end;
      hot_.our_fin_acked = true;
    }

    // RTT sample (Karn: probe is disarmed on any retransmission).
    Time rtt_sample = Time::zero();
    bool have_sample = false;
    if (hot_.rtt_probe_armed && ack >= rtt_probe_seq_) {
      rtt_sample = sim_.now() - rtt_probe_sent_;
      rtt_.add_sample(rtt_sample);
      have_sample = true;
      hot_.rtt_probe_armed = false;
    }

    cc_->on_flight(static_cast<double>(flight_bytes()));
    if (hot_.in_recovery) {
      if (ack >= hot_.recover) {
        hot_.in_recovery = false;
        recovery_inflation_ = 0.0;
        if (cold_ != nullptr) cold_->rtx_marked.clear();
        maybe_release_cold();
      } else if (sack_empty()) {
        // NewReno partial ACK (no SACK info): the head segment after `ack`
        // was also lost. Deflate the inflated window by the acked amount,
        // then re-inflate by one MSS (RFC 6582) to preserve self-clocking.
        const auto acked = static_cast<double>(ack - old_una);
        recovery_inflation_ = std::max(
            0.0, recovery_inflation_ - acked + static_cast<double>(config_.mss));
        retransmit_head();
      }
      // With SACK, hole retransmissions are driven by maybe_send_data().
    } else if (!ecn_reacted) {
      // RFC 3465 Appropriate Byte Counting with L=2*SMSS: a huge
      // cumulative ACK (e.g. after a retransmission fills a hole) must not
      // credit the whole jump to the window in one step, or the growth
      // formulas explode and emit line-rate bursts.
      const double abc_bytes = std::min<double>(
          static_cast<double>(ack - old_una), 2.0 * config_.mss);
      cc_->on_ack(abc_bytes, have_sample ? rtt_sample : rtt_.srtt(),
                  sim_.now());
    }

    if (flight_bytes() > 0 || (hot_.fin_sent && !hot_.our_fin_acked)) {
      arm_rto();
    } else if (unsent_bytes() > 0 || (hot_.fin_pending && !hot_.fin_sent)) {
      arm_rto();  // watchdog: data queued but window-blocked
    } else {
      cancel_rto();
    }
  } else if (ack == hot_.snd_una && p.tcp.payload == 0 && !p.tcp.fin &&
             flight_bytes() > 0) {
    ++hot_.dupack_count;
    ++stats_.dup_acks_seen;
    if (hot_.in_recovery) {
      if (sack_empty()) {
        // Every further duplicate ACK means another packet left the
        // network. Bounded by one cwnd so mass loss cannot balloon flight.
        recovery_inflation_ = std::min(
            recovery_inflation_ + static_cast<double>(config_.mss),
            cc_->cwnd_bytes());
      }
      maybe_send_data();
    } else if (hot_.dupack_count >= config_.dupack_threshold ||
               sack_bytes() >= 3ull * config_.mss) {
      enter_recovery();
    }
  }
}

void TcpSocket::enter_recovery() {
  hot_.in_recovery = true;
  hot_.recover = hot_.snd_max;
  if (hot_.fin_sent) hot_.recover = hot_.fin_seq + 1;
  cc_->on_loss_event(sim_.now());
  hot_.rtx_next = hot_.snd_una;
  if (cold_ != nullptr) cold_->rtx_marked.clear();
  rtx_pass_started_ = sim_.now();
  if (sack_empty()) {
    recovery_inflation_ =
        static_cast<double>(config_.dupack_threshold) * config_.mss;
    retransmit_head();
  } else {
    // Fast retransmit proper: the first hole goes out immediately,
    // regardless of the pipe (RFC 6675 step 4.3); further holes are
    // paced by maybe_send_data().
    retransmit_next_hole();
    maybe_send_data();
  }
  arm_rto();
}

double TcpSocket::outstanding_estimate() const {
  // RFC 6675 pipe. Out of recovery only plain flight counts (a stale
  // scoreboard must not block transmission). In recovery, bytes below the
  // SACK high-water mark that are neither SACKed nor freshly
  // retransmitted are presumed lost and leave the pipe, so hole
  // retransmissions are never starved by dead bytes.
  if (!hot_.in_recovery || sack_high() <= hot_.snd_una) {
    return static_cast<double>(flight_bytes());
  }
  // Past the guard the scoreboard is non-empty, so cold_ is attached.
  const std::uint64_t high_sack = cold_->sacked.high();
  const std::uint64_t upper = std::max(hot_.snd_nxt_data, high_sack);
  std::uint64_t pipe = upper > high_sack ? upper - high_sack : 0;
  // Add retransmitted holes still awaiting acknowledgement, minus any
  // parts the receiver has meanwhile SACKed.
  for (const auto& iv : cold_->rtx_marked) {
    const std::uint64_t lo = std::max(iv.start, hot_.snd_una);
    const std::uint64_t hi = std::min(iv.end, high_sack);
    if (hi <= lo) continue;
    pipe += (hi - lo) - cold_->sacked.covered(lo, hi);
  }
  return static_cast<double>(pipe);
}

bool TcpSocket::retransmit_next_hole() {
  if (!hot_.in_recovery || sack_high() <= hot_.snd_una) return false;
  // Past the guard the scoreboard is non-empty, so cold_ is attached.
  SackScoreboard& sacked = cold_->sacked;
  auto [pos, hole_end] =
      sacked.hole_at_or_above(std::max(hot_.rtx_next, hot_.snd_una));
  if (pos >= sacked.high()) {
    hot_.rtx_next = pos;
    // Every hole was retransmitted once this pass. Retransmissions can be
    // lost too; after roughly one RTT without the scoreboard resolving,
    // start a new pass from the bottom (rescue retransmission).
    if (sim_.now() - rtx_pass_started_ > rtt_.srtt() &&
        hot_.snd_una < sacked.high()) {
      rtx_pass_started_ = sim_.now();
      hot_.rtx_next = hot_.snd_una;
      cold_->rtx_marked.clear();  // earlier retransmissions presumed lost too
      std::tie(pos, hole_end) = sacked.hole_at_or_above(hot_.snd_una);
      if (pos >= sacked.high()) return false;
    } else {
      return false;
    }
  }
  const std::uint64_t data_end = 1 + app_bytes_queued_;
  if (pos >= data_end) {
    // Only the FIN remains unsacked below high_sack.
    if (hot_.fin_sent && !hot_.our_fin_acked) {
      send_control(/*syn=*/false, /*ack=*/true, /*fin=*/true);
      hot_.rtx_next = pos + 1;
      ++stats_.retransmits;
      return true;
    }
    return false;
  }
  const auto len = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      {config_.mss, hole_end - pos, data_end - pos}));
  ++stats_.retransmits;
  send_segment(pos, len, /*fin=*/false, /*is_retransmit=*/true);
  hot_.rtx_next = pos + len;
  cold_->rtx_marked.add(pos, pos + len);
  return true;
}

void TcpSocket::retransmit_head() {
  hot_.rtt_probe_armed = false;  // Karn's rule
  ++stats_.retransmits;
  if (hot_.fin_sent && hot_.snd_una == hot_.fin_seq) {
    send_control(/*syn=*/false, /*ack=*/true, /*fin=*/true);
    return;
  }
  const std::uint64_t data_end = 1 + app_bytes_queued_;
  if (hot_.snd_una >= 1 && hot_.snd_una < data_end) {
    const auto len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(config_.mss, data_end - hot_.snd_una));
    send_segment(hot_.snd_una, len, /*fin=*/false, /*is_retransmit=*/true);
  }
}

[[gnu::hot]] void TcpSocket::maybe_send_data() {
  if (state_ != State::kEstablished && state_ != State::kFinWait) return;

  const std::uint64_t data_end = 1 + app_bytes_queued_;
  // RFC 3042 limited transmit: the first duplicate ACKs release one new
  // segment each, keeping the ACK clock alive in small-window regimes so
  // fast retransmit can still trigger.
  const double limited_transmit =
      !hot_.in_recovery && hot_.dupack_count > 0
          ? static_cast<double>(std::min<std::uint32_t>(hot_.dupack_count, 2) *
                                config_.mss)
          : 0.0;
  const double window =
      std::min(cc_->cwnd_bytes() + recovery_inflation_ + limited_transmit,
               static_cast<double>(config_.receive_window));

  // Per-call send budget: everything pushed in this call is charged
  // against the window headroom measured on entry, so one ACK can trigger
  // at most (window - outstanding) bytes regardless of how the estimate
  // reacts to retransmissions or post-timeout rollback re-sends.
  const double outstanding0 = outstanding_estimate();
  const double burst_budget =
      static_cast<double>(config_.max_burst_segments) * config_.mss;
  double sent_this_call = 0.0;

  // Pacing stage (BBR): when the controller reports a pacing rate, each
  // transmission advances a release clock by its serialization time at
  // that rate, and a blocked call re-arms the pacing timer (scheduler
  // reschedule fast path -- no slot churn) instead of bursting the window.
  const double pacing_bps = cc_->pacing_rate_bps();
  const bool paced = pacing_bps > 0.0;
  bool pace_blocked = false;
  auto pace_charge = [&](std::uint32_t wire_bytes) {
    pacing_release_ = std::max(sim_.now(), pacing_release_) +
                      Time::seconds(static_cast<double>(wire_bytes) * 8.0 /
                                    pacing_bps);
  };

  // SACK recovery first: fill holes while the pipe has room.
  while (hot_.in_recovery && outstanding0 + sent_this_call < window &&
         sent_this_call < burst_budget) {
    if (paced && sim_.now() < pacing_release_) {
      pace_blocked = true;
      break;
    }
    if (!retransmit_next_hole()) break;
    if (paced) pace_charge(config_.mss + net::kTcpHeaderBytes);
    sent_this_call += config_.mss;
    arm_rto();
  }

  while (hot_.snd_nxt_data < data_end && !pace_blocked) {
    if (outstanding0 + sent_this_call >= window ||
        sent_this_call >= burst_budget) {
      break;  // window full or burst bound reached
    }
    if (paced && sim_.now() < pacing_release_) {
      pace_blocked = true;
      break;
    }
    const auto len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(config_.mss, data_end - hot_.snd_nxt_data));
    // After a timeout rolled snd_nxt back, re-sent bytes are retransmits
    // (Karn's rule must not sample them).
    const bool is_retransmit = hot_.snd_nxt_data + len <= hot_.snd_max;
    if (is_retransmit) ++stats_.retransmits;
    send_segment(hot_.snd_nxt_data, len, /*fin=*/false, is_retransmit);
    if (paced) pace_charge(len + net::kTcpHeaderBytes);
    hot_.snd_nxt_data += len;
    hot_.snd_max = std::max(hot_.snd_max, hot_.snd_nxt_data);
    sent_this_call += len;
    arm_rto();
  }

  if (pace_blocked) {
    arm_pacer(pacing_release_);
    return;  // the pacer re-enters here once the release clock allows
  }

  // Conservation fallback: if the pipe estimate blocked everything (a
  // dead burst above the SACK high-water mark keeps it inflated until the
  // RTO), spend the delivery credit of the triggering ACK on hole
  // retransmissions -- each delivered byte proves network capacity freed.
  if (hot_.in_recovery && sent_this_call == 0.0 && !sack_empty()) {
    double credit = std::max(conservation_credit_,
                             static_cast<double>(config_.mss));
    conservation_credit_ = 0.0;
    while (credit > 0.0 && retransmit_next_hole()) {
      credit -= static_cast<double>(config_.mss);
      arm_rto();
    }
  }

  if (hot_.fin_pending && !hot_.fin_sent && hot_.snd_nxt_data == data_end) {
    hot_.fin_sent = true;
    hot_.fin_seq = data_end;
    state_ = State::kFinWait;
    send_control(/*syn=*/false, /*ack=*/true, /*fin=*/true);
    arm_rto();
  }
}

namespace {

/// Attach up to three SACK blocks describing the out-of-order intervals
/// (lowest-first, so the peer's scoreboard fills bottom-up). Null means
/// the cold block is detached: nothing out of order, no blocks.
void fill_sack(net::TcpSegment& seg, const IntervalSet* ooo) {
  seg.sack_count = 0;
  if (ooo == nullptr) return;
  for (const auto& iv : *ooo) {
    if (seg.sack_count >= 3) break;
    seg.sack[seg.sack_count++] = net::SackBlock{iv.start, iv.end};
  }
}

}  // namespace

[[gnu::hot]] void TcpSocket::send_segment(std::uint64_t seq,
                                          std::uint32_t len, bool fin,
                                          bool is_retransmit) {
  net::Packet p;
  p.uid = sim_.next_packet_uid();
  p.flow = flow_id_;
  p.src = node_.id();
  p.dst = remote_;
  p.proto = net::Protocol::kTcp;
  p.size_bytes = len + net::kTcpHeaderBytes;
  p.tcp.src_port = local_port_;
  p.tcp.dst_port = remote_port_;
  p.tcp.seq = seq;
  p.tcp.ack = hot_.rcv_nxt;
  p.tcp.has_ack = state_ != State::kSynSent;
  p.tcp.fin = fin;
  p.tcp.payload = len;
  if (p.tcp.has_ack) fill_sack(p.tcp, cold_ ? &cold_->ooo : nullptr);
  if (hot_.ecn_ok) {
    // RFC 3168: data travels as ECT(0); retransmissions must not (§6.1.5).
    if (len > 0 && !is_retransmit) p.ecn = net::Ecn::kEct0;
    if (len > 0 && hot_.cwr_pending) {
      p.tcp.cwr = true;
      hot_.cwr_pending = false;
    }
    p.tcp.ece = p.tcp.has_ack && hot_.ecn_echo_pending;
  }
  p.app.kind = net::AppKind::kBulk;
  p.app.created = sim_.now();
  ++stats_.segments_sent;

  if (!is_retransmit && !hot_.rtt_probe_armed && len > 0) {
    hot_.rtt_probe_armed = true;
    rtt_probe_seq_ = seq + len;
    rtt_probe_sent_ = sim_.now();
  }
  node_.send(std::move(p));
}

void TcpSocket::send_control(bool syn, bool ack, bool fin) {
  net::Packet p;
  p.uid = sim_.next_packet_uid();
  p.flow = flow_id_;
  p.src = node_.id();
  p.dst = remote_;
  p.proto = net::Protocol::kTcp;
  p.size_bytes = net::kTcpHeaderBytes;
  p.tcp.src_port = local_port_;
  p.tcp.dst_port = remote_port_;
  p.tcp.syn = syn;
  p.tcp.fin = fin;
  p.tcp.has_ack = ack;
  p.tcp.ack = ack ? hot_.rcv_nxt : 0;
  p.tcp.seq = syn ? 0 : (fin ? hot_.fin_seq : hot_.snd_nxt_data);
  p.tcp.payload = 0;
  if (ack) fill_sack(p.tcp, cold_ ? &cold_->ooo : nullptr);
  if (syn && !ack) {
    // ECN-setup SYN: ECE+CWR request (RFC 3168 §6.1.1).
    p.tcp.ece = config_.ecn;
    p.tcp.cwr = config_.ecn;
  } else if (syn && ack) {
    p.tcp.ece = hot_.ecn_ok;  // ECN-setup SYN-ACK: ECE alone grants
  } else if (hot_.ecn_ok && ack) {
    p.tcp.ece = hot_.ecn_echo_pending;
  }
  ++stats_.segments_sent;
  node_.send(std::move(p));
}

void TcpSocket::send_ack_now() {
  hot_.pending_ack_segments = 0;
  delack_timer_.cancel();
  send_control(/*syn=*/false, /*ack=*/true, /*fin=*/false);
}

void TcpSocket::schedule_delayed_ack() {
  if (delack_timer_.pending()) return;
  delack_timer_ =
      sim_.after(config_.delayed_ack_timeout, [r = arena_, h = handle_] {
        if (void* s = r.resolve(h)) {
          auto* self = static_cast<TcpSocket*>(s);
          if (self->hot_.pending_ack_segments > 0) self->send_ack_now();
        }
      });
}

void TcpSocket::handle_data(const net::Packet& p) {
  const std::uint64_t seq = p.tcp.seq;
  const std::uint32_t len = p.tcp.payload;

  if (p.tcp.fin) {
    hot_.peer_fin_received = true;  // may still be waiting for earlier data
    hot_.peer_fin_seq = seq + len;
  }

  bool out_of_order = false;
  if (len > 0) {
    if (seq + len <= hot_.rcv_nxt) {
      // Entirely duplicate; re-ACK immediately so the sender can recover.
      out_of_order = true;
    } else if (seq <= hot_.rcv_nxt) {
      hot_.rcv_nxt = seq + len;
      deliver_in_order();
    } else {
      // Gap: stash the interval (per-segment granularity; see TcpCold).
      cold().ooo.note_segment(seq, seq + len);
      out_of_order = true;
    }
  }

  // Consume the FIN once all preceding data has arrived.
  bool fin_consumed = false;
  if (hot_.peer_fin_received && hot_.rcv_nxt == hot_.peer_fin_seq) {
    hot_.rcv_nxt = hot_.peer_fin_seq + 1;
    fin_consumed = true;
  }

  if (fin_consumed) {
    send_ack_now();
    if (callbacks_.on_remote_close) callbacks_.on_remote_close();
    return;
  }

  if (len == 0) {
    if (p.tcp.fin) send_ack_now();  // FIN arrived before missing data
    return;
  }

  if (out_of_order || !config_.delayed_ack) {
    send_ack_now();
    return;
  }
  if (++hot_.pending_ack_segments >= 2) {
    send_ack_now();
  } else {
    schedule_delayed_ack();
  }
}

void TcpSocket::deliver_in_order() {
  // Merge any stored intervals now contiguous with hot_.rcv_nxt.
  if (cold_ != nullptr) {
    IntervalSet& ooo = cold_->ooo;
    while (!ooo.empty() && ooo.front().start <= hot_.rcv_nxt) {
      hot_.rcv_nxt = std::max(hot_.rcv_nxt, ooo.front().end);
      ooo.pop_front();
    }
    maybe_release_cold();
  }
  const std::uint64_t delivered_total = hot_.rcv_nxt - 1;  // data starts at seq 1
  if (delivered_total > stats_.bytes_received) {
    const std::uint64_t newly = delivered_total - stats_.bytes_received;
    stats_.bytes_received = delivered_total;
    if (callbacks_.on_data) callbacks_.on_data(newly);
  }
}

void TcpSocket::arm_rto() {
  // Re-arming a pending timer moves it in place (scheduler fast path, no
  // slot churn); the callback is only rebuilt when the timer has fired or
  // was cancelled.
  const Time deadline = sim_.now() + rtt_.rto();
  if (!rto_timer_.reschedule(deadline)) {
    rto_timer_ = sim_.at(deadline, [r = arena_, h = handle_] {
      if (void* s = r.resolve(h)) static_cast<TcpSocket*>(s)->on_rto();
    });
  }
  arm_tlp();
}

void TcpSocket::cancel_rto() {
  rto_timer_.cancel();
  tlp_timer_.cancel();
}

[[gnu::hot]] void TcpSocket::arm_pacer(Time deadline) {
  // Same re-arm idiom as the RTO: move the pending timer in place
  // (allocation-free fast path), rebuild only after it fired.
  if (!pacing_timer_.reschedule(deadline)) {
    pacing_timer_ = sim_.at(deadline, [r = arena_, h = handle_] {
      if (void* s = r.resolve(h)) {
        static_cast<TcpSocket*>(s)->maybe_send_data();
      }
    });
  }
}

void TcpSocket::arm_tlp() {
  // No probe during fast recovery: loss is already being repaired, so a
  // pending timer would only fire into the on_tlp() recovery guard.
  if (!config_.enable_tlp || !hot_.tlp_allowed || hot_.in_recovery ||
      !rtt_.has_samples() ||
      (state_ != State::kEstablished && state_ != State::kFinWait)) {
    tlp_timer_.cancel();
    return;
  }
  // PTO = 2 * sRTT, kept comfortably below the RTO so the probe fires
  // first; skip if the RTO would win anyway.
  const Time pto = std::max(rtt_.srtt() * 2.0, Time::milliseconds(10));
  if (pto >= rtt_.rto()) {
    tlp_timer_.cancel();
    return;
  }
  const Time deadline = sim_.now() + pto;
  if (!tlp_timer_.reschedule(deadline)) {
    tlp_timer_ = sim_.at(deadline, [r = arena_, h = handle_] {
      if (void* s = r.resolve(h)) static_cast<TcpSocket*>(s)->on_tlp();
    });
  }
}

void TcpSocket::on_tlp() {
  if (state_ == State::kClosed || hot_.in_recovery) return;
  if (flight_bytes() == 0) return;
  // Probe with the highest outstanding segment: if the tail was lost, the
  // probe's (duplicate) arrival produces SACK information that starts
  // normal fast recovery instead of waiting for the RTO.
  hot_.tlp_allowed = false;
  hot_.tlp_high_seq = hot_.snd_nxt_data;
  ++stats_.tlp_probes;
  const std::uint64_t data_end = 1 + app_bytes_queued_;
  const std::uint64_t upper = std::min(hot_.snd_nxt_data, data_end);
  if (upper <= hot_.snd_una) {
    if (hot_.fin_sent && !hot_.our_fin_acked) {
      send_control(/*syn=*/false, /*ack=*/true, /*fin=*/true);
    }
    return;
  }
  const std::uint64_t len64 =
      std::min<std::uint64_t>(config_.mss, upper - hot_.snd_una);
  const std::uint64_t seq = upper - len64;
  send_segment(seq, static_cast<std::uint32_t>(len64), /*fin=*/false,
               /*is_retransmit=*/true);
}

void TcpSocket::on_rto() {
  if (state_ == State::kClosed) return;
  ++stats_.timeouts;
  rtt_.backoff();
  // RFC 8985 §7.3: the RTO ends the probe epoch. Without this, arm_rto()
  // below re-arms the TLP timer whenever PTO < backed-off RTO, and the
  // probe fires 2*sRTT after the timeout retransmission, racing the
  // retransmission timer before any new ACK progress (tlp-and-rto.pkt).
  // handle_ack re-enables the probe on the next cumulative advance.
  hot_.tlp_allowed = false;

  // Give up on connections making no progress (peer gone / persistent
  // blackhole), like a kernel's retransmission limit.
  if (++hot_.consecutive_timeouts > 12) {
    abort();
    return;
  }

  if (state_ == State::kSynSent) {
    if (stats_.timeouts > 6) {  // connect gives up after ~6 attempts
      abort();
      return;
    }
    send_control(/*syn=*/true, /*ack=*/false, /*fin=*/false);
    arm_rto();
    return;
  }
  if (state_ == State::kSynRcvd) {
    send_control(/*syn=*/true, /*ack=*/true, /*fin=*/false);
    arm_rto();
    return;
  }

  if (flight_bytes() == 0 && !(hot_.fin_sent && !hot_.our_fin_acked)) {
    // Watchdog path: nothing in flight but data is queued (the window was
    // blocked, e.g. by a stale recovery scoreboard). Reset and kick.
    if (unsent_bytes() > 0 || (hot_.fin_pending && !hot_.fin_sent)) {
      hot_.in_recovery = false;
      recovery_inflation_ = 0.0;
      if (cold_ != nullptr) cold_->sacked.clear();
      maybe_release_cold();
      maybe_send_data();
      if (flight_bytes() > 0 || (hot_.fin_sent && !hot_.our_fin_acked)) arm_rto();
    }
    return;
  }

  cc_->on_timeout(sim_.now());
  hot_.in_recovery = false;
  recovery_inflation_ = 0.0;
  hot_.dupack_count = 0;
  hot_.rtt_probe_armed = false;  // Karn
  // Conservatively forget SACK state (the scoreboard may be stale).
  if (cold_ != nullptr) {
    cold_->sacked.clear();
    cold_->rtx_marked.clear();
    maybe_release_cold();  // ooo may still hold receiver-side intervals
  }

  const std::uint64_t data_end = 1 + app_bytes_queued_;
  if (hot_.snd_una >= 1 && hot_.snd_una < data_end) {
    // Go-back-N: after a timeout everything unacknowledged is presumed
    // lost; roll snd_nxt back so the slow-start restart retransmits the
    // whole window progressively (classic RTO recovery).
    hot_.snd_nxt_data = hot_.snd_una;
    if (hot_.fin_sent && !hot_.our_fin_acked) hot_.fin_sent = false;
    maybe_send_data();
  } else {
    retransmit_head();  // SYN/FIN-only cases
  }
  arm_rto();
}

void TcpSocket::check_done() {
  if (state_ == State::kClosed) return;
  const bool send_done = hot_.fin_sent && hot_.our_fin_acked;
  const bool recv_done =
      hot_.peer_fin_received && hot_.rcv_nxt == hot_.peer_fin_seq + 1;
  if (send_done && recv_done) finish_close();
}

void TcpSocket::finish_close() {
  if (state_ == State::kClosed && stats_.closed) return;
  state_ = State::kClosed;
  stats_.closed = true;
  stats_.closed_at = sim_.now();
  cancel_rto();
  delack_timer_.cancel();
  pacing_timer_.cancel();
  if (hot_.bound) {
    hot_.bound = false;
    // Defer the unbind and the arena release: the arena's slot ref is what
    // keeps us alive, and the demux handler (or a timer) resolving our
    // handle may be the frame on the stack right now. The unbind is
    // gen-checked, so a new flow rebinding the same 4-tuple at this very
    // timestamp is not erased; the release bumps the slot generation, so
    // every outstanding capture of our handle resolves to null from here
    // on (and may destroy the socket, unless the application still holds
    // its shared_ptr).
    auto* node = &node_;
    const auto gen = bind_gen_;
    const auto lp = local_port_;
    const auto rn = remote_;
    const auto rp = remote_port_;
    sim_.after(Time::zero(), [node, gen, r = arena_, lp, rn, rp, h = handle_] {
      node->unbind_connection(net::Protocol::kTcp, lp, rn, rp, gen);
      r.release(h);
    });
  }
  if (callbacks_.on_closed) callbacks_.on_closed();
}

std::string TcpSocket::describe() const {
  std::ostringstream out;
  out << "tcp flow=" << flow_id_ << " " << node_.name() << ":" << local_port_
      << " -> node" << remote_ << ":" << remote_port_ << " cc=" << cc_->name();
  return out.str();
}

}  // namespace qoesim::tcp
