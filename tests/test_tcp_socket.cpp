// Socket-level regression tests for the fidelity bugs the conformance
// corpus flushed out: the tail-loss-probe epoch across RTOs, and the
// SACK scoreboard's interval arithmetic (merging, D-SACK clamping,
// pruning) checked against a byte-set reference model.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <random>
#include <set>

#include "net/drop_tail.hpp"
#include "tcp/interval_set.hpp"
#include "tcp/sack_scoreboard.hpp"
#include "tcp_test_util.hpp"

namespace qoesim {
namespace {

// ------------------------------------------------------------ scoreboard

TEST(SackScoreboard, MergesAdjacentAndOverlappingBlocks) {
  tcp::SackScoreboard sb;
  EXPECT_EQ(sb.add_block(1000, 2000, 0, 10000), 1000u);
  // Adjacent block: union grows by exactly its own bytes, no double count
  // of the shared edge.
  EXPECT_EQ(sb.add_block(2000, 3000, 0, 10000), 1000u);
  EXPECT_EQ(sb.blocks().size(), 1u);
  EXPECT_EQ(sb.bytes(), 2000u);
  // Overlapping block: only the uncovered part counts as new.
  EXPECT_EQ(sb.add_block(2500, 4000, 0, 10000), 1000u);
  EXPECT_EQ(sb.bytes(), 3000u);
  EXPECT_EQ(sb.high(), 4000u);
  // Fully contained block: nothing new.
  EXPECT_EQ(sb.add_block(1200, 1300, 0, 10000), 0u);
  EXPECT_EQ(sb.bytes(), 3000u);
  EXPECT_EQ(sb.blocks().size(), 1u);
}

TEST(SackScoreboard, BridgingBlockAbsorbsSuccessors) {
  tcp::SackScoreboard sb;
  sb.add_block(1000, 2000, 0, 100000);
  sb.add_block(3000, 4000, 0, 100000);
  sb.add_block(5000, 6000, 0, 100000);
  // One block spanning all three islands: new bytes are just the gaps.
  EXPECT_EQ(sb.add_block(1500, 5500, 0, 100000), 2000u);
  EXPECT_EQ(sb.blocks().size(), 1u);
  EXPECT_EQ(sb.bytes(), 5000u);
}

TEST(SackScoreboard, ClampsToUnaAndLimit) {
  tcp::SackScoreboard sb;
  // A D-SACK-style block entirely below una is dead on arrival.
  EXPECT_EQ(sb.add_block(100, 900, 1000, 10000), 0u);
  EXPECT_TRUE(sb.empty());
  // Straddling blocks are trimmed at both boundaries.
  EXPECT_EQ(sb.add_block(500, 1500, 1000, 10000), 500u);
  EXPECT_EQ(sb.blocks().begin()->start, 1000u);
  EXPECT_EQ(sb.add_block(9500, 20000, 1000, 10000), 500u);
  EXPECT_EQ(sb.high(), 10000u);
}

TEST(SackScoreboard, PruneTrimsStraddlingBlock) {
  tcp::SackScoreboard sb;
  sb.add_block(1000, 2000, 0, 10000);
  sb.add_block(3000, 4000, 0, 10000);
  sb.prune(3500);
  EXPECT_EQ(sb.bytes(), 500u);
  EXPECT_EQ(sb.blocks().begin()->start, 3500u);
  EXPECT_EQ(sb.high(), 4000u);
  sb.prune(4000);
  EXPECT_TRUE(sb.empty());
  EXPECT_EQ(sb.bytes(), 0u);
  EXPECT_EQ(sb.high(), 0u);
}

TEST(SackScoreboard, HoleAtOrAbove) {
  tcp::SackScoreboard sb;
  sb.add_block(2000, 3000, 0, 10000);
  sb.add_block(5000, 6000, 0, 10000);
  // Below the first block: the hole runs up to its start.
  auto [pos, end] = sb.hole_at_or_above(1000);
  EXPECT_EQ(pos, 1000u);
  EXPECT_EQ(end, 2000u);
  // Inside a block: skip to its end; next hole bounded by the next block.
  std::tie(pos, end) = sb.hole_at_or_above(2500);
  EXPECT_EQ(pos, 3000u);
  EXPECT_EQ(end, 5000u);
  // Inside the top block: lands at high() with nothing above.
  std::tie(pos, end) = sb.hole_at_or_above(5500);
  EXPECT_EQ(pos, 6000u);
  EXPECT_EQ(end, 6000u);
}

// Randomized adds/prunes against a plain byte-set model: bytes(),
// high(), covered(), and the add_block return (newly covered bytes)
// must match exactly, and pipe accounting must never leak after prune.
TEST(SackScoreboard, FuzzAgainstByteSetReference) {
  constexpr std::uint64_t kLimit = 20000;
  std::mt19937 rng(20140814);  // fixed seed: deterministic test
  tcp::SackScoreboard sb;
  std::set<std::uint64_t> model;
  std::uint64_t una = 0;

  for (int step = 0; step < 2000; ++step) {
    if (rng() % 4 == 0) {
      una = std::min<std::uint64_t>(una + rng() % 600, kLimit);
      sb.prune(una);
      model.erase(model.begin(), model.lower_bound(una));
    } else {
      const std::uint64_t s = rng() % kLimit;
      const std::uint64_t e = s + 1 + rng() % 1500;
      std::uint64_t newly = 0;
      for (std::uint64_t b = std::max(s, una); b < std::min(e, kLimit); ++b) {
        newly += model.insert(b).second ? 1 : 0;
      }
      EXPECT_EQ(sb.add_block(s, e, una, kLimit), newly) << "step " << step;
    }
    ASSERT_EQ(sb.bytes(), model.size()) << "step " << step;
    ASSERT_EQ(sb.high(), model.empty() ? 0 : *model.rbegin() + 1)
        << "step " << step;
    const std::uint64_t lo = rng() % kLimit;
    const std::uint64_t hi = lo + rng() % 4000;
    const std::uint64_t want =
        static_cast<std::uint64_t>(std::distance(model.lower_bound(lo),
                                                 model.lower_bound(hi)));
    ASSERT_EQ(sb.covered(lo, hi), want) << "step " << step;
  }
}

// The same 2000-step fuzz over the extracted IntervalSet directly: the
// merging add() against the byte-set model (including hole_at_or_above
// every step), proving the scoreboard wrapper adds clamping and nothing
// else on top of the shared merge machinery.
TEST(IntervalSet, FuzzMergeAgainstByteSetReference) {
  constexpr std::uint64_t kLimit = 20000;
  std::mt19937 rng(20140815);  // fixed seed: deterministic test
  tcp::IntervalSet set;
  std::set<std::uint64_t> model;

  for (int step = 0; step < 2000; ++step) {
    if (rng() % 5 == 0) {
      const std::uint64_t lo = rng() % kLimit;
      set.prune_below(lo);
      model.erase(model.begin(), model.lower_bound(lo));
    } else {
      const std::uint64_t s = rng() % kLimit;
      const std::uint64_t e = s + 1 + rng() % 1500;
      std::uint64_t newly = 0;
      for (std::uint64_t b = s; b < e; ++b) {
        newly += model.insert(b).second ? 1 : 0;
      }
      ASSERT_EQ(set.add(s, e), newly) << "step " << step;
    }
    ASSERT_EQ(set.bytes(), model.size()) << "step " << step;
    ASSERT_EQ(set.high(), model.empty() ? 0 : *model.rbegin() + 1)
        << "step " << step;
    // Interval count must match the model's run count (merge correctness).
    std::uint32_t runs = 0;
    std::uint64_t prev = 0;
    bool in_run = false;
    for (std::uint64_t b : model) {
      if (!in_run || b != prev + 1) ++runs;
      in_run = true;
      prev = b;
    }
    ASSERT_EQ(set.size(), runs) << "step " << step;
    const std::uint64_t pos = rng() % kLimit;
    const auto [hole, hole_end] = set.hole_at_or_above(pos);
    if (!model.empty()) {
      ASSERT_FALSE(model.count(hole) && hole < set.high()) << "step " << step;
      ASSERT_GE(hole, pos) << "step " << step;
      // hole_end is meaningful only for holes below the high-water mark;
      // callers check hole >= high() first (retransmit_next_hole).
      if (hole < set.high()) {
        ASSERT_LE(hole, hole_end) << "step " << step;
      }
    }
  }
}

// Segment-granular mode (the receiver's out-of-order buffer) against the
// exact std::map try_emplace/max bookkeeping it replaced: iteration order,
// per-entry extents, and the in-order delivery merge must be identical --
// fill_sack()'s wire format depends on it.
TEST(IntervalSet, FuzzSegmentModeAgainstMapReference) {
  std::mt19937 rng(20140816);
  for (int round = 0; round < 50; ++round) {
    tcp::IntervalSet set;
    std::map<std::uint64_t, std::uint64_t> model;
    for (int step = 0; step < 40; ++step) {
      const std::uint64_t seq = 1 + (rng() % 30) * 1460;
      const std::uint64_t len = (rng() % 3 == 0) ? 730 : 1460;
      set.note_segment(seq, seq + len);
      auto [it, inserted] = model.try_emplace(seq, seq + len);
      if (!inserted) it->second = std::max(it->second, seq + len);

      ASSERT_EQ(set.size(), model.size());
      std::uint32_t i = 0;
      for (const auto& [s, e] : model) {
        ASSERT_EQ(set[i].start, s);
        ASSERT_EQ(set[i].end, e);
        ++i;
      }
    }
    // Replay the deliver_in_order merge both ways from a random cursor.
    std::uint64_t rcv_a = 1 + (rng() % 30) * 1460;
    std::uint64_t rcv_b = rcv_a;
    while (!set.empty() && set.front().start <= rcv_a) {
      rcv_a = std::max(rcv_a, set.front().end);
      set.pop_front();
    }
    for (auto it = model.begin(); it != model.end();) {
      if (it->first <= rcv_b) {
        rcv_b = std::max(rcv_b, it->second);
        it = model.erase(it);
      } else {
        break;
      }
    }
    ASSERT_EQ(rcv_a, rcv_b);
    ASSERT_EQ(set.size(), model.size());
  }
}

// ------------------------------------------------------------ TLP epoch

/// Queue that delivers the first `pass` arrivals, then drops everything.
class BlackholeAfterQueue final : public net::QueueDiscipline {
 public:
  BlackholeAfterQueue(std::size_t capacity, std::uint64_t pass)
      : QueueDiscipline(capacity), pass_(pass) {}

  std::size_t packet_count() const override { return q_.size(); }
  std::size_t byte_count() const override { return bytes_; }
  std::string name() const override { return "BlackholeAfter"; }

 protected:
  bool do_enqueue(net::Packet&& p, Time now) override {
    if (++arrivals_ > pass_ || q_.size() >= capacity_) {
      count_drop(p, now);
      return false;
    }
    bytes_ += p.size_bytes;
    q_.push_back(std::move(p));
    return true;
  }
  bool do_dequeue(Time, net::Packet& out) override {
    if (q_.empty()) return false;
    out = q_.front();
    q_.pop_front();
    bytes_ -= out.size_bytes;
    return true;
  }

 private:
  std::deque<net::Packet> q_;
  std::size_t bytes_ = 0;
  std::uint64_t arrivals_ = 0;
  std::uint64_t pass_;
};

/// Queue that drops the first arrival of each listed TCP sequence.
class SeqOnceDropQueue final : public net::QueueDiscipline {
 public:
  SeqOnceDropQueue(std::size_t capacity, std::set<std::uint64_t> seqs)
      : QueueDiscipline(capacity), seqs_(std::move(seqs)) {}

  std::size_t packet_count() const override { return q_.size(); }
  std::size_t byte_count() const override { return bytes_; }
  std::string name() const override { return "SeqOnceDrop"; }

 protected:
  bool do_enqueue(net::Packet&& p, Time now) override {
    if (p.proto == net::Protocol::kTcp && p.tcp.payload > 0 &&
        seqs_.erase(p.tcp.seq) > 0) {
      count_drop(p, now);
      return false;
    }
    if (q_.size() >= capacity_) {
      count_drop(p, now);
      return false;
    }
    bytes_ += p.size_bytes;
    q_.push_back(std::move(p));
    return true;
  }
  bool do_dequeue(Time, net::Packet& out) override {
    if (q_.empty()) return false;
    out = q_.front();
    q_.pop_front();
    bytes_ -= out.size_bytes;
    return true;
  }

 private:
  std::deque<net::Packet> q_;
  std::size_t bytes_ = 0;
  std::set<std::uint64_t> seqs_;
};

struct LossNet {
  explicit LossNet(std::unique_ptr<net::QueueDiscipline> forward_queue)
      : a(sim, 0, "a"),
        b(sim, 1, "b"),
        ab(sim, "ab", 10e6, Time::milliseconds(10), std::move(forward_queue)),
        ba(sim, "ba", 10e6, Time::milliseconds(10),
           std::make_unique<net::DropTailQueue>(1000)) {
    ab.set_sink([this](net::Packet&& p) { b.receive(std::move(p)); });
    ba.set_sink([this](net::Packet&& p) { a.receive(std::move(p)); });
    a.add_port(&ab);
    a.set_default_route(0);
    b.add_port(&ba);
    b.set_default_route(0);
  }
  Simulation sim;
  net::Node a, b;
  net::Link ab, ba;
};

// Once an RTO fires, the probe epoch is over: however many timeouts the
// blackhole forces, no further TLP may fire until an ACK makes forward
// progress. The bug: on_rto left the epoch open, so every backed-off
// retransmission re-armed a probe 2*sRTT later (PTO < backed-off RTO)
// and tlp_probes grew with the timeout count.
TEST(TcpTlp, ProbeEpochClosedByRto) {
  // Pass SYN + initial window, then drop everything: one probe for the
  // silenced tail, then timeouts with exponential backoff take over.
  LossNet net(std::make_unique<BlackholeAfterQueue>(1000, 5));
  auto server = testutil::make_sink(net.b, 80);
  auto client = tcp::TcpSocket::connect(net.a, 1, 80, {}, {});
  client->send(20 * 1460);
  net.sim.run_until(Time::seconds(30));
  EXPECT_EQ(client->stats().tlp_probes, 1u);
  EXPECT_GE(client->stats().timeouts, 3u);
}

// Cumulative progress re-opens the probe epoch only once the ACK covers
// snd_nxt as of probe time (RFC 8985 TLPHighRxt): two bursts, each with
// only its tail segment lost, must be repaired by exactly two probes
// (one per burst) and no RTO. The bug: an ACK for pre-probe data
// re-armed the timer and the same tail was probed a second time.
TEST(TcpTlp, ProbeReArmedAfterAckProgress) {
  LossNet net(std::make_unique<SeqOnceDropQueue>(
      1000, std::set<std::uint64_t>{3 * 1460 + 1, 7 * 1460 + 1}));
  auto server = testutil::make_sink(net.b, 80);
  auto client = tcp::TcpSocket::connect(net.a, 1, 80, {}, {});
  client->send(4 * 1460);
  net.sim.at(Time::seconds(2), [&] { client->send(4 * 1460); });
  net.sim.run_until(Time::seconds(5));
  EXPECT_EQ(client->stats().bytes_acked, 8u * 1460u);
  EXPECT_EQ(client->stats().tlp_probes, 2u);
  EXPECT_EQ(client->stats().timeouts, 0u);
}

}  // namespace
}  // namespace qoesim
