#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>

#include "core/annotations.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/queue.hpp"
#include "qoe/g1030.hpp"
#include "qoe/pesq.hpp"
#include "qoe/voip_qoe.hpp"
#include "sim/simulation.hpp"

namespace qoebench {

namespace {

using namespace qoesim;
using Clock = std::chrono::steady_clock;

/// Each probe runs this many times; the fastest repetition is reported.
constexpr int kRepetitions = 5;
/// Operations per repetition.
constexpr std::size_t kOps = 200'000;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

template <typename Once>
double fastest(Once&& once) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < kRepetitions; ++i) best = std::min(best, once());
  return best;
}

/// splitmix64: cheap deterministic inputs for the probe loops.
std::uint64_t mix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Hold model at constant depth: fire the earliest event, schedule one
/// new event a random delay ahead.
double probe_scheduler(std::size_t depth) {
  depth = std::max<std::size_t>(depth, 1);
  return fastest([depth] {
    Scheduler sched;
    std::uint64_t state = 1;
    std::uint64_t fired = 0;
    auto delay = [&state] {
      return Time::nanoseconds(1 + static_cast<std::int64_t>(mix(state) % 1'000'000));
    };
    {
      const ShardGuard guard(&sched.shard());
      for (std::size_t i = 0; i < depth; ++i)
        sched.schedule_in(delay(), [&fired] { ++fired; });
    }
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kOps; ++i) {
      sched.step();
      const ShardGuard guard(&sched.shard());
      sched.schedule_in(delay(), [&fired] { ++fired; });
    }
    return ns_since(t0) / static_cast<double>(std::max<std::uint64_t>(fired, 1));
  });
}

/// Bursts of `buffer` packets into an empty drop-tail link, drained to
/// the sink.
double probe_link(std::size_t buffer) {
  buffer = std::max<std::size_t>(buffer, 1);
  return fastest([buffer] {
    Simulation sim(1);
    net::Link link(sim, "probe", 1e9, Time::microseconds(100),
                   net::make_queue(net::QueueKind::kDropTail, buffer));
    std::uint64_t delivered = 0;
    link.set_sink([&delivered](net::Packet&&) { ++delivered; });
    net::Packet packet;
    packet.src = 0;
    packet.dst = 1;
    packet.size_bytes = net::kMtuBytes;
    const std::size_t bursts = std::max<std::size_t>(1, kOps / buffer);
    const auto t0 = Clock::now();
    for (std::size_t b = 0; b < bursts; ++b) {
      {
        const ShardGuard guard(&sim.shard());
        for (std::size_t i = 0; i < buffer; ++i) {
          net::Packet p = packet;
          link.send(std::move(p));
        }
      }
      sim.run();
    }
    return ns_since(t0) / static_cast<double>(std::max<std::uint64_t>(delivered, 1));
  });
}

/// `flows` exact TCP bindings; packets addressed to random bound flows.
double probe_demux(std::size_t flows) {
  flows = std::max<std::size_t>(flows, 1);
  constexpr std::uint32_t kPortsPerRemote = 50'000;
  return fastest([flows] {
    Simulation sim(1);
    net::Node node(sim, 0, "probe");
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < flows; ++i) {
      node.bind_connection(
          net::Protocol::kTcp, 80,
          static_cast<net::NodeId>(1 + i / kPortsPerRemote),
          static_cast<std::uint32_t>(1024 + i % kPortsPerRemote),
          [&hits](net::Packet&&) { ++hits; });
    }
    std::vector<net::Packet> packets(4096);
    std::uint64_t state = 2;
    for (net::Packet& p : packets) {
      const std::size_t i = mix(state) % flows;
      p.proto = net::Protocol::kTcp;
      p.src = static_cast<net::NodeId>(1 + i / kPortsPerRemote);
      p.dst = 0;
      p.tcp.src_port = static_cast<std::uint32_t>(1024 + i % kPortsPerRemote);
      p.tcp.dst_port = 80;
      p.size_bytes = 64;
    }
    const ShardGuard guard(&sim.shard());
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kOps; ++i) {
      net::Packet p = packets[i % packets.size()];
      node.receive(std::move(p));
    }
    return ns_since(t0) / static_cast<double>(std::max<std::uint64_t>(hits, 1));
  });
}

/// VoipQoe::score, PesqSurrogate::listening_mos and G1030::mos in turn.
double probe_scorers() {
  std::vector<qoe::VoipCallMetrics> calls(1024);
  std::vector<Time> plts(1024);
  std::uint64_t state = 3;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    qoe::VoipCallMetrics& m = calls[i];
    m.packets_sent = 400;
    m.packets_received = 400 - mix(state) % 80;
    m.packets_played = m.packets_received - mix(state) % 20;
    m.mean_network_delay = Time::milliseconds(20.0 + static_cast<double>(mix(state) % 400));
    m.mouth_to_ear_delay = m.mean_network_delay + Time::milliseconds(80);
    m.burst_r = 1.0 + static_cast<double>(mix(state) % 100) / 50.0;
    plts[i] = Time::milliseconds(300.0 + static_cast<double>(mix(state) % 20'000));
  }
  const qoe::G1030 web = qoe::G1030::access_profile();
  return fastest([&] {
    double sink = 0.0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kOps; ++i) {
      const std::size_t k = i % calls.size();
      sink += qoe::VoipQoe::score(calls[k]).mos;
      sink += qoe::PesqSurrogate::listening_mos(calls[k]);
      sink += web.mos(plts[k]);
    }
    const double ns = ns_since(t0);
    volatile double keep = sink;
    (void)keep;
    return ns / static_cast<double>(3 * kOps);
  });
}

}  // namespace

ProbeResults run_probes(std::size_t peak_depth,
                        const std::vector<std::size_t>& buffers,
                        std::size_t peak_flows) {
  ProbeResults r;
  r.sched_ns_per_event = probe_scheduler(peak_depth);
  double link = 0.0;
  for (const std::size_t b : buffers) link += probe_link(b);
  r.link_ns_per_packet = buffers.empty() ? 0.0 : link / static_cast<double>(buffers.size());
  r.demux_ns_per_lookup = probe_demux(peak_flows);
  r.qoe_ns_per_score = probe_scorers();
  return r;
}

}  // namespace qoebench
