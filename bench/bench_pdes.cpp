// bench_pdes -- conservative-PDES engine scaling curve and determinism
// self-check.
//
// The figure benches parallelize across sweep cells; this bench measures
// the other axis: one scenario sharded across worker threads
// (core/sharded_engine). The scenario is an 8-pod ring -- each pod is a
// gateway, four servers on fast short links, and four clients behind
// 100 Mbit/s bottlenecks; neighboring gateways are joined by 10 ms
// 1 Gbit/s ring links. Only the ring links clear the 1 ms lookahead
// floor, so each pod is one short-link cluster and the partitioner can
// place the eight pods on 1/2/4/8 shards with a 10 ms quantum.
//
// Traffic: one intra-pod bulk TCP download per client, two cross-pod
// downloads per pod (clients 0/1 fetch from the pod three ring hops
// away), and one intra-pod VoIP probe scored with the PESQ surrogate.
//
// Output contract (the CI --shards determinism gate pins this):
//   stdout -- metrics table + [scheduler] summary, byte-identical for a
//             fixed seed at every --shards value, including the default
//             curve mode.
//   stderr -- per-run timing ("[pdes] shards=N ... events/s") and the
//             curve's speedup figures.
//
// --shards N (0..64; anything else exits 2 with a usage line) runs the
// scenario once on N shards; --shards 0 (default) runs the full
// {1, 2, 4, 8} curve and exits 1 if any run's table or combined
// scheduler counters deviate from the single-shard run -- the in-process
// version of the CI gate.
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/voip.hpp"
#include "bench_common.hpp"
#include "core/sharded_engine.hpp"
#include "net/monitors.hpp"
#include "qoe/pesq.hpp"
#include "tcp/tcp_server.hpp"
#include "tcp/tcp_socket.hpp"

namespace {

using namespace qoesim;

constexpr unsigned kPods = 8;
constexpr unsigned kServersPerPod = 4;
constexpr unsigned kClientsPerPod = 4;
constexpr unsigned kCrossFlowsPerPod = 2;
/// Effectively infinite: the senders never drain their app buffer, so
/// every flow is a persistent bulk download (send() queues a byte count,
/// not payload memory).
constexpr std::uint64_t kBulkBytes = 1ull << 50;

struct PodNodes {
  net::NodeId gw = 0;
  std::array<net::NodeId, kServersPerPod> srv{};
  std::array<net::NodeId, kClientsPerPod> cli{};
};

/// Per-pod live traffic objects. Each instance is touched only by its
/// pod's shard (accept callbacks run on the server's scheduler, connect
/// events on the client's), so plain vectors are safe under the engine.
struct PodTraffic {
  std::vector<std::unique_ptr<tcp::TcpServer>> servers;
  std::vector<std::shared_ptr<tcp::TcpSocket>> accepted;
  std::vector<std::shared_ptr<tcp::TcpSocket>> clients;
  std::unique_ptr<apps::VoipCall> voip;
};

struct RunResult {
  std::string table;        ///< rendered stdout block
  Scheduler::Stats engine;  ///< combined, partition-invariant counters
  double wall_s = 0.0;
};

net::LinkSpec link_spec(double rate_bps, Time delay, std::size_t buffer) {
  net::LinkSpec s;
  s.rate_bps = rate_bps;
  s.delay = delay;
  s.buffer_packets = buffer;
  return s;
}

/// "p<pod><suffix>[<index>]", appended in place: GCC 12 flags the
/// chained-temporary spelling ("p" + std::to_string(pod) + ...) with a
/// false -Wrestrict.
std::string pod_name(unsigned pod, const char* suffix = "", int index = -1) {
  std::string name = "p";
  name += std::to_string(pod);
  name += suffix;
  if (index >= 0) name += std::to_string(index);
  return name;
}

std::string fmt(const char* format, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), format, value);
  return std::string(buf);
}

bool same_stats(const Scheduler::Stats& a, const Scheduler::Stats& b) {
  return a.scheduled == b.scheduled && a.fired == b.fired &&
         a.cancelled == b.cancelled && a.rescheduled == b.rescheduled &&
         a.peak_queue_depth == b.peak_queue_depth;
}

/// The --shards value. main passes "--shards" to BenchOptions::parse as
/// an extra value flag and calls this after it (parse has then already
/// rejected unknown flags and missing values). 0 = the {1, 2, 4, 8}
/// curve. Exits 2 on a value outside [0, 64].
unsigned parse_shards(int argc, char** argv) {
  unsigned shards = 0;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") != 0) continue;
    const char* text = argv[++i];
    char* end = nullptr;
    const unsigned long value = std::strtoul(text, &end, 10);
    if (end == text || *end != '\0' || value > 64)
      bench::usage_error(argv[0], "--shards expects an integer in [0, 64]",
                         text, {"--shards"});
    shards = static_cast<unsigned>(value);
  }
  return shards;
}

RunResult run_once(unsigned shards, const bench::BenchOptions& opt) {
  const Time horizon =
      Time::seconds(10.0 * opt.scale * (opt.quick ? 0.25 : 1.0));

  core::ShardedEngine::Config cfg;
  cfg.shards = shards;
  cfg.lookahead_floor = Time::milliseconds(1);
  cfg.seed = opt.seed;
  cfg.node_stats = &bench::stats_registry().nodes;
  core::ShardedEngine engine(std::move(cfg));

  // ---- topology ----------------------------------------------------------
  std::array<PodNodes, kPods> pods_n;
  for (unsigned p = 0; p < kPods; ++p) {
    // The gateway forwards every pod flow twice (in + out), so it gets
    // the lion's share of the pod's events; the weight only matters for
    // asymmetric pin experiments, the 8 symmetric pods balance anyway.
    pods_n[p].gw = engine.add_node(pod_name(p, ".gw"), 2.0);
    for (unsigned j = 0; j < kServersPerPod; ++j)
      pods_n[p].srv[j] = engine.add_node(pod_name(p, ".s", j));
    for (unsigned j = 0; j < kClientsPerPod; ++j)
      pods_n[p].cli[j] = engine.add_node(pod_name(p, ".c", j));
  }

  const net::LinkSpec srv_link = link_spec(1e9, Time::microseconds(200), 512);
  const net::LinkSpec down_link = link_spec(100e6, Time::milliseconds(0.5), 128);
  const net::LinkSpec up_link = link_spec(100e6, Time::milliseconds(0.5), 128);
  const net::LinkSpec ring_link = link_spec(1e9, Time::milliseconds(10), 2048);

  std::array<std::array<std::size_t, kClientsPerPod>, kPods> down_decl{};
  std::array<std::size_t, kPods> ring_decl{};
  for (unsigned p = 0; p < kPods; ++p) {
    for (unsigned j = 0; j < kServersPerPod; ++j)
      engine.connect(pods_n[p].srv[j], pods_n[p].gw, srv_link, srv_link);
    for (unsigned j = 0; j < kClientsPerPod; ++j)
      down_decl[p][j] =
          engine.connect(pods_n[p].gw, pods_n[p].cli[j], down_link, up_link);
  }
  // Ring links after the pod links so pod-internal adjacency wins BFS
  // ties; declared last they also make the crossing channel ids easy to
  // eyeball in traces (the highest 8 declarations).
  for (unsigned p = 0; p < kPods; ++p)
    ring_decl[p] = engine.connect(pods_n[p].gw, pods_n[(p + 1) % kPods].gw,
                                  ring_link, ring_link);

  engine.build();

  // ---- instrumentation ---------------------------------------------------
  std::vector<std::unique_ptr<net::LinkMonitor>> down_mon;
  std::vector<std::unique_ptr<net::LinkMonitor>> ring_mon;
  for (unsigned p = 0; p < kPods; ++p) {
    for (unsigned j = 0; j < kClientsPerPod; ++j)
      down_mon.push_back(std::make_unique<net::LinkMonitor>(
          *engine.link(down_decl[p][j], true)));
    ring_mon.push_back(
        std::make_unique<net::LinkMonitor>(*engine.link(ring_decl[p], true)));
  }

  // ---- traffic -----------------------------------------------------------
  tcp::TcpConfig tcp_cfg;
  tcp_cfg.cc = tcp::CcKind::kCubic;

  std::vector<PodTraffic> traffic(kPods);
  for (unsigned p = 0; p < kPods; ++p) {
    PodTraffic& pod = traffic[p];
    pod.accepted.reserve(kClientsPerPod + kCrossFlowsPerPod);
    pod.clients.reserve(kClientsPerPod + kCrossFlowsPerPod);
    for (unsigned j = 0; j < kServersPerPod; ++j) {
      pod.servers.push_back(std::make_unique<tcp::TcpServer>(
          engine.node(pods_n[p].srv[j]), 5000 + j, tcp_cfg,
          [&pod](std::shared_ptr<tcp::TcpSocket> sock) {
            sock->send(kBulkBytes);
            pod.accepted.push_back(std::move(sock));
          }));
    }
  }
  for (unsigned p = 0; p < kPods; ++p) {
    PodTraffic& pod = traffic[p];
    // Intra-pod downloads: client j fetches from server j, staggered so
    // the slow-start bursts do not align across pods.
    for (unsigned j = 0; j < kClientsPerPod; ++j) {
      const Time at = Time::milliseconds(10 + 3 * p + 7 * j);
      net::Node& client = engine.node(pods_n[p].cli[j]);
      const net::NodeId server = pods_n[p].srv[j];
      engine.sim_of(pods_n[p].cli[j])
          .at(at, [&pod, &client, server, j, tcp_cfg] {
            pod.clients.push_back(tcp::TcpSocket::connect(
                client, server, 5000 + j, tcp_cfg));
          });
    }
    // Cross-pod downloads: clients 0/1 fetch from servers 2/3 of the pod
    // three ring hops away -- every packet crosses shard boundaries.
    for (unsigned j = 0; j < kCrossFlowsPerPod; ++j) {
      const Time at = Time::milliseconds(150 + 5 * p + 11 * j);
      net::Node& client = engine.node(pods_n[p].cli[j]);
      const net::NodeId server = pods_n[(p + 3) % kPods].srv[j + 2];
      engine.sim_of(pods_n[p].cli[j])
          .at(at, [&pod, &client, server, j, tcp_cfg] {
            pod.clients.push_back(tcp::TcpSocket::connect(
                client, server, 5000 + j + 2, tcp_cfg));
          });
    }
    // VoIP probe sharing client 0's congested downlink (sender and
    // receiver sit in the same pod, i.e. the same shard).
    // VoipCall finalizes one second plus two jitter buffers after the
    // last frame, so the probe occupies [0.1, 0.5] of the horizon and
    // its metrics are final before run_until returns (at the default
    // --quick horizon of 2.5 s; shorter runs print "-").
    apps::VoipConfig vcfg;
    vcfg.duration = Time::nanoseconds(horizon.ns() * 2 / 5);
    pod.voip = std::make_unique<apps::VoipCall>(
        engine.node(pods_n[p].srv[0]), engine.node(pods_n[p].cli[0]), vcfg, p);
    pod.voip->start(Time::nanoseconds(horizon.ns() / 10));
  }

  // ---- run ---------------------------------------------------------------
  const auto t0 = std::chrono::steady_clock::now();
  engine.run_until(horizon);
  RunResult result;
  result.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  result.engine = engine.scheduler_stats();

  // ---- report ------------------------------------------------------------
  stats::TextTable table;
  table.set_header({"pod", "down util", "loss %", "qdelay ms", "ring MB",
                    "voip MOS"});
  for (unsigned p = 0; p < kPods; ++p) {
    double util = 0.0, loss = 0.0, qdelay = 0.0;
    for (unsigned j = 0; j < kClientsPerPod; ++j) {
      const net::LinkMonitor& m = *down_mon[p * kClientsPerPod + j];
      util += m.mean_utilization(Time::zero(), horizon);
      loss += m.loss_rate();
      qdelay += m.mean_queue_delay_s();
    }
    util /= kClientsPerPod;
    loss /= kClientsPerPod;
    qdelay /= kClientsPerPod;
    const apps::VoipCall& voip = *traffic[p].voip;
    table.add_row({pod_name(p), fmt("%.3f", util),
                   fmt("%.2f", 100.0 * loss), fmt("%.2f", 1e3 * qdelay),
                   fmt("%.1f", static_cast<double>(ring_mon[p]->tx_bytes()) /
                                   1e6),
                   voip.finished()
                       ? fmt("%.2f", qoe::PesqSurrogate::listening_mos(
                                         voip.metrics()))
                       : std::string("-")});
  }
  result.table = "== PDES scaling: 8-pod ring ==\n" + table.render();
  if (opt.csv) result.table += "\n[csv]\n" + table.to_csv();
  result.table += "\n";
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = qoesim::bench::BenchOptions::parse(argc, argv, {"--shards"});
  const unsigned shards = parse_shards(argc, argv);
  std::vector<unsigned> counts;
  if (shards != 0) {
    counts = {shards};
  } else {
    counts = {1, 2, 4, 8};
  }

  RunResult base;
  double base_rate = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const RunResult r = run_once(counts[i], opt);
    const double rate =
        r.wall_s > 0.0 ? static_cast<double>(r.engine.fired) / r.wall_s : 0.0;
    if (i == 0) base_rate = rate;
    std::fprintf(stderr,
                 "[pdes] shards=%u events=%llu wall=%.2fs %.2f M events/s"
                 " speedup=%.2fx\n",
                 counts[i], static_cast<unsigned long long>(r.engine.fired),
                 r.wall_s, rate / 1e6, base_rate > 0.0 ? rate / base_rate : 0.0);
    if (i == 0) {
      base = r;
      // Fold only the first run into the [scheduler] stdout line: curve
      // mode then prints exactly what a single --shards run prints, so
      // stdout is byte-identical across every invocation mode.
      qoesim::bench::stats_registry().scheduler.fold(r.engine);
    } else if (r.table != base.table || !same_stats(r.engine, base.engine)) {
      std::fprintf(stderr,
                   "[pdes] ERROR: shards=%u diverged from shards=%u "
                   "(determinism contract violated)\n",
                   counts[i], counts[0]);
      if (r.table != base.table) {
        std::fprintf(stderr, "--- shards=%u table ---\n%s", counts[0],
                     base.table.c_str());
        std::fprintf(stderr, "--- shards=%u table ---\n%s", counts[i],
                     r.table.c_str());
      }
      return 1;
    }
  }
  std::fputs(base.table.c_str(), stdout);
  return 0;
}
