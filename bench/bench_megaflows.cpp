// bench_megaflows -- pooled flow-state scale curve: 4k .. 1M concurrent
// TCP flows through one hub node, proving the PR's memory contract end to
// end. 64 client nodes each open connection chains into a single server,
// hold the flows idle (steady state: hot arena slot only, no cold block,
// no timers), then churn them all down and reopen a second wave on the
// warmed pools.
//
// Measured per cell:
//   stdout (simulation-deterministic -- byte-identical for a fixed seed
//   at every --jobs and --shards value, so the CI determinism gates pin
//   it; --shards n runs each cell on the PDES engine with n shards,
//   0 = the default 1):
//     flows opened, resident bytes/flow (hot slot; cold block size and
//     attach count, both 0 for idle flows), the server demux probe-length
//     stats at steady state (FlatTable lookups stay near-flat to 1M
//     entries), hot-slab growths during the churn+reopen phase (0 = slot
//     reuse, no allocation), and the reopened-flow count.
//   stderr (wall clock): open-phase flows/s and events/s, demux
//   ns/lookup from a cache-hostile full-table find walk, and the
//   1M-vs-4k lookup-cost ratio the acceptance criterion bounds at 2x.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/sharded_engine.hpp"
#include "sim/random.hpp"
#include "tcp/tcp_server.hpp"
#include "tcp/tcp_socket.hpp"

namespace {

using namespace qoesim;

constexpr unsigned kClients = 64;
constexpr unsigned kChainsPerClient = 32;
constexpr unsigned kReopenPerClient = 8;
constexpr std::uint32_t kPort = 5000;

/// Timeline (sim seconds). Event-driven time is free between phases, so
/// every cell shares one generous schedule.
constexpr double kOpenStartS = 0.01;
constexpr double kSteadyS = 3.0;    ///< all chains done; measure here
constexpr double kCloseS = 3.2;     ///< staggered client close()s begin
constexpr double kClearS = 4.3;     ///< drop app refs (slots return)
constexpr double kReopenS = 4.5;    ///< second wave on warmed pools
constexpr double kEndS = 5.0;

/// Touched only by its client node's shard (chain callbacks and the
/// scheduled open/close/clear events all run there).
struct ClientState {
  net::Node* node = nullptr;
  net::NodeId server = 0;
  std::vector<std::shared_ptr<tcp::TcpSocket>> socks;
  std::size_t target = 0;    ///< first-wave flows
  std::size_t launched = 0;  ///< first-wave connects issued
};

/// Touched only by the server node's shard (accept callbacks).
struct ServerState {
  std::vector<std::shared_ptr<tcp::TcpSocket>> accepted;
};

struct Cell {
  // stdout (deterministic)
  std::uint64_t flows = 0;
  std::uint64_t opened = 0;  ///< chains completed by kSteadyS
  std::uint64_t hot_bytes = 0;
  std::uint64_t cold_bytes = 0;
  std::uint64_t cold_allocs = 0;
  net::FlatTable<net::Node::Handler>::ProbeStats probe;
  std::uint64_t slab_delta = 0;  ///< server hot-slab growths after steady
  std::uint64_t reopened = 0;
  // stderr (wall clock)
  double open_wall_s = 0.0;
  double total_wall_s = 0.0;
  double lookup_ns = 0.0;
  std::uint64_t events = 0;
  Scheduler::Stats engine;
};

void open_next(ClientState& c, const tcp::TcpConfig& cfg) {
  if (c.launched >= c.target) return;
  ++c.launched;
  tcp::TcpSocket::Callbacks cb;
  cb.on_connected = [&c, cfg] { open_next(c, cfg); };
  c.socks.push_back(
      tcp::TcpSocket::connect(*c.node, c.server, kPort, cfg, std::move(cb)));
}

Cell run_cell(std::uint64_t flows, std::uint64_t seed, unsigned shards) {
  const std::size_t per_client = static_cast<std::size_t>(flows) / kClients;

  core::ShardedEngine::Config cfg;
  cfg.shards = shards;
  cfg.lookahead_floor = Time::milliseconds(1);
  cfg.seed = seed;
  cfg.node_stats = &bench::stats_registry().nodes;
  core::ShardedEngine engine(std::move(cfg));

  // Hub-and-spoke: every client hangs off the server on its own 1 Gbit/s
  // 1 ms link, so each client is a separable partition cluster and the
  // server holds one demux entry per live flow.
  net::LinkSpec spec;
  spec.rate_bps = 1e9;
  spec.delay = Time::milliseconds(1);
  spec.buffer_packets = 1024;

  const net::NodeId srv = engine.add_node("srv", static_cast<double>(kClients));
  std::vector<net::NodeId> cli(kClients);
  for (unsigned c = 0; c < kClients; ++c) {
    cli[c] = engine.add_node("c" + std::to_string(c));
    engine.connect(srv, cli[c], spec, spec);
  }
  engine.build();

  tcp::TcpConfig tcp_cfg;  // connect-only flows: defaults are fine

  ServerState server_state;
  server_state.accepted.reserve(flows + kClients * kReopenPerClient);
  tcp::TcpServer server_app(
      engine.node(srv), kPort, tcp_cfg,
      [&server_state](std::shared_ptr<tcp::TcpSocket> sock) {
        // Answer the client's FIN with ours so teardown completes and the
        // arena slot returns to the free list mid-run. The raw capture is
        // safe: `accepted` outlives the engine run.
        auto* raw = sock.get();
        tcp::TcpSocket::Callbacks cb;
        cb.on_remote_close = [raw] { raw->close(); };
        raw->set_callbacks(std::move(cb));
        server_state.accepted.push_back(std::move(sock));
      });

  std::vector<ClientState> clients(kClients);
  for (unsigned c = 0; c < kClients; ++c) {
    clients[c].node = &engine.node(cli[c]);
    clients[c].server = srv;
    clients[c].target = per_client;
    clients[c].socks.reserve(per_client + kReopenPerClient);
    // Staggered parallel chains: each chain opens its next flow from the
    // previous flow's on_connected, keeping ~kChainsPerClient handshakes
    // in flight per link -- no loss, deterministic arrival order.
    for (unsigned k = 0; k < kChainsPerClient; ++k) {
      ClientState& state = clients[c];
      engine.sim_of(cli[c]).at(
          Time::seconds(kOpenStartS) + Time::microseconds(17 * c + 113 * k),
          [&state, tcp_cfg] { open_next(state, tcp_cfg); });
    }
  }

  // ---- open phase --------------------------------------------------------
  const auto t0 = std::chrono::steady_clock::now();
  engine.run_until(Time::seconds(kSteadyS));
  Cell cell;
  cell.flows = flows;
  cell.open_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // ---- steady-state measurement (engine idle; pure const reads) ----------
  for (const ClientState& c : clients) cell.opened += c.launched;
  cell.probe = engine.node(srv).demux_probe_stats();
  const auto [probes, walk_ns] = engine.node(srv).demux_timed_find_walk();
  cell.lookup_ns =
      probes > 0 ? static_cast<double>(walk_ns) / static_cast<double>(probes)
                 : 0.0;
  const net::Node::Stats steady = engine.node_stats();
  cell.hot_bytes = steady.flow_hot_bytes;
  cell.cold_bytes = steady.flow_cold_bytes;
  cell.cold_allocs = steady.flow_cold_allocs;
  const std::uint64_t slabs_steady =
      engine.node(srv).flow_arena().stats().slab_growths;

  // ---- churn: close every first-wave flow, drop app refs, reopen ---------
  for (unsigned c = 0; c < kClients; ++c) {
    ClientState& state = clients[c];
    for (std::size_t j = 0; j < state.socks.size(); ++j) {
      engine.sim_of(cli[c]).at(
          Time::seconds(kCloseS) + Time::microseconds(50 * j + c),
          [s = state.socks[j]] { s->close(); });
    }
    engine.sim_of(cli[c]).at(Time::seconds(kClearS),
                             [&state] { state.socks.clear(); });
    for (unsigned k = 0; k < kReopenPerClient; ++k) {
      engine.sim_of(cli[c]).at(
          Time::seconds(kReopenS) + Time::microseconds(17 * c + 113 * k),
          [&state, tcp_cfg] {
            state.socks.push_back(tcp::TcpSocket::connect(
                *state.node, state.server, kPort, tcp_cfg));
          });
    }
  }
  engine.sim_of(srv).at(Time::seconds(kClearS), [&server_state] {
    server_state.accepted.clear();
  });
  engine.run_until(Time::seconds(kEndS));

  cell.total_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  cell.slab_delta =
      engine.node(srv).flow_arena().stats().slab_growths - slabs_steady;
  for (const ClientState& c : clients) {
    cell.reopened += static_cast<std::uint64_t>(c.socks.size());
  }
  cell.engine = engine.scheduler_stats();
  cell.events = cell.engine.fired;
  return cell;
}

std::string fmt(const char* format, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), format, v);
  return std::string(buf);
}

void run(const bench::BenchOptions& opt, unsigned shards) {
  // The curve is the point: fixed flow counts, --quick drops the two big
  // cells for the CI smoke/determinism gates (the full run proves 1M).
  std::vector<std::uint64_t> counts = {4096, 10240, 100352, 1000000};
  if (opt.quick) counts.resize(2);

  const auto cells = opt.sweep().map(counts.size(), [&](std::size_t i) {
    const std::uint64_t seed = RandomStream::derive_seed(
        opt.seed, "megaflows/" + std::to_string(counts[i]));
    return run_cell(counts[i], seed, shards);
  });

  stats::TextTable table;
  table.set_header({"Flows", "Opened", "Hot B/flow", "Cold B", "Cold allocs",
                    "Demux entries", "Probe mean", "Probe max", "Probe>=8",
                    "Slab growths", "Reopened"});
  for (const Cell& c : cells) {
    table.add_row({std::to_string(c.flows), std::to_string(c.opened),
                   std::to_string(c.hot_bytes), std::to_string(c.cold_bytes),
                   std::to_string(c.cold_allocs),
                   std::to_string(c.probe.entries), fmt("%.3f", c.probe.mean_len),
                   std::to_string(c.probe.max_len),
                   std::to_string(c.probe.histogram[7]),
                   std::to_string(c.slab_delta), std::to_string(c.reopened)});
  }
  bench::emit(table, opt,
              "Mega-flow churn: pooled sockets, flat demux to 1M flows");

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    qoesim::bench::stats_registry().scheduler.fold(c.engine);
    std::fprintf(
        stderr,
        "[megaflows] flows=%llu open=%.2fs (%.0f flows/s) total=%.2fs"
        " events=%llu (%.2f M events/s) demux=%.1f ns/lookup\n",
        static_cast<unsigned long long>(c.flows), c.open_wall_s,
        c.open_wall_s > 0.0 ? static_cast<double>(c.opened) / c.open_wall_s
                            : 0.0,
        c.total_wall_s, static_cast<unsigned long long>(c.events),
        c.total_wall_s > 0.0
            ? static_cast<double>(c.events) / c.total_wall_s / 1e6
            : 0.0,
        c.lookup_ns);
  }
  if (cells.size() > 1 && cells.front().lookup_ns > 0.0 &&
      cells.front().probe.mean_len > 0.0) {
    // Probes/lookup is the data-structure cost (the acceptance bound:
    // within 2x of the 4k-flow figure at 1M entries); wall ns/lookup
    // additionally pays the compulsory cache misses of a table that
    // outgrew the LLC -- reported for context, any hash table pays it.
    std::fprintf(
        stderr,
        "[megaflows] lookup cost %llu vs %llu flows: %.2fx probes/lookup"
        " (%.2fx wall ns)\n",
        static_cast<unsigned long long>(cells.back().flows),
        static_cast<unsigned long long>(cells.front().flows),
        cells.back().probe.mean_len / cells.front().probe.mean_len,
        cells.back().lookup_ns / cells.front().lookup_ns);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = qoesim::bench::BenchOptions::parse(argc, argv, {"--shards"});
  const unsigned shards = qoesim::bench::parse_shards(argc, argv);
  run(opt, shards != 0 ? shards : 1);
  return 0;
}
