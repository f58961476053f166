#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <exception>
#include <memory>
#include <utility>

#include "apps/voip.hpp"
#include "apps/web.hpp"
#include "core/sharded_engine.hpp"
#include "core/stats_registry.hpp"
#include "core/sweep.hpp"
#include "core/testbed.hpp"
#include "core/workloads.hpp"
#include "net/monitors.hpp"
#include "qoe/g1030.hpp"
#include "qoe/pesq.hpp"
#include "qoe/voip_qoe.hpp"
#include "tcp/tcp_server.hpp"
#include "tcp/tcp_socket.hpp"

namespace qoebench {

namespace {

using namespace qoesim;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- digests and output checks ---------------------------------------------

/// FNV-1a over the bit patterns of every result field, so two runs agree
/// only if they computed bit-identical results.
class Digest {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void samples(const stats::Samples& s) {
    u64(s.count());
    for (const double v : s.values()) f64(v);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Records the first violated check of an operation.
class Checker {
 public:
  explicit Checker(std::string& error) : error_(error) {}

  /// `v` in [lo, hi]; NaN fails.
  void range(const char* what, double v, double lo, double hi) {
    if (error_.empty() && !(v >= lo && v <= hi)) {
      error_ = std::string(what) + " out of range: " + std::to_string(v);
    }
  }
  void range(const char* what, const stats::Samples& s, double lo, double hi) {
    for (const double v : s.values()) range(what, v, lo, hi);
  }
  void count(const char* what, std::size_t got, std::size_t want) {
    if (error_.empty() && got != want) {
      error_ = std::string(what) + ": " + std::to_string(got) + " samples, " +
               std::to_string(want) + " expected";
    }
  }
  void blackholes(const net::Node::Stats& s) {
    if (error_.empty() && (s.undelivered != 0 || s.unrouted != 0)) {
      error_ = "blackholed " + std::to_string(s.undelivered) +
               " undelivered / " + std::to_string(s.unrouted) + " unrouted";
    }
  }

 private:
  std::string& error_;
};

constexpr double kVoipMosMax = 4.5;  // E-model R->MOS ceiling
constexpr double kWebMosMax = 5.0;   // G.1030 "excellent"

/// A utilization bin (and so their mean) may exceed 1 by the one packet
/// whose transmission straddles the bin edge.
double bin_slack(double rate_bps) {
  return static_cast<double>(net::kMtuBytes) * 8.0 / rate_bps;
}

void finish_qos(OpResult& op, const core::QosCell& c,
                const core::ScenarioConfig& cfg) {
  Digest d;
  for (const double v :
       {c.mean_delay_down_ms, c.mean_delay_up_ms, c.util_down_mean,
        c.util_down_sd, c.util_up_mean, c.util_up_sd, c.loss_down, c.loss_up,
        c.mark_down, c.mark_up, c.concurrent_flows}) {
    d.f64(v);
  }
  d.samples(c.util_down_bins);
  d.samples(c.util_up_bins);
  op.digest = d.value();

  const bool access = cfg.testbed == core::TestbedType::kAccess;
  const double down_bps =
      access ? cfg.access.downlink_bps : cfg.backbone.bottleneck_bps;
  const double up_bps =
      access ? cfg.access.uplink_bps : cfg.backbone.bottleneck_bps;
  const double down_max = 1.0 + bin_slack(down_bps);
  const double up_max = 1.0 + bin_slack(up_bps);
  Checker check(op.error);
  check.range("util_down_mean", c.util_down_mean, 0.0, down_max);
  check.range("util_up_mean", c.util_up_mean, 0.0, up_max);
  check.range("util_down_bin", c.util_down_bins, 0.0, down_max);
  check.range("util_up_bin", c.util_up_bins, 0.0, up_max);
  check.range("loss_down", c.loss_down, 0.0, 1.0);
  check.range("loss_up", c.loss_up, 0.0, 1.0);
  check.range("mark_down", c.mark_down, 0.0, 1.0);
  check.range("mark_up", c.mark_up, 0.0, 1.0);
  check.range("mean_delay_down_ms", c.mean_delay_down_ms, 0.0, 1e9);
  check.range("mean_delay_up_ms", c.mean_delay_up_ms, 0.0, 1e9);
}

void finish_voip(OpResult& op, const core::VoipCell& c, const Plan& plan) {
  Digest d;
  d.samples(c.mos_talks);
  d.samples(c.mos_listens);
  d.samples(c.loss_talks);
  d.samples(c.loss_listens);
  d.samples(c.delay_talks_ms);
  d.samples(c.delay_listens_ms);
  op.digest = d.value();

  const auto calls = static_cast<std::size_t>(plan.budget.voip_calls);
  Checker check(op.error);
  check.count("mos_listens", c.mos_listens.count(), calls);
  check.count("mos_talks", c.mos_talks.count(),
              plan.voip_bidirectional ? calls : 0);
  check.range("mos_listens", c.mos_listens, 1.0, kVoipMosMax);
  check.range("mos_talks", c.mos_talks, 1.0, kVoipMosMax);
  check.range("loss_listens", c.loss_listens, 0.0, 1.0);
  check.range("loss_talks", c.loss_talks, 0.0, 1.0);
  check.range("delay_listens_ms", c.delay_listens_ms, 0.0, 1e9);
  check.range("delay_talks_ms", c.delay_talks_ms, 0.0, 1e9);
}

void finish_web(OpResult& op, const core::WebCell& c, const Plan& plan) {
  Digest d;
  d.samples(c.plt_s);
  d.samples(c.mos);
  d.samples(c.retransmits);
  d.u64(static_cast<std::uint64_t>(c.timeouts));
  op.digest = d.value();

  Checker check(op.error);
  check.count("plt_s", c.plt_s.count(),
              static_cast<std::size_t>(plan.budget.web_loads));
  check.range("web_mos", c.mos, 1.0, kWebMosMax);
  check.range("plt_s", c.plt_s, 1e-9, 1e9);
  check.range("timeouts", c.timeouts, 0.0, plan.budget.web_loads);
}

std::string op_id(const char* kind, const core::ScenarioConfig& cfg) {
  return std::string(kind) + "/" + core::to_string(cfg.workload) + "/" +
         core::to_string(cfg.direction) + "/b" +
         std::to_string(cfg.buffer_packets);
}

/// Runs `body(op)`; an exception fails the operation.
template <typename Body>
OpResult guarded(std::string id, Body&& body) {
  OpResult op;
  op.id = std::move(id);
  try {
    body(op);
  } catch (const std::exception& e) {
    op.error = std::string("threw: ") + e.what();
  } catch (...) {
    op.error = "threw a non-standard exception";
  }
  return op;
}

// ---- per-layer counters ----------------------------------------------------

void add_registry(LayerCounters& layers, const core::StatsRegistry& reg) {
  const Scheduler::Stats s = reg.scheduler.snapshot();
  layers.sched.scheduled += s.scheduled;
  layers.sched.fired += s.fired;
  layers.sched.cancelled += s.cancelled;
  layers.sched.rescheduled += s.rescheduled;
  layers.sched.peak_queue_depth =
      std::max(layers.sched.peak_queue_depth, s.peak_queue_depth);

  const net::Node::Stats n = reg.nodes.snapshot();
  const std::uint64_t peak_live =
      std::max(layers.nodes.flow_peak_live, n.flow_peak_live);
  const std::uint64_t cold_peak =
      std::max(layers.nodes.flow_cold_peak_live, n.flow_cold_peak_live);
  layers.nodes += n;
  layers.nodes.flow_peak_live = peak_live;
  layers.nodes.flow_cold_peak_live = cold_peak;
}

void add_link(LayerCounters& layers, const net::Link& link) {
  layers.link_tx += link.delivered_packets();
  layers.slab_growths += link.pool_stats().slab_growths;
}

void add_bottleneck(LayerCounters& layers, const net::Link& link) {
  layers.bottleneck_offered += link.queue().stats().offered;
  layers.bottleneck_drops += link.queue().stats().dropped;
}

/// Link and generator counters of a testbed that is about to be torn down.
void add_testbed(LayerCounters& layers, core::Testbed& testbed,
                 const core::Workload& workload) {
  net::Topology& topo = testbed.topology();
  for (std::size_t n = 0; n < topo.node_count(); ++n) {
    const net::Node& node = topo.node(static_cast<net::NodeId>(n));
    for (std::size_t p = 0; p < node.port_count(); ++p) {
      add_link(layers, *node.port_link(p));
    }
  }
  add_bottleneck(layers, testbed.bottleneck_down());
  add_bottleneck(layers, testbed.bottleneck_up());
  layers.flows_started += workload.flows_started();
  layers.flows_completed += workload.flows_completed();
}

// ---- rebuilt figure operations -------------------------------------------
//
// Each function below makes the same public calls, in the same order, as
// its core::ExperimentRunner counterpart (core/experiment.cpp), split at the
// warm-up end and wrapped in spans, or split into timed steps. Comparing
// each operation's digest with the ExperimentRunner round's (report.py)
// proves the two compute the same thing.

/// A testbed and its background workload, built inside a "build" span.
struct Cell {
  std::unique_ptr<core::Testbed> testbed;
  std::unique_ptr<core::Workload> workload;

  Cell(const core::ScenarioConfig& cfg, core::StatsRegistry& reg,
       Trace& trace) {
    const ScopedSpan span(trace, "build");
    testbed = std::make_unique<core::Testbed>(cfg, &reg);
    workload = std::make_unique<core::Workload>(*testbed);
  }

  void tear_down(Trace& trace, LayerCounters& layers) {
    add_testbed(layers, *testbed, *workload);
    const ScopedSpan span(trace, "teardown");
    workload.reset();
    testbed.reset();
  }
};

/// Simulated time per timed step of a stepped operation.
constexpr Time kStep = Time::seconds(1);

/// sim.run_until(until), or with `steps` the same advance in kStep calls,
/// each timed into `steps`. Events fire in (time, seq) order either way,
/// so the results are identical (the digest checks it).
void advance(Simulation& sim, Time until, std::vector<double>* steps) {
  if (steps == nullptr) {
    sim.run_until(until);
    return;
  }
  do {
    const auto t0 = Clock::now();
    sim.run_until(std::min(until, sim.now() + kStep));
    steps->push_back(seconds_since(t0));
  } while (sim.now() < until);
}

core::QosCell rebuilt_qos(const core::ScenarioConfig& cfg, const Plan& plan,
                         core::StatsRegistry& reg, Trace& trace,
                         LayerCounters& layers, std::vector<double>* steps) {
  const core::ProbeBudget& budget = plan.budget;
  Cell c(cfg, reg, trace);
  core::Testbed& testbed = *c.testbed;
  const Time end = budget.warmup + budget.qos_duration;
  {
    const ScopedSpan span(trace, "warmup");
    advance(testbed.sim(), budget.warmup, steps);
  }
  core::QosCell cell;
  {
    const ScopedSpan span(trace, "measure");
    advance(testbed.sim(), end, steps);
    cell.mean_delay_down_ms =
        testbed.down_monitor().mean_queue_delay_s() * 1e3;
    cell.mean_delay_up_ms = testbed.up_monitor().mean_queue_delay_s() * 1e3;
    cell.util_down_bins =
        testbed.down_monitor().utilization(budget.warmup, end);
    cell.util_up_bins = testbed.up_monitor().utilization(budget.warmup, end);
    cell.util_down_mean =
        cell.util_down_bins.empty() ? 0.0 : cell.util_down_bins.mean();
    cell.util_down_sd =
        cell.util_down_bins.empty() ? 0.0 : cell.util_down_bins.stddev();
    cell.util_up_mean =
        cell.util_up_bins.empty() ? 0.0 : cell.util_up_bins.mean();
    cell.util_up_sd =
        cell.util_up_bins.empty() ? 0.0 : cell.util_up_bins.stddev();
    cell.loss_down = testbed.down_monitor().loss_rate();
    cell.loss_up = testbed.up_monitor().loss_rate();
    cell.mark_down = testbed.down_monitor().mark_rate();
    cell.mark_up = testbed.up_monitor().mark_rate();
    cell.concurrent_flows = c.workload->mean_concurrent_flows(end);
  }
  c.tear_down(trace, layers);
  return cell;
}

core::VoipCell rebuilt_voip(const core::ScenarioConfig& cfg, const Plan& plan,
                           core::StatsRegistry& reg, Trace& trace,
                           LayerCounters& layers, std::vector<double>* steps) {
  const core::ProbeBudget& budget = plan.budget;
  const bool bidirectional = plan.voip_bidirectional;
  Cell c(cfg, reg, trace);
  core::Testbed& testbed = *c.testbed;

  apps::VoipConfig voip;
  const Time per_call = voip.duration + budget.probe_gap +
                        voip.jitter_buffer * 2.0 + Time::seconds(1);
  struct CallPair {
    std::unique_ptr<apps::VoipCall> listen;
    std::unique_ptr<apps::VoipCall> talk;
  };
  std::vector<CallPair> calls;
  Time last_end = budget.warmup;
  for (int i = 0; i < budget.voip_calls; ++i) {
    const Time start = budget.warmup + per_call * static_cast<double>(i);
    CallPair pair;
    pair.listen = std::make_unique<apps::VoipCall>(
        testbed.probe_server(), testbed.probe_client(), voip,
        static_cast<std::uint32_t>(2 * i));
    pair.listen->start(start);
    if (bidirectional) {
      pair.talk = std::make_unique<apps::VoipCall>(
          testbed.probe_client(), testbed.probe_server(), voip,
          static_cast<std::uint32_t>(2 * i + 1));
      pair.talk->start(start);
    }
    last_end = std::max(last_end, pair.listen->end_time());
    calls.push_back(std::move(pair));
  }
  layers.voip_calls += calls.size() * (bidirectional ? 2 : 1);

  {
    const ScopedSpan span(trace, "warmup");
    advance(testbed.sim(), budget.warmup, steps);
  }
  {
    const ScopedSpan span(trace, "measure");
    advance(testbed.sim(), last_end + Time::seconds(1), steps);
  }

  core::VoipCell cell;
  auto score = [&](const qoe::VoipCallMetrics& m) {
    const ScopedSpan span(trace, "score");
    ++layers.scores;
    return qoe::VoipQoe::score(m).mos;
  };
  for (const auto& pair : calls) {
    auto m_listen = pair.listen->metrics();
    qoe::VoipCallMetrics m_talk;
    if (pair.talk) m_talk = pair.talk->metrics();
    Time ta = m_listen.mouth_to_ear_delay;
    if (pair.talk) {
      ta = (m_listen.mouth_to_ear_delay + m_talk.mouth_to_ear_delay) / 2.0;
    }
    auto scored_listen = m_listen;
    scored_listen.mouth_to_ear_delay = ta;
    cell.mos_listens.add(score(scored_listen));
    cell.loss_listens.add(m_listen.effective_loss());
    cell.delay_listens_ms.add(m_listen.mean_network_delay.ms());
    if (pair.talk) {
      auto scored_talk = m_talk;
      scored_talk.mouth_to_ear_delay = ta;
      cell.mos_talks.add(score(scored_talk));
      cell.loss_talks.add(m_talk.effective_loss());
      cell.delay_talks_ms.add(m_talk.mean_network_delay.ms());
    }
  }
  {
    const ScopedSpan span(trace, "teardown");
    calls.clear();
  }
  c.tear_down(trace, layers);
  return cell;
}

core::WebCell rebuilt_web(const core::ScenarioConfig& cfg, const Plan& plan,
                         core::StatsRegistry& reg, Trace& trace,
                         LayerCounters& layers, std::vector<double>* steps) {
  const core::ProbeBudget& budget = plan.budget;
  Cell c(cfg, reg, trace);
  core::Testbed& testbed = *c.testbed;

  apps::WebPageConfig page;
  tcp::TcpConfig probe_tcp;
  probe_tcp.cc = cfg.tcp_cc;
  probe_tcp.ecn = cfg.ecn;
  auto server =
      std::make_unique<apps::WebServer>(testbed.probe_server(), page, probe_tcp);
  const qoe::G1030 model = cfg.testbed == core::TestbedType::kAccess
                               ? qoe::G1030::access_profile()
                               : qoe::G1030::backbone_profile();

  core::WebCell cell;
  std::vector<std::unique_ptr<apps::WebPageLoad>> loads;
  auto& sim = testbed.sim();

  struct LoadChain {
    const core::ProbeBudget* budget;
    core::Testbed* testbed;
    apps::WebPageConfig page;
    tcp::TcpConfig tcp;
    std::vector<std::unique_ptr<apps::WebPageLoad>>* loads;
    core::WebCell* cell;
    const qoe::G1030* model;
    Trace* trace;
    LayerCounters* layers;
    int remaining = 0;

    void start_next() {
      if (remaining <= 0) return;
      --remaining;
      auto& sim = testbed->sim();
      auto* self = this;
      auto load = std::make_unique<apps::WebPageLoad>(
          testbed->probe_client(), testbed->probe_server().id(), page, tcp,
          [self](const apps::WebPageLoad& done) {
            self->record(done);
            self->testbed->sim().after(self->budget->probe_gap,
                                       [self] { self->start_next(); });
          });
      apps::WebPageLoad* raw = load.get();
      load->start(sim.now());
      sim.after(budget->web_timeout, [raw, self] {
        if (!raw->done()) {
          ++self->cell->timeouts;
          raw->cancel();
        }
      });
      loads->push_back(std::move(load));
    }

    void record(const apps::WebPageLoad& load) {
      const Time plt =
          load.failed() ? budget->web_timeout : load.page_load_time();
      cell->plt_s.add(plt.sec());
      {
        const ScopedSpan span(*trace, "score");
        ++layers->scores;
        cell->mos.add(model->mos(plt));
      }
      cell->retransmits.add(static_cast<double>(load.retransmits()));
    }
  };

  LoadChain chain{&budget, &testbed, page,  probe_tcp, &loads,
                &cell,   &model,   &trace, &layers,  budget.web_loads};
  sim.at(budget.warmup, [&chain] { chain.start_next(); });

  const Time horizon =
      budget.warmup +
      (budget.web_timeout + budget.probe_gap) *
          static_cast<double>(budget.web_loads) +
      Time::seconds(5);
  const auto wanted = static_cast<std::size_t>(budget.web_loads);
  // ExperimentRunner's one-second stepping loop, split where it crosses
  // the warm-up end; the steps themselves are unchanged.
  {
    const ScopedSpan span(trace, "warmup");
    while (sim.now() < budget.warmup && sim.now() < horizon &&
           cell.plt_s.count() < wanted) {
      advance(sim, std::min(horizon, sim.now() + Time::seconds(1)), steps);
    }
  }
  {
    const ScopedSpan span(trace, "measure");
    while (sim.now() < horizon && cell.plt_s.count() < wanted) {
      advance(sim, std::min(horizon, sim.now() + Time::seconds(1)), steps);
    }
  }
  layers.web_loads += loads.size();
  layers.web_timeouts += static_cast<std::uint64_t>(cell.timeouts);
  for (const double r : cell.retransmits.values()) {
    layers.web_retransmits += static_cast<std::uint64_t>(r);
  }
  {
    const ScopedSpan span(trace, "teardown");
    loads.clear();
    server.reset();
  }
  c.tear_down(trace, layers);
  return cell;
}

// ---- figure cells ------------------------------------------------------------

core::ScenarioConfig scenario(core::TestbedType testbed,
                              core::WorkloadType workload,
                              core::CongestionDirection direction,
                              std::size_t buffer, std::uint64_t seed) {
  core::ScenarioConfig cfg;
  cfg.testbed = testbed;
  cfg.workload = workload;
  cfg.direction = direction;
  cfg.buffer_packets = buffer;
  cfg.tcp_cc = core::default_cc(testbed);
  cfg.seed = core::cell_seed(seed, workload, buffer,
                             static_cast<std::uint64_t>(direction));
  return cfg;
}

/// One figure cell: run_qos, run_voip and (access_mix) run_web, through
/// core::ExperimentRunner (`via_runner`, untraced) or through the rebuilt
/// operations: with spans when traced, else timed in steps.
void run_figure_cell(const core::ScenarioConfig& cfg, const Plan& plan,
                     Trace& trace, bool via_runner, RoundResult& round) {
  const ScopedSpan cell_span(trace, "cell");
  const bool rebuilt = trace.enabled() || !via_runner;

  // Every operation gets its own registry, so the blackhole check and the
  // per-layer counters see exactly that operation's testbed.
  auto op = [&](const char* kind, auto&& run_runner, auto&& run_rebuilt,
                auto&& finish) {
    const auto t0 = Clock::now();
    OpResult result = guarded(op_id(kind, cfg), [&](OpResult& r) {
      core::StatsRegistry reg;
      if (rebuilt) {
        finish(r, run_rebuilt(reg, trace.enabled() ? nullptr : &r.part_s));
        add_registry(round.layers, reg);
      } else {
        const core::ExperimentRunner runner(plan.budget, &reg);
        finish(r, run_runner(runner));
      }
      Checker(r.error).blackholes(reg.nodes.snapshot());
    });
    result.wall_s = seconds_since(t0);
    round.ops.push_back(std::move(result));
  };

  op(
      "qos", [&](const core::ExperimentRunner& x) { return x.run_qos(cfg); },
      [&](core::StatsRegistry& reg, std::vector<double>* steps) {
        const ScopedSpan span(trace, "qos");
        return rebuilt_qos(cfg, plan, reg, trace, round.layers, steps);
      },
      [&](OpResult& r, const core::QosCell& c) { finish_qos(r, c, cfg); });
  op(
      "voip",
      [&](const core::ExperimentRunner& x) {
        return x.run_voip(cfg, plan.voip_bidirectional);
      },
      [&](core::StatsRegistry& reg, std::vector<double>* steps) {
        const ScopedSpan span(trace, "voip");
        return rebuilt_voip(cfg, plan, reg, trace, round.layers, steps);
      },
      [&](OpResult& r, const core::VoipCell& c) { finish_voip(r, c, plan); });
  if (plan.with_web) {
    op(
        "web", [&](const core::ExperimentRunner& x) { return x.run_web(cfg); },
        [&](core::StatsRegistry& reg, std::vector<double>* steps) {
          const ScopedSpan span(trace, "web");
          return rebuilt_web(cfg, plan, reg, trace, round.layers, steps);
        },
        [&](OpResult& r, const core::WebCell& c) { finish_web(r, c, plan); });
  }
}

// ---- pdes_ring ---------------------------------------------------------------
//
// bench_pdes's 8-pod ring on core::ShardedEngine at one shard: each pod is
// a gateway, four servers on fast short links and four clients behind
// 100 Mbit/s bottlenecks; neighbouring gateways are joined by 10 ms
// 1 Gbit/s ring links, the only links above the 1 ms lookahead floor.
// Traffic: one intra-pod bulk TCP download per client, two cross-pod
// downloads per pod, one intra-pod VoIP probe scored with the PESQ
// surrogate.

constexpr unsigned kPods = 8;
constexpr unsigned kServersPerPod = 4;
constexpr unsigned kClientsPerPod = 4;
constexpr unsigned kCrossFlowsPerPod = 2;
constexpr std::uint64_t kBulkBytes = 1ull << 50;  // never drains
/// The horizon runs in this many equal run_until steps, timed one by one:
/// a 0.8 s operation needs a fast moment of the host as long as itself,
/// a step only a tenth of that.
constexpr int kRingSteps = 10;

struct PodNodes {
  net::NodeId gw = 0;
  std::array<net::NodeId, kServersPerPod> srv{};
  std::array<net::NodeId, kClientsPerPod> cli{};
};

struct RingLayout {
  std::array<PodNodes, kPods> pods{};
  std::array<std::array<std::size_t, kClientsPerPod>, kPods> down_decl{};
  std::array<std::size_t, kPods> ring_decl{};
};

struct PodTraffic {
  std::vector<std::unique_ptr<tcp::TcpServer>> servers;
  std::vector<std::shared_ptr<tcp::TcpSocket>> accepted;
  std::vector<std::shared_ptr<tcp::TcpSocket>> clients;
  std::unique_ptr<apps::VoipCall> voip;
};

net::LinkSpec link_spec(double rate_bps, Time delay, std::size_t buffer) {
  net::LinkSpec s;
  s.rate_bps = rate_bps;
  s.delay = delay;
  s.buffer_packets = buffer;
  return s;
}

/// The engine with the ring declared and built (the pdes_ring set-up).
std::unique_ptr<core::ShardedEngine> build_ring(const Plan& plan,
                                                net::Node::StatsFold* nodes,
                                                RingLayout& layout) {
  core::ShardedEngine::Config cfg;
  cfg.shards = 1;
  cfg.lookahead_floor = Time::milliseconds(1);
  cfg.seed = plan.seed;
  cfg.node_stats = nodes;
  auto engine = std::make_unique<core::ShardedEngine>(std::move(cfg));

  for (unsigned p = 0; p < kPods; ++p) {
    const std::string prefix = "p" + std::to_string(p) + ".";
    layout.pods[p].gw = engine->add_node(prefix + "gw", 2.0);
    for (unsigned j = 0; j < kServersPerPod; ++j)
      layout.pods[p].srv[j] = engine->add_node(prefix + "s" + std::to_string(j));
    for (unsigned j = 0; j < kClientsPerPod; ++j)
      layout.pods[p].cli[j] = engine->add_node(prefix + "c" + std::to_string(j));
  }
  const net::LinkSpec srv_link = link_spec(1e9, Time::microseconds(200), 512);
  const net::LinkSpec down_link = link_spec(100e6, Time::milliseconds(0.5), 128);
  const net::LinkSpec up_link = link_spec(100e6, Time::milliseconds(0.5), 128);
  const net::LinkSpec ring_link = link_spec(1e9, Time::milliseconds(10), 2048);
  for (unsigned p = 0; p < kPods; ++p) {
    for (unsigned j = 0; j < kServersPerPod; ++j)
      engine->connect(layout.pods[p].srv[j], layout.pods[p].gw, srv_link,
                      srv_link);
    for (unsigned j = 0; j < kClientsPerPod; ++j)
      layout.down_decl[p][j] = engine->connect(
          layout.pods[p].gw, layout.pods[p].cli[j], down_link, up_link);
  }
  for (unsigned p = 0; p < kPods; ++p)
    layout.ring_decl[p] =
        engine->connect(layout.pods[p].gw, layout.pods[(p + 1) % kPods].gw,
                        ring_link, ring_link);
  engine->build();
  return engine;
}

OpResult ring_op(const Plan& plan, Trace& trace, LayerCounters& layers) {
  return guarded("ring/8pods/h" +
                     std::to_string(plan.pdes_horizon.ns() / 1'000'000) + "ms",
                 [&](OpResult& op) {
    const ScopedSpan op_span(trace, "ring");
    const Time horizon = plan.pdes_horizon;
    core::StatsRegistry reg;
    RingLayout layout;
    std::unique_ptr<core::ShardedEngine> engine;
    {
      const ScopedSpan span(trace, "build");
      engine = build_ring(plan, &reg.nodes, layout);
    }

    std::vector<std::unique_ptr<net::LinkMonitor>> down_mon;
    std::vector<std::unique_ptr<net::LinkMonitor>> ring_mon;
    std::vector<PodTraffic> traffic(kPods);
    {
      const ScopedSpan span(trace, "attach");
      for (unsigned p = 0; p < kPods; ++p) {
        for (unsigned j = 0; j < kClientsPerPod; ++j)
          down_mon.push_back(std::make_unique<net::LinkMonitor>(
              *engine->link(layout.down_decl[p][j], true)));
        ring_mon.push_back(std::make_unique<net::LinkMonitor>(
            *engine->link(layout.ring_decl[p], true)));
      }
      tcp::TcpConfig tcp_cfg;
      tcp_cfg.cc = tcp::CcKind::kCubic;
      for (unsigned p = 0; p < kPods; ++p) {
        PodTraffic& pod = traffic[p];
        pod.accepted.reserve(kClientsPerPod + kCrossFlowsPerPod);
        pod.clients.reserve(kClientsPerPod + kCrossFlowsPerPod);
        for (unsigned j = 0; j < kServersPerPod; ++j) {
          pod.servers.push_back(std::make_unique<tcp::TcpServer>(
              engine->node(layout.pods[p].srv[j]), 5000 + j, tcp_cfg,
              [&pod](std::shared_ptr<tcp::TcpSocket> sock) {
                sock->send(kBulkBytes);
                pod.accepted.push_back(std::move(sock));
              }));
        }
      }
      for (unsigned p = 0; p < kPods; ++p) {
        PodTraffic& pod = traffic[p];
        for (unsigned j = 0; j < kClientsPerPod; ++j) {
          const Time at = Time::milliseconds(10 + 3 * p + 7 * j);
          net::Node& client = engine->node(layout.pods[p].cli[j]);
          const net::NodeId server = layout.pods[p].srv[j];
          engine->sim_of(layout.pods[p].cli[j])
              .at(at, [&pod, &client, server, j, tcp_cfg] {
                pod.clients.push_back(
                    tcp::TcpSocket::connect(client, server, 5000 + j, tcp_cfg));
              });
        }
        for (unsigned j = 0; j < kCrossFlowsPerPod; ++j) {
          const Time at = Time::milliseconds(150 + 5 * p + 11 * j);
          net::Node& client = engine->node(layout.pods[p].cli[j]);
          const net::NodeId server = layout.pods[(p + 3) % kPods].srv[j + 2];
          engine->sim_of(layout.pods[p].cli[j])
              .at(at, [&pod, &client, server, j, tcp_cfg] {
                pod.clients.push_back(tcp::TcpSocket::connect(
                    client, server, 5000 + j + 2, tcp_cfg));
              });
        }
        apps::VoipConfig vcfg;
        vcfg.duration = Time::nanoseconds(horizon.ns() * 2 / 5);
        pod.voip = std::make_unique<apps::VoipCall>(
            engine->node(layout.pods[p].srv[0]),
            engine->node(layout.pods[p].cli[0]), vcfg, p);
        pod.voip->start(Time::nanoseconds(horizon.ns() / 10));
      }
    }
    layers.voip_calls += kPods;

    {
      // Equal steps on whole quanta leave the epoch schedule, and so the
      // results, unchanged (the digest checks it).
      const ScopedSpan span(trace, "measure");
      for (int k = 1; k <= kRingSteps; ++k) {
        const auto t0 = Clock::now();
        engine->run_until(Time::nanoseconds(horizon.ns() / kRingSteps * k));
        op.part_s.push_back(seconds_since(t0));
      }
    }

    Digest d;
    Checker check(op.error);
    for (unsigned p = 0; p < kPods; ++p) {
      for (unsigned j = 0; j < kClientsPerPod; ++j) {
        const net::LinkMonitor& m = *down_mon[p * kClientsPerPod + j];
        const double util = m.mean_utilization(Time::zero(), horizon);
        const double loss = m.loss_rate();
        const double qdelay = m.mean_queue_delay_s();
        d.f64(util);
        d.f64(loss);
        d.f64(qdelay);
        check.range("ring util", util, 0.0, 1.0);
        check.range("ring loss", loss, 0.0, 1.0);
        check.range("ring qdelay_s", qdelay, 0.0, 1e9);
      }
      d.u64(ring_mon[p]->tx_bytes());
      const apps::VoipCall& voip = *traffic[p].voip;
      if (!voip.finished()) {
        if (op.error.empty()) op.error = "ring VoIP probe did not finish";
        continue;
      }
      double mos = 0.0;
      {
        const ScopedSpan span(trace, "score");
        ++layers.scores;
        mos = qoe::PesqSurrogate::listening_mos(voip.metrics());
      }
      d.f64(mos);
      check.range("ring voip mos", mos, 1.0, kVoipMosMax);
    }
    const Scheduler::Stats s = engine->scheduler_stats();
    for (const std::uint64_t v : {s.scheduled, s.fired, s.cancelled,
                                  s.rescheduled, s.peak_queue_depth}) {
      d.u64(v);
    }
    op.digest = d.value();

    reg.scheduler.fold(s);
    net::ShardedTopology& topo = engine->topology();
    for (std::size_t n = 0; n < topo.node_count(); ++n) {
      const net::Node& node = topo.node(static_cast<net::NodeId>(n));
      for (std::size_t p = 0; p < node.port_count(); ++p) {
        add_link(layers, *node.port_link(p));
      }
    }
    for (const auto& c : topo.crossings()) {
      layers.crossing_packets += c.link->delivered_packets();
    }
    for (const auto& pod : layout.down_decl) {
      for (const std::size_t decl : pod) {
        add_bottleneck(layers, *engine->link(decl, true));
      }
    }
    const std::int64_t q = engine->quantum().ns();
    layers.pdes_epochs +=
        static_cast<std::uint64_t>((horizon.ns() + q - 1) / q);
    layers.pdes_quantum_ms = engine->quantum().ms();

    {
      const ScopedSpan span(trace, "teardown");
      traffic.clear();
      down_mon.clear();
      ring_mon.clear();
      engine.reset();
    }
    add_registry(layers, reg);
    check.blackholes(reg.nodes.snapshot());
  });
}

}  // namespace

std::optional<WorkloadId> parse_workload(std::string_view name) {
  if (name == "access_mix") return WorkloadId::kAccessMix;
  if (name == "backbone_long") return WorkloadId::kBackboneLong;
  if (name == "pdes_ring") return WorkloadId::kPdesRing;
  return std::nullopt;
}

Plan make_plan(WorkloadId id, std::uint64_t seed) {
  Plan plan;
  plan.id = id;
  plan.seed = seed;
  switch (id) {
    case WorkloadId::kAccessMix:
      // Figs. 7/10 cells at the full (scale 1) probe budget.
      plan.with_web = true;
      plan.voip_bidirectional = true;
      plan.buffers = {8, 64, 256};
      for (const auto workload :
           {core::WorkloadType::kShortMany, core::WorkloadType::kLongFew}) {
        for (const auto direction : {core::CongestionDirection::kDownstream,
                                     core::CongestionDirection::kUpstream}) {
          for (const std::size_t buffer : plan.buffers) {
            plan.cells.push_back(scenario(core::TestbedType::kAccess, workload,
                                          direction, buffer, seed));
          }
        }
      }
      break;
    case WorkloadId::kBackboneLong:
      // 768 persistent Reno flows; quarter budget, one-way VoIP (Fig. 8).
      plan.budget = core::ProbeBudget{}.scaled(0.25);
      plan.voip_bidirectional = false;
      plan.stepped = true;
      plan.buffers = {28, 749, 7490};
      for (const std::size_t buffer : plan.buffers) {
        plan.cells.push_back(scenario(
            core::TestbedType::kBackbone, core::WorkloadType::kLong,
            core::CongestionDirection::kDownstream, buffer, seed));
      }
      break;
    case WorkloadId::kPdesRing:
      // bench_pdes --quick horizon: the VoIP probes finish inside it.
      plan.buffers = {128, 512, 2048};
      plan.pdes_horizon = Time::seconds(2.5);
      break;
  }
  return plan;
}

RoundResult run_round(const Plan& plan, Trace& trace, bool via_runner) {
  RoundResult round;
  const ScopedSpan span(trace, "round");
  const auto t0 = Clock::now();
  if (plan.id == WorkloadId::kPdesRing) {
    const ScopedSpan cell(trace, "cell");
    OpResult op = ring_op(plan, trace, round.layers);
    op.wall_s = seconds_since(t0);
    round.ops.push_back(std::move(op));
  } else {
    for (const auto& cfg : plan.cells)
      run_figure_cell(cfg, plan, trace, via_runner, round);
  }
  round.wall_s = seconds_since(t0);
  return round;
}

std::vector<double> time_setup(const Plan& plan) {
  if (plan.id == WorkloadId::kPdesRing) {
    RingLayout layout;
    const auto t0 = Clock::now();
    const auto engine = build_ring(plan, nullptr, layout);
    return {seconds_since(t0)};
  }
  std::vector<double> times;
  const int ops_per_cell = plan.with_web ? 3 : 2;
  for (const auto& cfg : plan.cells) {
    for (int i = 0; i < ops_per_cell; ++i) {
      const auto t0 = Clock::now();
      const auto testbed = std::make_unique<core::Testbed>(cfg);
      const auto workload = std::make_unique<core::Workload>(*testbed);
      times.push_back(seconds_since(t0));
    }
  }
  return times;
}

}  // namespace qoebench

