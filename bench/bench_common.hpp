// Shared CLI and rendering helpers for the figure/table benches.
//
// Every bench accepts:
//   --scale <f>   scale probe repetitions / measurement durations (default 1)
//   --seed <n>    master seed (default 1)
//   --jobs <n>    worker threads for grid sweeps (default 1; 0 = all cores)
//   --csv         also emit CSV after the rendered table
//   --no-color    render tone tags instead of ANSI colors
//   --quick       CI smoke mode: quarter probe budget on top of --scale
//                 (micro-benches interpret it as their own fast preset)
//
// The engine-scale benches (bench_pdes, bench_megaflows) also take
//   --shards <n>  PDES engine shards within one scenario, 0..64 (default
//                 0 = the bench's own default; see parse_shards). Stdout
//                 is byte-identical across values -- the --shards
//                 determinism gate in CI pins it.
// Figure and table benches run every cell on one Simulation and reject
// --shards like any other unknown flag.
//
// Flags are validated: non-numeric or non-positive values and unknown
// flags abort with a usage message instead of being silently ignored.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/heatmap.hpp"
#include "core/scenario.hpp"
#include "core/stats_registry.hpp"
#include "core/sweep.hpp"
#include "net/node.hpp"
#include "sim/event.hpp"
#include "stats/table.hpp"

namespace qoesim::bench {

/// Wall-clock anchor for the events/sec rate; BenchOptions::parse touches
/// it so the measured interval starts before any simulation work.
inline std::chrono::steady_clock::time_point& bench_start_time() {
  // qoesim-lint: allow(global-state) -- host-time anchor for the perf footer; never feeds simulation results
  static auto start = std::chrono::steady_clock::now();
  return start;
}

/// The one StatsRegistry this bench process owns. The engine keeps no
/// process-wide stat aggregates (see core/stats_registry.hpp); a bench
/// explicitly passes this registry into everything it runs -- via
/// BenchOptions::runner() for figure sweeps, or Simulation/Scheduler/
/// Topology constructor arguments for micro benches -- and the atexit
/// summaries below read it back. Static lifetime is required because the
/// summaries run from atexit; the bench harness is the designated owner
/// of this aggregation (the engine itself stays global-free).
inline core::StatsRegistry& stats_registry() {
  // qoesim-lint: allow(global-state) -- the bench process's designated registry owner; atexit summaries need static lifetime
  static core::StatsRegistry registry;
  return registry;
}

/// Print the aggregated scheduler counters of every Simulation the bench
/// ran. The counters (sums / max over cells) go to stdout and are
/// byte-identical for a fixed seed regardless of --jobs; the wall-clock
/// events/sec rate goes to stderr so stdout stays diff-stable for the
/// sweep determinism checks. BenchOptions::parse registers this via
/// atexit, so every bench reports it without an explicit call.
inline void emit_scheduler_summary() {
  const Scheduler::Stats stats = stats_registry().scheduler.snapshot();
  std::printf(
      "[scheduler] fired=%llu scheduled=%llu cancelled=%llu"
      " rescheduled=%llu peak_depth=%llu\n",
      static_cast<unsigned long long>(stats.fired),
      static_cast<unsigned long long>(stats.scheduled),
      static_cast<unsigned long long>(stats.cancelled),
      static_cast<unsigned long long>(stats.rescheduled),
      static_cast<unsigned long long>(stats.peak_queue_depth));
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - bench_start_time())
                          .count();
  if (secs > 0.0) {
    std::fprintf(stderr, "[scheduler] %.2f M events/s (%.2fs wall)\n",
                 static_cast<double>(stats.fired) / secs / 1e6, secs);
  }
}

/// Print the aggregated node forwarding/demux counters of every Node the
/// bench destroyed, then assert nothing was blackholed: a figure run must
/// end with undelivered == unrouted == 0 (anything else means a misrouted
/// topology or a missing handler silently ate packets). Output goes to
/// stderr so stdout stays diff-stable for the sweep determinism checks;
/// on violation the process exits 1 so CI smoke steps catch it.
inline void emit_node_summary() {
  const net::Node::Stats s = stats_registry().nodes.snapshot();
  std::fprintf(stderr,
               "[node] delivered=%llu undelivered=%llu stray_late=%llu"
               " unrouted=%llu binds=%llu unbinds=%llu demux_rehashes=%llu\n",
               static_cast<unsigned long long>(s.delivered),
               static_cast<unsigned long long>(s.undelivered),
               static_cast<unsigned long long>(s.stray_late),
               static_cast<unsigned long long>(s.unrouted),
               static_cast<unsigned long long>(s.binds),
               static_cast<unsigned long long>(s.unbinds),
               static_cast<unsigned long long>(s.demux_rehashes));
  // Per-flow memory contract (README "flow lifecycle & memory contract"):
  // hot = pooled arena slot (control block + socket), cold = lazily
  // attached loss/reorder block. cold_peak shows how many flows ever
  // needed one at once; a steady-state flow costs hot bytes only.
  if (s.flows_opened != 0) {
    std::fprintf(stderr,
                 "[flow] opened=%llu closed=%llu peak=%llu hot_bytes=%llu"
                 " cold_bytes=%llu cold_allocs=%llu cold_frees=%llu"
                 " cold_peak=%llu\n",
                 static_cast<unsigned long long>(s.flows_opened),
                 static_cast<unsigned long long>(s.flows_closed),
                 static_cast<unsigned long long>(s.flow_peak_live),
                 static_cast<unsigned long long>(s.flow_hot_bytes),
                 static_cast<unsigned long long>(s.flow_cold_bytes),
                 static_cast<unsigned long long>(s.flow_cold_allocs),
                 static_cast<unsigned long long>(s.flow_cold_frees),
                 static_cast<unsigned long long>(s.flow_cold_peak_live));
  }
  if (s.undelivered != 0 || s.unrouted != 0) {
    std::fprintf(stderr,
                 "[node] ERROR: %llu undelivered / %llu unrouted packets"
                 " were blackholed\n",
                 static_cast<unsigned long long>(s.undelivered),
                 static_cast<unsigned long long>(s.unrouted));
    std::_Exit(1);
  }
}

inline void print_usage(std::FILE* out, const char* argv0,
                        std::initializer_list<const char*> extra_value_flags) {
  std::fprintf(out,
               "usage: %s [--scale f] [--seed n] [--jobs n]"
               " [--csv] [--no-color] [--quick]",
               argv0);
  for (const char* flag : extra_value_flags) std::fprintf(out, " [%s v]", flag);
  std::fputs("\n", out);
}

/// Report a malformed command line and exit 2. _Exit, not exit: a bench
/// validating its own flag after BenchOptions::parse has already
/// registered the atexit summaries, and they must not follow a usage
/// error onto stdout.
[[noreturn]] inline void usage_error(
    const char* argv0, const char* message, const char* arg,
    std::initializer_list<const char*> extra_value_flags) {
  std::fprintf(stderr, "%s: %s: %s\n", argv0, message, arg);
  print_usage(stderr, argv0, extra_value_flags);
  std::_Exit(2);
}

struct BenchOptions {
  double scale = 1.0;
  std::uint64_t seed = 1;
  unsigned jobs = 1;  ///< sweep worker threads; 0 = hardware concurrency
  bool csv = false;
  bool color = true;
  bool quick = false;  ///< CI smoke preset (see budget())

  /// Parse the shared flags. `extra_value_flags` names bench-specific
  /// flags that take one value and are parsed elsewhere (e.g. fig9's
  /// --clip); they are skipped here instead of rejected as unknown.
  static BenchOptions parse(
      int argc, char** argv,
      std::initializer_list<const char*> extra_value_flags = {}) {
    bench_start_time();  // anchor the events/sec wall clock
    BenchOptions opt;
    auto fail = [&](const char* message, const char* arg) {
      usage_error(argv[0], message, arg, extra_value_flags);
    };
    auto value_of = [&](int& i) -> const char* {
      if (i + 1 >= argc) fail("missing value for flag", argv[i]);
      return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--scale") == 0) {
        const char* text = value_of(i);
        char* end = nullptr;
        opt.scale = std::strtod(text, &end);
        if (end == text || *end != '\0')
          fail("--scale expects a number", text);
        // !(x > 0) also rejects NaN; the upper bound keeps the scaled
        // repetition counts inside int range (same limit as QOESIM_SCALE).
        if (!(opt.scale > 0.0) || opt.scale > 1e3)
          fail("--scale must be in (0, 1000]", text);
      } else if (std::strcmp(argv[i], "--seed") == 0) {
        const char* text = value_of(i);
        char* end = nullptr;
        opt.seed = std::strtoull(text, &end, 10);
        // strtoull silently wraps negative input, so reject it up front.
        if (text[0] == '-' || end == text || *end != '\0')
          fail("--seed expects a non-negative integer", text);
      } else if (std::strcmp(argv[i], "--jobs") == 0) {
        const char* text = value_of(i);
        char* end = nullptr;
        const unsigned long jobs = std::strtoul(text, &end, 10);
        if (end == text || *end != '\0' || jobs > 4096)
          fail("--jobs expects an integer in [0, 4096]", text);
        opt.jobs = static_cast<unsigned>(jobs);
      } else if (std::strcmp(argv[i], "--csv") == 0) {
        opt.csv = true;
      } else if (std::strcmp(argv[i], "--no-color") == 0) {
        opt.color = false;
      } else if (std::strcmp(argv[i], "--quick") == 0) {
        opt.quick = true;
      } else if (std::strcmp(argv[i], "--help") == 0) {
        print_usage(stdout, argv[0], extra_value_flags);
        std::exit(0);
      } else {
        bool extra = false;
        for (const char* flag : extra_value_flags) {
          if (std::strcmp(argv[i], flag) == 0) {
            (void)value_of(i);  // value consumed by the bench itself
            extra = true;
            break;
          }
        }
        if (!extra) fail("unknown flag", argv[i]);
      }
    }
    // Registered only on a successful parse (after the --help/error
    // exits), so usage output is never followed by a stats line. The node
    // summary runs after the scheduler line and enforces the
    // zero-blackhole invariant for every bench.
    std::atexit([] {
      emit_scheduler_summary();
      emit_node_summary();
    });
    return opt;
  }

  core::ProbeBudget budget() const {
    // --quick (CI smoke / determinism gate) quarters the probe budget on
    // top of --scale; a --quick run equals a --scale 0.25*f run exactly.
    return core::ProbeBudget::from_env().scaled(quick ? scale * 0.25 : scale);
  }

  /// Experiment runner wired to the bench-owned StatsRegistry, so every
  /// cell's scheduler/node counters land in the atexit summary lines.
  core::ExperimentRunner runner() const {
    return core::ExperimentRunner(budget(), &stats_registry());
  }

  /// Sweep pool for grid evaluation, sized by --jobs.
  core::SweepRunner sweep() const { return core::SweepRunner(jobs); }
};

/// The --shards value of an engine-scale bench, which passes "--shards"
/// to BenchOptions::parse as an extra value flag and calls this after it
/// (parse has then already rejected unknown flags and missing values).
/// 0 = the bench's default. Exits 2 on a value outside [0, 64].
inline unsigned parse_shards(int argc, char** argv) {
  unsigned shards = 0;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") != 0) continue;
    const char* text = argv[++i];
    char* end = nullptr;
    const unsigned long value = std::strtoul(text, &end, 10);
    if (end == text || *end != '\0' || value > 64)
      usage_error(argv[0], "--shards expects an integer in [0, 64]", text,
                  {"--shards"});
    shards = static_cast<unsigned>(value);
  }
  return shards;
}

inline void emit(const stats::HeatmapTable& table, const BenchOptions& opt) {
  std::fputs(table.render(opt.color).c_str(), stdout);
  if (opt.csv) {
    std::fputs("\n[csv]\n", stdout);
    std::fputs(table.to_csv().c_str(), stdout);
  }
  std::fputs("\n", stdout);
}

inline void emit(const stats::TextTable& table, const BenchOptions& opt,
                 const char* title) {
  std::printf("== %s ==\n", title);
  std::fputs(table.render().c_str(), stdout);
  if (opt.csv) {
    std::fputs("\n[csv]\n", stdout);
    std::fputs(table.to_csv().c_str(), stdout);
  }
  std::fputs("\n", stdout);
}

inline core::ScenarioConfig make_scenario(core::TestbedType testbed,
                                          core::WorkloadType workload,
                                          core::CongestionDirection direction,
                                          std::size_t buffer,
                                          std::uint64_t seed) {
  core::ScenarioConfig cfg;
  cfg.testbed = testbed;
  cfg.workload = workload;
  cfg.direction = direction;
  cfg.buffer_packets = buffer;
  cfg.tcp_cc = core::default_cc(testbed);
  // Deterministic per-cell seed (direction as salt): structurally identical
  // cells (e.g. short-few vs short-many upstream-only) still see independent
  // stochastic runs, and the value never depends on evaluation order.
  cfg.seed = core::cell_seed(seed, workload, buffer,
                             static_cast<std::uint64_t>(direction));
  return cfg;
}

/// Three-probe measurement of one ablation scenario: background QoS plus
/// VoIP and web probes through the same bottleneck.
struct AblationCell {
  core::QosCell qos;
  core::VoipCell voip;
  core::WebCell web;
};

/// Shared harness for the ablation benches: sweep the (variant x buffer)
/// grid of the paper's bufferbloat scenario (long-few upload congestion)
/// in parallel, then emit rows in list order with a separator after each
/// variant's buffers. `mutate(cfg, variant)` applies the ablated knob;
/// `emit_row(variant, buffer, cell)` renders one table row.
template <typename Variant, typename MutateFn, typename RowFn,
          typename SeparatorFn>
void run_ablation_grid(const BenchOptions& opt,
                       const core::ExperimentRunner& runner,
                       std::initializer_list<Variant> variants,
                       std::initializer_list<std::size_t> buffers,
                       MutateFn&& mutate, RowFn&& emit_row,
                       SeparatorFn&& emit_separator) {
  struct Case {
    Variant variant;
    std::size_t buffer;
  };
  std::vector<Case> cases;
  for (Variant variant : variants)
    for (std::size_t buffer : buffers) cases.push_back({variant, buffer});

  const auto results = opt.sweep().map(cases.size(), [&](std::size_t i) {
    auto cfg = make_scenario(core::TestbedType::kAccess,
                             core::WorkloadType::kLongFew,
                             core::CongestionDirection::kUpstream,
                             cases[i].buffer, opt.seed);
    mutate(cfg, cases[i].variant);
    return AblationCell{runner.run_qos(cfg), runner.run_voip(cfg, true),
                        runner.run_web(cfg)};
  });

  for (std::size_t i = 0; i < cases.size(); ++i) {
    emit_row(cases[i].variant, cases[i].buffer, results[i]);
    if (i + 1 == cases.size() || cases[i + 1].variant != cases[i].variant)
      emit_separator();
  }
}

}  // namespace qoesim::bench
