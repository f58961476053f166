// run_cell -- run any single experimental cell from the command line.
//
// The figure benches sweep full grids; this utility runs exactly one cell
// and prints every metric the suite can produce for it, which is the
// fastest way to explore a configuration interactively:
//
//   $ ./run_cell --testbed access --workload long-few --direction upstream
//                --buffer 256 --queue droptail --app all
//
// Flags (all optional): --testbed access|backbone, --workload <name>,
// --direction downstream|upstream|bidirectional, --buffer <pkts>,
// --queue droptail|red|codel|priority, --cc reno|bic|cubic|vegas|bbr,
// --ecn (AQM marks + TCP negotiates ECN), --app voip|video|web|qos|all,
// --seed <n>, --scale <f>.
//
// Only the spellings above are accepted. An unknown flag or value, a
// --buffer below 1, a negative or non-numeric --buffer/--seed, a --scale
// outside (0, 1000], or a workload the testbed does not run exits 2 with
// a message naming the flag and value. Without --cc, the background
// traffic uses the testbed's default (reno on the backbone, cubic on the
// access testbed).
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <utility>

#include "apps/video_codec.hpp"
#include "core/experiment.hpp"

namespace {

using namespace qoesim;
using namespace qoesim::core;

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n(see the header of run_cell.cpp)\n",
               msg.c_str());
  std::exit(2);
}

[[noreturn]] void bad_value(const std::string& flag, const std::string& v) {
  usage("unknown " + flag + " value: " + v);
}

template <typename T>
T parse_choice(const std::string& flag, const std::string& v,
               std::initializer_list<std::pair<const char*, T>> choices) {
  for (const auto& [name, value] : choices) {
    if (v == name) return value;
  }
  bad_value(flag, v);
}

WorkloadType parse_workload(const std::string& s) {
  for (auto w : {WorkloadType::kNoBg, WorkloadType::kShortFew,
                 WorkloadType::kShortMany, WorkloadType::kLongFew,
                 WorkloadType::kLongMany, WorkloadType::kShortLow,
                 WorkloadType::kShortMedium, WorkloadType::kShortHigh,
                 WorkloadType::kShortOverload, WorkloadType::kLong}) {
    if (s == to_string(w)) return w;
  }
  bad_value("--workload", s);
}

// strtoull skips leading blanks and wraps a leading '-', so the value must
// start with a digit and be consumed whole.
std::uint64_t parse_uint(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || !std::isdigit(static_cast<unsigned char>(v[0])) ||
      *end != '\0' || errno == ERANGE) {
    usage(flag + " expects a non-negative integer: " + v);
  }
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  ScenarioConfig cfg;
  cfg.testbed = TestbedType::kAccess;
  cfg.workload = WorkloadType::kLongFew;
  cfg.direction = CongestionDirection::kUpstream;
  cfg.buffer_packets = 128;
  std::string app = "all";
  double scale = 1.0;
  bool cc_given = false;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--testbed") {
      cfg.testbed = parse_choice<TestbedType>(
          flag, next(),
          {{"access", TestbedType::kAccess},
           {"backbone", TestbedType::kBackbone}});
    } else if (flag == "--workload") {
      cfg.workload = parse_workload(next());
    } else if (flag == "--direction") {
      cfg.direction = parse_choice<CongestionDirection>(
          flag, next(),
          {{"downstream", CongestionDirection::kDownstream},
           {"upstream", CongestionDirection::kUpstream},
           {"bidirectional", CongestionDirection::kBidirectional}});
    } else if (flag == "--buffer") {
      const auto v = next();
      const std::uint64_t n = parse_uint(flag, v);
      if (n < 1) usage("--buffer must be >= 1: " + v);
      cfg.buffer_packets = static_cast<std::size_t>(n);
    } else if (flag == "--queue") {
      cfg.queue = parse_choice<net::QueueKind>(
          flag, next(),
          {{"droptail", net::QueueKind::kDropTail},
           {"red", net::QueueKind::kRed},
           {"codel", net::QueueKind::kCoDel},
           {"priority", net::QueueKind::kPriority}});
    } else if (flag == "--cc") {
      cfg.tcp_cc = parse_choice<tcp::CcKind>(
          flag, next(),
          {{"reno", tcp::CcKind::kReno},
           {"bic", tcp::CcKind::kBic},
           {"cubic", tcp::CcKind::kCubic},
           {"vegas", tcp::CcKind::kVegas},
           {"bbr", tcp::CcKind::kBbr}});
      cc_given = true;
    } else if (flag == "--ecn") {
      cfg.ecn = true;
    } else if (flag == "--app") {
      app = next();
      if (app != "voip" && app != "video" && app != "web" && app != "qos" &&
          app != "all") {
        bad_value(flag, app);
      }
    } else if (flag == "--seed") {
      cfg.seed = parse_uint(flag, next());
    } else if (flag == "--scale") {
      const auto v = next();
      char* end = nullptr;
      scale = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0') {
        usage("--scale expects a number: " + v);
      }
      // !(x > 0) also rejects NaN; same range as the benches' --scale.
      if (!(scale > 0.0) || scale > 1e3) {
        usage("--scale must be in (0, 1000]: " + v);
      }
    } else {
      usage("unknown flag: " + flag);
    }
  }
  if (!cc_given) cfg.tcp_cc = default_cc(cfg.testbed);
  try {
    (void)workload_spec(cfg.testbed, cfg.workload, cfg.direction);
  } catch (const std::invalid_argument&) {
    usage(std::string("workload ") + to_string(cfg.workload) +
          " does not run on testbed " + to_string(cfg.testbed));
  }

  std::printf("cell: %s queue=%s cc=%s\n\n", cfg.label().c_str(),
              net::to_string(cfg.queue), tcp::to_string(cfg.tcp_cc));

  ExperimentRunner runner(ProbeBudget::from_env().scaled(scale));
  const bool all = app == "all";

  if (all || app == "qos") {
    const auto c = runner.run_qos(cfg);
    std::printf("[qos]   util down %.1f%% (sd %.1f)  up %.1f%% (sd %.1f)\n",
                c.util_down_mean * 100, c.util_down_sd * 100,
                c.util_up_mean * 100, c.util_up_sd * 100);
    std::printf("[qos]   loss down %.2f%%  up %.2f%%   queue delay down"
                " %.1fms  up %.1fms   flows %.1f\n",
                c.loss_down * 100, c.loss_up * 100, c.mean_delay_down_ms,
                c.mean_delay_up_ms, c.concurrent_flows);
    if (cfg.ecn) {
      std::printf("[qos]   ecn marks down %.2f%%  up %.2f%%\n",
                  c.mark_down * 100, c.mark_up * 100);
    }
  }
  if (all || app == "voip") {
    const auto c = runner.run_voip(cfg, true);
    std::printf("[voip]  talks MOS %.1f (loss %.1f%%, delay %.0fms)   "
                "listens MOS %.1f (loss %.1f%%, delay %.0fms)\n",
                c.median_mos_talks(), c.loss_talks.median() * 100,
                c.delay_talks_ms.median(), c.median_mos_listens(),
                c.loss_listens.median() * 100, c.delay_listens_ms.median());
  }
  if (all || app == "video") {
    const auto sd = runner.run_video(cfg, apps::VideoCodecConfig::sd());
    const auto hd = runner.run_video(cfg, apps::VideoCodecConfig::hd());
    std::printf("[video] SD SSIM %.2f MOS %.1f (loss %.2f%%)   HD SSIM %.2f"
                " MOS %.1f (loss %.2f%%)\n",
                sd.median_ssim(), sd.median_mos(),
                sd.packet_loss.median() * 100, hd.median_ssim(),
                hd.median_mos(), hd.packet_loss.median() * 100);
  }
  if (all || app == "web") {
    const auto c = runner.run_web(cfg);
    std::printf("[web]   PLT %.2fs  MOS %.1f  (rtx med %.0f, timeouts %d)\n",
                c.median_plt_s(), c.median_mos(),
                c.retransmits.median_or(0.0), c.timeouts);
  }
  return 0;
}
