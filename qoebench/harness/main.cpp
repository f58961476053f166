// qoebench -- benchmark harness for qoesim.
//
//   qoebench --workload <access_mix|backbone_long|pdes_ring> --seed <n>
//            --seconds <s> --trace <0|1>
//
// Repeats the workload's unit of work in back-to-back rounds until
// --seconds have passed (at least kMinRounds rounds), timing every
// operation. --trace 0 runs untraced rounds, each preceded by set-up-only
// passes; --trace 1 alternates untraced and traced rounds, then runs the
// layer probes. A stepped plan (backbone_long) first runs one untimed
// check round through ExperimentRunner.
// Stdout carries one JSON record per line (host, round, spans, probes,
// end); run.py turns them into the benchmark's metrics.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "probes.hpp"
#include "workloads.hpp"

namespace {

using namespace qoebench;
using Clock = std::chrono::steady_clock;

/// Every run compares results across rounds and takes a minimum over them.
constexpr int kMinRounds = 3;
/// Set-up passes per round; each operation reports its fastest.
constexpr int kSetupPasses = 5;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_number(std::uint64_t v) { return std::to_string(v); }

void print_layers(const LayerCounters& l) {
  const qoesim::net::Node::Stats& n = l.nodes;
  const std::pair<const char*, std::uint64_t> counts[] = {
      {"sched_scheduled", l.sched.scheduled},
      {"sched_fired", l.sched.fired},
      {"sched_cancelled", l.sched.cancelled},
      {"sched_rescheduled", l.sched.rescheduled},
      {"sched_peak_depth", l.sched.peak_queue_depth},
      {"delivered", n.delivered},
      {"undelivered", n.undelivered},
      {"stray_late", n.stray_late},
      {"unrouted", n.unrouted},
      {"binds", n.binds},
      {"demux_rehashes", n.demux_rehashes},
      {"flows_opened", n.flows_opened},
      {"flow_peak_live", n.flow_peak_live},
      {"flow_hot_bytes", n.flow_hot_bytes},
      {"flow_cold_allocs", n.flow_cold_allocs},
      {"flow_cold_peak_live", n.flow_cold_peak_live},
      {"flow_cold_bytes", n.flow_cold_bytes},
      {"link_tx", l.link_tx},
      {"slab_growths", l.slab_growths},
      {"bottleneck_offered", l.bottleneck_offered},
      {"bottleneck_drops", l.bottleneck_drops},
      {"crossing_packets", l.crossing_packets},
      {"flows_started", l.flows_started},
      {"flows_completed", l.flows_completed},
      {"voip_calls", l.voip_calls},
      {"web_loads", l.web_loads},
      {"web_timeouts", l.web_timeouts},
      {"web_retransmits", l.web_retransmits},
      {"scores", l.scores},
      {"pdes_epochs", l.pdes_epochs},
  };
  std::printf(",\"layers\":{");
  for (const auto& [name, value] : counts) {
    std::printf("\"%s\":%s,", name, json_number(value).c_str());
  }
  std::printf("\"pdes_quantum_ms\":%s}", json_number(l.pdes_quantum_ms).c_str());
}

/// `setup_s` holds one set-up time per operation, or nothing. A `check`
/// round only provides digests; it is not timed.
void print_round(int index, bool traced, bool check, const RoundResult& r,
                 const std::vector<double>& setup_s) {
  std::printf("{\"kind\":\"round\",\"round\":%d,\"traced\":%s,\"check\":%s,"
              "\"wall_s\":%s",
              index, traced ? "true" : "false", check ? "true" : "false",
              json_number(r.wall_s).c_str());
  std::printf(",\"ops\":[");
  for (std::size_t i = 0; i < r.ops.size(); ++i) {
    const OpResult& op = r.ops[i];
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016" PRIx64, op.digest);
    std::printf("%s{\"id\":%s,\"digest\":\"%s\",\"error\":%s,\"wall_s\":%s",
                i ? "," : "", json_string(op.id).c_str(), digest,
                json_string(op.error).c_str(), json_number(op.wall_s).c_str());
    if (i < setup_s.size())
      std::printf(",\"setup_s\":%s", json_number(setup_s[i]).c_str());
    if (!op.part_s.empty()) {
      std::printf(",\"part_s\":[");
      for (std::size_t k = 0; k < op.part_s.size(); ++k)
        std::printf("%s%s", k ? "," : "", json_number(op.part_s[k]).c_str());
      std::printf("]");
    }
    std::printf("}");
  }
  std::printf("]");
  if (traced) print_layers(r.layers);
  std::printf("}\n");
  std::fflush(stdout);
}

void print_spans(const Trace& trace) {
  const auto& spans = trace.spans();
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::printf("{\"kind\":\"spans\",\"fields\":[\"round\",\"name\",\"parent\","
              "\"start_ns\",\"end_ns\"],\"spans\":[");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Trace::Span& s = spans[i];
    std::printf("%s[%d,\"%s\",%d,%lld,%lld]", i ? "," : "", s.round, s.name,
                s.parent, static_cast<long long>(s.start_ns - origin),
                static_cast<long long>(s.end_ns - origin));
  }
  std::printf("]}\n");
}

/// Peak resident set of this process image, from /proc/self/status
/// VmHWM. (getrusage's ru_maxrss would also count the parent's image
/// before exec, since Linux keeps it across execve.)
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib / 1024.0;
}

[[noreturn]] void usage(const char* argv0, const char* why) {
  std::fprintf(stderr, "%s: %s\nusage: %s --workload <access_mix|"
               "backbone_long|pdes_ring> --seed <n> --seconds <s> "
               "--trace <0|1>\n", argv0, why, argv0);
  std::exit(2);
}

std::uint64_t parse_u64(const char* argv0, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (text[0] == '-' || end == text || *end != '\0') {
    usage(argv0, "expected a non-negative integer");
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<WorkloadId> workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage(argv[0], "missing value");
    const char* flag = argv[i];
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      workload = parse_workload(value);
      if (!workload) usage(argv[0], "unknown workload");
    } else if (std::strcmp(flag, "--seed") == 0) {
      seed = parse_u64(argv[0], value);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      seconds = static_cast<double>(parse_u64(argv[0], value));
    } else if (std::strcmp(flag, "--trace") == 0) {
      const std::uint64_t t = parse_u64(argv[0], value);
      if (t > 1) usage(argv[0], "--trace expects 0 or 1");
      traced = t == 1;
    } else {
      usage(argv[0], "unknown flag");
    }
  }
  if (!workload) usage(argv[0], "--workload is required");

  const Plan plan = make_plan(*workload, seed);
  std::printf("{\"kind\":\"host\",\"compiler\":%s,\"build_type\":%s}\n",
              json_string(__VERSION__).c_str(),
              json_string(QOEBENCH_BUILD_TYPE).c_str());

  Trace untraced(false);
  Trace trace(true);
  RoundResult last_traced;
  // A stepped plan's timed rounds bypass ExperimentRunner; one untimed
  // round through it gives the digests they must reproduce.
  if (plan.stepped) {
    print_round(-1, false, true, run_round(plan, untraced, true), {});
  }
  const auto start = Clock::now();
  int rounds = 0;
  for (;;) {
    std::vector<double> setup_s;
    if (!traced) {
      setup_s = time_setup(plan);
      for (int pass = 1; pass < kSetupPasses; ++pass) {
        const std::vector<double> again = time_setup(plan);
        for (std::size_t i = 0; i < setup_s.size(); ++i)
          setup_s[i] = std::min(setup_s[i], again[i]);
      }
    }
    print_round(rounds, false, false, run_round(plan, untraced, !plan.stepped),
                setup_s);
    if (traced) {
      trace.set_round(rounds);
      last_traced = run_round(plan, trace, false);
      print_round(rounds, true, false, last_traced, {});
    }
    ++rounds;
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (rounds >= kMinRounds && elapsed >= seconds) break;
  }

  if (traced) {
    print_spans(trace);
    const ProbeResults p = run_probes(
        static_cast<std::size_t>(last_traced.layers.sched.peak_queue_depth),
        plan.buffers,
        static_cast<std::size_t>(last_traced.layers.nodes.flow_peak_live));
    std::printf("{\"kind\":\"probes\",\"sched_ns_per_event\":%s,"
                "\"link_ns_per_packet\":%s,\"demux_ns_per_lookup\":%s,"
                "\"qoe_ns_per_score\":%s}\n",
                json_number(p.sched_ns_per_event).c_str(),
                json_number(p.link_ns_per_packet).c_str(),
                json_number(p.demux_ns_per_lookup).c_str(),
                json_number(p.qoe_ns_per_score).c_str());
  }
  std::printf("{\"kind\":\"end\",\"rounds\":%d,\"peak_rss_mb\":%s}\n", rounds,
              json_number(peak_rss_mb()).c_str());
  return 0;
}
