// qoesim -- experiment runner: one call per heatmap cell.
//
// Each run_* method builds a fresh testbed and Table-1 workload for the
// given scenario, lets it warm up to steady state, drives application
// probes through the bottleneck (back-to-back repetitions, like the
// paper's repeated samples), and aggregates the QoE scores. The paper
// measures each cell for two hours; the default budget is scaled down and
// configurable (QOESIM_SCALE env var or explicit ProbeBudget), which is
// safe because the queue process reaches steady state within seconds.
#pragma once

#include <cstdint>
#include <string>

#include "apps/video_codec.hpp"
#include "core/scenario.hpp"
#include "qoe/voip_qoe.hpp"
#include "stats/summary.hpp"

namespace qoesim::net {
class BinaryTracer;
}  // namespace qoesim::net

namespace qoesim::core {

struct StatsRegistry;

struct ProbeBudget {
  int voip_calls = 4;     ///< paper: 200 (access) / 2000 (backbone)
  int video_reps = 2;     ///< paper: 50
  int web_loads = 12;     ///< paper: 300 (access) / 500 (backbone)
  /// Long enough for greedy flows to fill even 10xBDP buffers (the queue
  /// process needs ~15 s to reach steady state in the deepest configs).
  Time warmup = Time::seconds(15);
  Time qos_duration = Time::seconds(20);  ///< measurement window, Fig. 4/5
  Time probe_gap = Time::seconds(1);
  Time web_timeout = Time::seconds(30);   ///< per page load (paper PLTs <25s)

  /// Scale repetitions/durations by the QOESIM_SCALE environment variable
  /// (e.g. 0.5 for a quick pass, 4 for tighter medians).
  static ProbeBudget from_env();
  ProbeBudget scaled(double factor) const;
};

/// QoS measurements of the background traffic alone (Table 1, Fig. 4/5).
struct QosCell {
  double mean_delay_down_ms = 0.0;  ///< mean buffer delay, downlink
  double mean_delay_up_ms = 0.0;
  double util_down_mean = 0.0;  ///< per-second utilization, fraction
  double util_down_sd = 0.0;
  double util_up_mean = 0.0;
  double util_up_sd = 0.0;
  double loss_down = 0.0;  ///< drop fraction at the bottleneck buffer
  double loss_up = 0.0;
  double mark_down = 0.0;  ///< ECN CE-mark fraction (0 without ECN)
  double mark_up = 0.0;
  double concurrent_flows = 0.0;
  stats::Samples util_down_bins;  ///< per-bin samples (Fig. 5 boxplots)
  stats::Samples util_up_bins;
};

/// VoIP cell: distributions over repeated calls (Fig. 7/8).
struct VoipCell {
  stats::Samples mos_talks;    ///< client->server leg ("user talks")
  stats::Samples mos_listens;  ///< server->client leg ("user listens")
  stats::Samples loss_talks;   ///< effective loss fraction
  stats::Samples loss_listens;
  stats::Samples delay_talks_ms;  ///< one-way network delay
  stats::Samples delay_listens_ms;
  double median_mos_talks() const;
  double median_mos_listens() const;
};

/// Video cell (one resolution) (Fig. 9).
struct VideoCell {
  stats::Samples ssim;
  stats::Samples mos;
  stats::Samples packet_loss;
  double median_ssim() const;
  double median_mos() const;
};

/// Web cell (Fig. 10/11).
struct WebCell {
  stats::Samples plt_s;
  stats::Samples mos;
  stats::Samples retransmits;
  int timeouts = 0;  ///< loads cut off at the web_timeout budget
  double median_plt_s() const;
  double median_mos() const;
};

class ExperimentRunner {
 public:
  /// `stats` (optional) is handed to every Testbed the runner builds, so
  /// one bench-owned core::StatsRegistry aggregates the scheduler/node
  /// counters of every cell; it must outlive the runner. Runs fold nothing
  /// anywhere when it is null (tests, examples).
  explicit ExperimentRunner(ProbeBudget budget = ProbeBudget::from_env(),
                            StatsRegistry* stats = nullptr)
      : budget_(budget), stats_(stats) {}

  const ProbeBudget& budget() const { return budget_; }

  /// Background-traffic-only measurement (no probes). `tracer` (optional)
  /// observes the cell's bottleneck links for the whole run -- downlink as
  /// point 0, uplink as point 1 (net/trace_binary.hpp). Parallel sweeps
  /// must pass one tracer per cell: a cell's packet stream is
  /// deterministic, so per-cell bodies concatenated in sweep order are
  /// byte-identical regardless of --jobs.
  QosCell run_qos(const ScenarioConfig& config,
                  net::BinaryTracer* tracer = nullptr) const;

  /// Bidirectional VoIP call probes. On the backbone the paper streams
  /// one direction only; pass bidirectional=false to match.
  VoipCell run_voip(const ScenarioConfig& config,
                    bool bidirectional = true) const;

  /// RTP video stream probes (server -> client, as in IPTV).
  VideoCell run_video(const ScenarioConfig& config,
                      const apps::VideoCodecConfig& codec) const;

  /// Sequential web page loads (client fetches from server).
  WebCell run_web(const ScenarioConfig& config) const;

 private:
  ProbeBudget budget_;
  StatsRegistry* stats_ = nullptr;
};

}  // namespace qoesim::core
