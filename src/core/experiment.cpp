#include "core/experiment.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "apps/video_stream.hpp"
#include "apps/voip.hpp"
#include "apps/web.hpp"
#include "core/testbed.hpp"
#include "core/workloads.hpp"
#include "net/trace_binary.hpp"
#include "qoe/g1030.hpp"
#include "qoe/video_quality.hpp"

namespace qoesim::core {

ProbeBudget ProbeBudget::from_env() {
  // Factors outside this range are almost certainly typos (e.g. a stray
  // exponent); the paper's two-hour cells correspond to roughly 100x.
  constexpr double kMinScale = 1e-3;
  constexpr double kMaxScale = 1e3;

  ProbeBudget b;
  // Read once at startup, before any sweep worker exists; no concurrent
  // setenv in this process.
  const char* scale_env = std::getenv("QOESIM_SCALE");  // NOLINT(concurrency-mt-unsafe)
  if (!scale_env || *scale_env == '\0') return b;

  char* end = nullptr;
  double f = std::strtod(scale_env, &end);
  if (end == scale_env || *end != '\0' || f <= 0.0) {
    std::fprintf(stderr,
                 "qoesim: ignoring QOESIM_SCALE=\"%s\" (expected a positive"
                 " number)\n",
                 scale_env);
    return b;
  }
  if (f < kMinScale || f > kMaxScale) {
    const double clamped = std::clamp(f, kMinScale, kMaxScale);
    std::fprintf(stderr,
                 "qoesim: clamping QOESIM_SCALE=%g to %g (allowed range"
                 " [%g, %g])\n",
                 f, clamped, kMinScale, kMaxScale);
    f = clamped;
  }
  return b.scaled(f);
}

ProbeBudget ProbeBudget::scaled(double factor) const {
  ProbeBudget b = *this;
  b.voip_calls = std::max(1, static_cast<int>(voip_calls * factor + 0.5));
  b.video_reps = std::max(1, static_cast<int>(video_reps * factor + 0.5));
  b.web_loads = std::max(2, static_cast<int>(web_loads * factor + 0.5));
  b.qos_duration = qos_duration * std::max(0.25, factor);
  return b;
}

double VoipCell::median_mos_talks() const { return mos_talks.median_or(1.0); }
double VoipCell::median_mos_listens() const {
  return mos_listens.median_or(1.0);
}
double VideoCell::median_ssim() const { return ssim.median_or(0.0); }
double VideoCell::median_mos() const { return mos.median_or(1.0); }
double WebCell::median_plt_s() const { return plt_s.median_or(0.0); }
double WebCell::median_mos() const { return mos.median_or(1.0); }

QosCell ExperimentRunner::run_qos(const ScenarioConfig& config,
                                  net::BinaryTracer* tracer) const {
  Testbed testbed(config, stats_);
  Workload workload(testbed);
  if (tracer != nullptr) {
    tracer->observe_link(testbed.bottleneck_down(), 0);
    tracer->observe_link(testbed.bottleneck_up(), 1);
  }

  const Time end = budget_.warmup + budget_.qos_duration;
  testbed.sim().run_until(end);

  QosCell cell;
  cell.mean_delay_down_ms = testbed.down_monitor().mean_queue_delay_s() * 1e3;
  cell.mean_delay_up_ms = testbed.up_monitor().mean_queue_delay_s() * 1e3;
  cell.util_down_bins = testbed.down_monitor().utilization(budget_.warmup, end);
  cell.util_up_bins = testbed.up_monitor().utilization(budget_.warmup, end);
  cell.util_down_mean =
      cell.util_down_bins.empty() ? 0.0 : cell.util_down_bins.mean();
  cell.util_down_sd =
      cell.util_down_bins.empty() ? 0.0 : cell.util_down_bins.stddev();
  cell.util_up_mean = cell.util_up_bins.empty() ? 0.0 : cell.util_up_bins.mean();
  cell.util_up_sd = cell.util_up_bins.empty() ? 0.0 : cell.util_up_bins.stddev();
  cell.loss_down = testbed.down_monitor().loss_rate();
  cell.loss_up = testbed.up_monitor().loss_rate();
  cell.mark_down = testbed.down_monitor().mark_rate();
  cell.mark_up = testbed.up_monitor().mark_rate();
  cell.concurrent_flows = workload.mean_concurrent_flows(end);
  return cell;
}

VoipCell ExperimentRunner::run_voip(const ScenarioConfig& config,
                                    bool bidirectional) const {
  Testbed testbed(config, stats_);
  Workload workload(testbed);

  apps::VoipConfig voip;
  const Time per_call = voip.duration + budget_.probe_gap +
                        voip.jitter_buffer * 2.0 + Time::seconds(1);

  struct CallPair {
    std::unique_ptr<apps::VoipCall> listen;  // server -> client
    std::unique_ptr<apps::VoipCall> talk;    // client -> server
  };
  std::vector<CallPair> calls;
  Time last_end = budget_.warmup;
  for (int i = 0; i < budget_.voip_calls; ++i) {
    const Time start = budget_.warmup + per_call * static_cast<double>(i);
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

  testbed.sim().run_until(last_end + Time::seconds(1));

  VoipCell cell;
  for (const auto& pair : calls) {
    auto m_listen = pair.listen->metrics();
    qoe::VoipCallMetrics m_talk;
    if (pair.talk) m_talk = pair.talk->metrics();

    // Conversational delay: the E-Model's Ta expresses how delayed the
    // interaction is; with asymmetric paths we use the mean of the two
    // one-way mouth-to-ear delays, so uplink bloat degrades both legs
    // (paper §7.2 "upload activity").
    Time ta = m_listen.mouth_to_ear_delay;
    if (pair.talk) {
      ta = (m_listen.mouth_to_ear_delay + m_talk.mouth_to_ear_delay) / 2.0;
    }
    auto scored_listen = m_listen;
    scored_listen.mouth_to_ear_delay = ta;
    cell.mos_listens.add(qoe::VoipQoe::score(scored_listen).mos);
    cell.loss_listens.add(m_listen.effective_loss());
    cell.delay_listens_ms.add(m_listen.mean_network_delay.ms());

    if (pair.talk) {
      auto scored_talk = m_talk;
      scored_talk.mouth_to_ear_delay = ta;
      cell.mos_talks.add(qoe::VoipQoe::score(scored_talk).mos);
      cell.loss_talks.add(m_talk.effective_loss());
      cell.delay_talks_ms.add(m_talk.mean_network_delay.ms());
    }
  }
  (void)workload;
  return cell;
}

VideoCell ExperimentRunner::run_video(const ScenarioConfig& config,
                                      const apps::VideoCodecConfig& codec) const {
  Testbed testbed(config, stats_);
  Workload workload(testbed);

  apps::VideoSessionConfig session_config;
  session_config.codec = codec;

  std::vector<std::unique_ptr<apps::VideoSession>> sessions;
  Time last_end = budget_.warmup;
  auto rng = testbed.sim().rng("video-probe");
  for (int i = 0; i < budget_.video_reps; ++i) {
    auto session = std::make_unique<apps::VideoSession>(
        testbed.probe_server(), testbed.probe_client(), session_config,
        static_cast<std::uint32_t>(i), rng);
    const Time start =
        budget_.warmup +
        (codec.duration + budget_.probe_gap + Time::seconds(5)) *
            static_cast<double>(i);
    session->start(start);
    last_end = std::max(last_end, session->end_time());
    sessions.push_back(std::move(session));
  }

  testbed.sim().run_until(last_end + Time::seconds(1));

  qoe::VideoQualityParams params =
      codec.resolution == apps::VideoResolution::kHd
          ? qoe::VideoQualityParams::hd()
          : qoe::VideoQualityParams::sd();
  params.motion_spread = codec.clip.motion_spread;

  VideoCell cell;
  for (const auto& session : sessions) {
    const auto score = qoe::VideoQuality::evaluate(session->reception(), params);
    cell.ssim.add(score.ssim);
    cell.mos.add(score.mos);
    cell.packet_loss.add(session->packet_loss());
  }
  (void)workload;
  return cell;
}

WebCell ExperimentRunner::run_web(const ScenarioConfig& config) const {
  Testbed testbed(config, stats_);
  Workload workload(testbed);

  apps::WebPageConfig page;
  tcp::TcpConfig probe_tcp;
  probe_tcp.cc = config.tcp_cc;
  probe_tcp.ecn = config.ecn;
  apps::WebServer server(testbed.probe_server(), page, probe_tcp);

  const qoe::G1030 model = config.testbed == TestbedType::kAccess
                               ? qoe::G1030::access_profile()
                               : qoe::G1030::backbone_profile();

  WebCell cell;
  std::vector<std::unique_ptr<apps::WebPageLoad>> loads;
  auto& sim = testbed.sim();

  // Sequential loads: each starts `probe_gap` after the previous finished
  // (or timed out). Implemented as a self-continuing event chain.
  struct Driver {
    ExperimentRunner const* runner;
    Testbed* testbed;
    apps::WebPageConfig page;
    tcp::TcpConfig tcp;
    std::vector<std::unique_ptr<apps::WebPageLoad>>* loads;
    WebCell* cell;
    const qoe::G1030* model;
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
            self->testbed->sim().after(self->runner->budget().probe_gap,
                                       [self] { self->start_next(); });
          });
      apps::WebPageLoad* raw = load.get();
      load->start(sim.now());
      // Timeout guard: abandon the load if it exceeds the budget.
      sim.after(runner->budget().web_timeout, [raw, self] {
        if (!raw->done()) {
          ++self->cell->timeouts;
          raw->cancel();
        }
      });
      loads->push_back(std::move(load));
    }

    void record(const apps::WebPageLoad& load) {
      const Time plt = load.failed() ? runner->budget().web_timeout
                                     : load.page_load_time();
      cell->plt_s.add(plt.sec());
      cell->mos.add(model->mos(plt));
      cell->retransmits.add(static_cast<double>(load.retransmits()));
    }
  };

  Driver driver{this, &testbed, page,  probe_tcp,
                &loads, &cell,  &model, budget_.web_loads};
  sim.at(budget_.warmup, [&driver] { driver.start_next(); });

  // Upper bound on the run: warmup + loads * (timeout + gap). Stop early
  // once all loads are recorded (background generators would otherwise
  // keep the event queue alive forever).
  const Time horizon =
      budget_.warmup +
      (budget_.web_timeout + budget_.probe_gap) *
          static_cast<double>(budget_.web_loads) +
      Time::seconds(5);
  while (sim.now() < horizon &&
         cell.plt_s.count() < static_cast<std::size_t>(budget_.web_loads)) {
    sim.run_until(std::min(horizon, sim.now() + Time::seconds(1)));
  }
  (void)workload;
  (void)server;
  return cell;
}

}  // namespace qoesim::core
