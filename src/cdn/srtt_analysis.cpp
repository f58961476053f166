#include "cdn/srtt_analysis.hpp"

#include <stdexcept>

namespace qoesim::cdn {

SrttAnalysis::SrttAnalysis(AnalysisConfig config)
    : config_(config),
      min_hist_(config.hist_min_ms, config.hist_max_ms, config.bins_per_decade),
      avg_hist_(config.hist_min_ms, config.hist_max_ms, config.bins_per_decade),
      max_hist_(config.hist_min_ms, config.hist_max_ms, config.bins_per_decade),
      min_max_hist_(config.hist_min_ms, config.hist_max_ms,
                    config.bins_per_decade),
      queue_hist_(config.hist_min_ms, config.hist_max_ms,
                  config.bins_per_decade) {
  for (auto tech : {AccessTech::kAdsl, AccessTech::kCable, AccessTech::kFtth,
                    AccessTech::kUnknown}) {
    queue_by_tech_.emplace(
        tech, stats::LogHistogram(config.hist_min_ms, config.hist_max_ms,
                                  config.bins_per_decade));
  }
}

void SrttAnalysis::add(const FlowRecord& flow) {
  ++flows_total_;
  if (flow.samples < config_.min_samples) return;
  considered_.push_back(flow);

  min_hist_.add(flow.min_srtt_ms);
  avg_hist_.add(flow.avg_srtt_ms);
  max_hist_.add(flow.max_srtt_ms);
  min_max_hist_.add(flow.max_srtt_ms, flow.min_srtt_ms);

  const double queue_ms = flow.max_srtt_ms - flow.min_srtt_ms;
  queue_hist_.add(queue_ms);
  queue_by_tech_.at(flow.tech).add(queue_ms);
}

void SrttAnalysis::add_all(const std::vector<FlowRecord>& flows) {
  for (const auto& f : flows) add(f);
}

const stats::LogHistogram& SrttAnalysis::queueing_pdf(AccessTech tech) const {
  return queue_by_tech_.at(tech);
}

namespace {

TailFractions fractions_over(const std::vector<FlowRecord>& flows,
                             double proximity_ms) {
  TailFractions t;
  for (const auto& f : flows) {
    if (f.min_srtt_ms > proximity_ms) continue;
    ++t.flows_considered;
    const double q = f.max_srtt_ms - f.min_srtt_ms;
    if (q < 100.0) t.below_100ms += 1.0;
    if (q > 500.0) t.above_500ms += 1.0;
    if (q > 1000.0) t.above_1000ms += 1.0;
  }
  if (t.flows_considered > 0) {
    const auto n = static_cast<double>(t.flows_considered);
    t.below_100ms /= n;
    t.above_500ms /= n;
    t.above_1000ms /= n;
  }
  return t;
}

}  // namespace

TailFractions SrttAnalysis::tail_fractions() const {
  return fractions_over(considered_,
                        std::numeric_limits<double>::infinity());
}

TailFractions SrttAnalysis::tail_fractions_near(double proximity_ms) const {
  return fractions_over(considered_, proximity_ms);
}

}  // namespace qoesim::cdn
