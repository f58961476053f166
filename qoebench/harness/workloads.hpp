// qoebench -- the benchmark's workloads and their fixed units of work.
//
// A round runs one unit of work single-threaded and closed-loop: the next
// operation starts when the previous one returns. An operation is one
// probe run of a cell (one ExperimentRunner::run_* call) or one pdes_ring
// horizon. Untraced rounds drive the public entry points exactly as users
// do; traced rounds rebuild each operation from the same public calls
// ExperimentRunner makes, with spans around them, and must produce
// bit-identical results (compared by digest).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "net/node.hpp"
#include "sim/event.hpp"
#include "trace.hpp"

namespace qoebench {

enum class WorkloadId { kAccessMix, kBackboneLong, kPdesRing };

std::optional<WorkloadId> parse_workload(std::string_view name);

/// The inputs of one workload, generated from the command-line seed. The
/// simulator sees only the ScenarioConfigs (or the pdes_ring seed).
struct Plan {
  WorkloadId id = WorkloadId::kAccessMix;
  std::uint64_t seed = 1;
  qoesim::core::ProbeBudget budget;
  std::vector<qoesim::core::ScenarioConfig> cells;
  bool with_web = false;           ///< run_web per cell (access_mix)
  bool voip_bidirectional = true;  ///< run_voip leg layout
  /// Untimed check round through ExperimentRunner, then timed rounds
  /// through the rebuilt operations in 1 s simulated steps (backbone_long:
  /// its 0.5 s operations are too long to catch a fast moment of the host
  /// whole).
  bool stepped = false;
  std::vector<std::size_t> buffers;  ///< bottleneck buffer sizes, packets
  qoesim::Time pdes_horizon;         ///< pdes_ring only
};

Plan make_plan(WorkloadId id, std::uint64_t seed);

/// One operation's outcome: a stable label, a digest of every result
/// field's bit pattern, the reason it failed (empty = passed) and its wall
/// time. `part_s` splits part of that time into steps that repeat exactly
/// in every round (run_until steps), so each step's fastest
/// repetition can be taken on its own.
struct OpResult {
  std::string id;
  std::uint64_t digest = 0;
  std::string error;
  double wall_s = 0.0;
  std::vector<double> part_s;
};

/// Per-layer counters of one traced round: sums over its operations,
/// except the peaks, which are maxima over operations.
struct LayerCounters {
  qoesim::Scheduler::Stats sched;
  qoesim::net::Node::Stats nodes;  ///< flow_peak_live / cold peak: max
  std::uint64_t link_tx = 0;       ///< packets serialized, every link
  std::uint64_t slab_growths = 0;  ///< PacketPool growths, every link
  std::uint64_t bottleneck_offered = 0;
  std::uint64_t bottleneck_drops = 0;
  std::uint64_t crossing_packets = 0;  ///< mailbox-link packets (PDES)
  std::uint64_t flows_started = 0;     ///< trafficgen (Workload)
  std::uint64_t flows_completed = 0;
  std::uint64_t voip_calls = 0;  ///< call legs
  std::uint64_t web_loads = 0;
  std::uint64_t web_timeouts = 0;
  std::uint64_t web_retransmits = 0;
  std::uint64_t scores = 0;  ///< QoE scorer calls
  std::uint64_t pdes_epochs = 0;
  double pdes_quantum_ms = 0.0;  ///< 0 = no sharded engine in the round
};

struct RoundResult {
  double wall_s = 0.0;
  std::vector<OpResult> ops;
  LayerCounters layers;  ///< filled by traced rounds only
};

/// Run the plan's unit of work once. With `trace` enabled the figure
/// workloads go through the rebuilt operations with spans; disabled,
/// through core::ExperimentRunner if `via_runner`, else through the
/// rebuilt operations timed in steps (OpResult::part_s).
RoundResult run_round(const Plan& plan, Trace& trace, bool via_runner);

/// Wall time of each operation's set-up alone, in operation order:
/// Testbed + Workload construction, or ShardedEngine
/// add_node/connect/build for pdes_ring. Objects are torn down untimed.
std::vector<double> time_setup(const Plan& plan);

}  // namespace qoebench
