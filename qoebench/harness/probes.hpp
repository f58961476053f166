// qoebench -- layer probes.
//
// Isolated loops over one layer's public calls, sized from the workload's
// own counters and settings: Scheduler schedule+fire at the workload's
// peak event-queue depth, Link forwarding at its bottleneck buffer sizes,
// Node demux at its peak live flow count, and the QoE scorers. A probe
// runs without the rest of the simulation around it (warm caches, no
// competing working set), so count x probe ns is an estimate of a layer's
// share of wall time, not a measurement of it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qoebench {

struct ProbeResults {
  double sched_ns_per_event = 0.0;   ///< one schedule + one fire
  double link_ns_per_packet = 0.0;   ///< enqueue -> serialize -> deliver
  double demux_ns_per_lookup = 0.0;  ///< Node::receive to a bound handler
  double qoe_ns_per_score = 0.0;     ///< mean over the three scorers
};

ProbeResults run_probes(std::size_t peak_depth,
                        const std::vector<std::size_t>& buffers,
                        std::size_t peak_flows);

}  // namespace qoebench
