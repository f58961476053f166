#include "net/monitors.hpp"

namespace qoesim::net {

LinkMonitor::LinkMonitor(Link& link, Time bin_width)
    : link_(link), bytes_per_bin_(bin_width) {
  link_.set_queue_delay_stats(&queue_delay_);  // throws on a second monitor
  link_.add_tx_observer([this](const Packet& p, Time now) {
    ++tx_packets_;
    tx_bytes_ += p.size_bytes;
    bytes_per_bin_.add(now, static_cast<double>(p.size_bytes));
  });
}

stats::Samples LinkMonitor::utilization(Time from, Time to) const {
  stats::Samples out;
  const double bin_capacity_bytes =
      link_.rate_bps() * bytes_per_bin_.bin_width().sec() / 8.0;
  for (double bytes : bytes_per_bin_.bin_values(from, to)) {
    out.add(bytes / bin_capacity_bytes);
  }
  return out;
}

double LinkMonitor::mean_utilization(Time from, Time to) const {
  auto u = utilization(from, to);
  return u.empty() ? 0.0 : u.mean();
}

}  // namespace qoesim::net
