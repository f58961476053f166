// qoesim_trace -- inspect and convert qoesim binary packet traces.
//
//   qoesim_trace info <trace>                 header + record/packet counts
//   qoesim_trace dump <trace>                 diff-friendly text, stdout
//   qoesim_trace pcap <trace> <out.pcap>      transmit events as pcap
//       [--deliver]                           deliver events instead
//       [--all-events]                        both (each packet twice)
//
// The trace format and converters live in the library (net/trace_binary.hpp,
// net/trace_convert.hpp); this is a thin CLI over them.
#include <cstring>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "net/trace_binary.hpp"
#include "net/trace_convert.hpp"

namespace {

int usage() {
  std::cerr << "usage: qoesim_trace info <trace>\n"
               "       qoesim_trace dump <trace>\n"
               "       qoesim_trace pcap <trace> <out.pcap> "
               "[--deliver|--all-events]\n";
  return 2;
}

bool load(const char* path, std::vector<qoesim::net::BinRecord>* records) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "qoesim_trace: cannot open " << path << "\n";
    return false;
  }
  std::string error;
  if (!qoesim::net::read_trace(in, records, &error)) {
    std::cerr << "qoesim_trace: " << path << ": " << error << "\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qoesim::net;
  if (argc < 3) return usage();
  const std::string cmd = argv[1];

  std::vector<BinRecord> records;
  if (!load(argv[2], &records)) return 1;

  if (cmd == "info") {
    constexpr auto kEvents = static_cast<std::size_t>(TraceEvent::kDeliver) + 1;
    std::set<std::uint64_t> uids;
    std::set<std::uint16_t> points;
    std::size_t by_event[kEvents] = {};
    for (const auto& r : records) {
      uids.insert(r.uid);
      points.insert(r.point);
      ++by_event[static_cast<std::size_t>(r.event)];  // read_trace validated
    }
    std::cout << "records " << records.size() << "\npackets " << uids.size()
              << "\npoints " << points.size() << "\n";
    for (std::size_t e = 0; e < kEvents; ++e) {
      std::cout << to_string(static_cast<TraceEvent>(e)) << ' ' << by_event[e]
                << "\n";
    }
    if (!records.empty()) {
      std::cout << "first_ns " << records.front().t_ns << "\nlast_ns "
                << records.back().t_ns << "\n";
    }
    return 0;
  }

  if (cmd == "dump") {
    write_trace_text(records, std::cout);
    return 0;
  }

  if (cmd == "pcap") {
    if (argc < 4) return usage();
    PcapOptions opts;
    for (int i = 4; i < argc; ++i) {
      if (std::strcmp(argv[i], "--deliver") == 0) {
        opts.transmit = false;
        opts.deliver = true;
      } else if (std::strcmp(argv[i], "--all-events") == 0) {
        opts.transmit = true;
        opts.deliver = true;
      } else {
        return usage();
      }
    }
    std::ofstream out(argv[3], std::ios::binary);
    if (!out) {
      std::cerr << "qoesim_trace: cannot write " << argv[3] << "\n";
      return 1;
    }
    const std::size_t n = write_pcap(records, out, opts);
    std::cout << "wrote " << n << " packets to " << argv[3] << "\n";
    return 0;
  }

  return usage();
}
