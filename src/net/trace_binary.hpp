// qoesim -- compact binary per-packet trace.
//
// A BinaryTracer streams fixed-width 64-byte little-endian records into a
// preallocated buffer: time, tap point, TraceEvent, flow 4-tuple,
// seq/ack/len/flags/ECN -- the packet-level view the paper takes from its
// tcpdump captures (§9.1). One observe_link() call records every drop and
// CE mark of the link's queue discipline (through the queue's tap, so
// AQM head drops appear too) and every transmit and deliver on the link.
// The write path is allocation-free in steady state
// (tests/test_alloc_gate.cpp measures it), so figure benches can trace the
// bottleneck at full event rate; deterministic 1-in-N packet sampling (by
// uid hash, so all events of one packet sample together) keeps long sweeps
// cheap.
//
// The on-disk format is a 16-byte header followed by records; the record
// count is derived from the remaining file size, so per-cell trace bodies
// can be concatenated under one header in deterministic sweep order --
// the basis of the CI gate that diffs bench traces across --jobs 1/4.
// Conversion to pcap and a diff-friendly text dump live in
// trace_convert.hpp / tools/trace.
//
// Layout (all little-endian, offsets in bytes):
//    0  i64  t_ns        event time (simulated, ns)
//    8  u64  uid         packet uid
//   16  u64  flow        transport flow id
//   24  u64  seq         TCP sequence (app seq for UDP)
//   32  u64  ack         TCP cumulative ack (0 for UDP)
//   40  u32  src         source node id
//   44  u32  dst         destination node id
//   48  u32  payload     transport payload bytes
//   52  u32  wire        wire size incl. headers
//   56  u16  src_port
//   58  u16  dst_port
//   60  u16  point       tap point id (caller-assigned link id)
//   62  u8   event       TraceEvent
//   63  u8   meta        bit0 proto (1=tcp), bits1-2 ECN codepoint,
//                        bit3 SYN, bit4 FIN, bit5 ACK, bit6 ECE, bit7 CWR
//
// SACK blocks are not part of the fixed record (they would triple its
// size for a field only conformance scripts inspect, and those match on
// live packets, not traces).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "net/packet.hpp"

namespace qoesim::net {

class Link;

/// Record kinds; the numeric values are the on-disk event byte.
enum class TraceEvent : std::uint8_t {
  kEnqueue,   ///< reserved: never emitted (a transmitted packet was admitted)
  kDrop,      ///< the queue discipline dropped the packet (tail or AQM)
  kTransmit,  ///< serialization complete, packet on the wire
  kMark,      ///< AQM applied an ECN CE mark
  kDeliver,   ///< propagation complete, packet handed to the link sink
};

/// The event's name in text dumps ("drop", "tx", "mark", ...).
const char* to_string(TraceEvent e);

inline constexpr std::uint32_t kTraceMagic = 0x43525451u;  // "QTRC" LE
inline constexpr std::uint8_t kTraceVersion = 1;
inline constexpr std::size_t kTraceHeaderBytes = 16;
inline constexpr std::size_t kTraceRecordBytes = 64;

/// Decoded record (host representation of the wire layout above).
struct BinRecord {
  std::int64_t t_ns = 0;
  std::uint64_t uid = 0;
  std::uint64_t flow = 0;
  std::uint64_t seq = 0;
  std::uint64_t ack = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint32_t payload = 0;
  std::uint32_t wire_bytes = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t point = 0;
  TraceEvent event = TraceEvent::kTransmit;
  Protocol proto = Protocol::kUdp;
  Ecn ecn = Ecn::kNotEct;
  bool syn = false;
  bool fin = false;
  bool has_ack = false;
  bool ece = false;
  bool cwr = false;
};

/// SplitMix64 finalizer; the sampling hash (and usable as a test PRNG).
std::uint64_t trace_mix64(std::uint64_t x);

/// Deterministic packet sampling: keep uid iff hash(uid) % every == 0.
inline bool trace_sampled(std::uint64_t uid, std::uint32_t every) {
  return every <= 1 || trace_mix64(uid) % every == 0;
}

/// Encode one record at `out` (exactly kTraceRecordBytes bytes).
void encode_record(const Packet& p, Time now, TraceEvent e,
                   std::uint16_t point, std::uint8_t* out);
/// Decode one record from `in` (exactly kTraceRecordBytes bytes).
BinRecord decode_record(const std::uint8_t* in);

class BinaryTracer {
 public:
  struct Config {
    /// Maximum records kept; further writes only bump overflow().
    std::size_t capacity_records = 1 << 20;
    /// Keep 1 in N packets (1 = every packet); all events of a sampled
    /// packet are kept so per-packet timelines stay complete.
    std::uint32_t sample_every = 1;
  };

  BinaryTracer();  // default Config
  explicit BinaryTracer(Config cfg);

  /// Record drop, mark, transmit and deliver events on `link`, tagged
  /// with `point`. Drops and marks come from the link's queue discipline,
  /// which holds one tracer: a queue already traced by a different tracer
  /// throws std::logic_error and leaves the link untouched. The tracer
  /// must stay alive while the link carries traffic.
  void observe_link(Link& link, std::uint16_t point);

  /// Append one record (allocation-free; drops + counts when full).
  void record(const Packet& p, Time now, TraceEvent e, std::uint16_t point);

  std::size_t records() const { return used_ / kTraceRecordBytes; }
  std::uint64_t overflow() const { return overflow_; }
  std::uint32_t sample_every() const { return cfg_.sample_every; }

  /// The encoded record bytes (no header) -- concatenable across tracers.
  const std::uint8_t* data() const { return buf_.data(); }
  std::size_t size_bytes() const { return used_; }

  /// Write header + records.
  void write(std::ostream& out) const;
  /// Write just the 16-byte file header (for callers that concatenate
  /// bodies from several tracers themselves).
  static void write_header(std::ostream& out);

 private:
  Config cfg_;
  std::vector<std::uint8_t> buf_;
  std::size_t used_ = 0;
  std::uint64_t overflow_ = 0;
};

/// Parse a trace stream (header + records). Returns false and sets
/// `error` on malformed input; a truncated trailing record or an event
/// byte past kDeliver is an error.
bool read_trace(std::istream& in, std::vector<BinRecord>* out,
                std::string* error);

}  // namespace qoesim::net
