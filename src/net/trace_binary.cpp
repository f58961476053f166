#include "net/trace_binary.hpp"

#include <istream>
#include <ostream>

#include "net/link.hpp"

namespace qoesim::net {

namespace {

void store16(std::uint8_t* out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
}

void store32(std::uint8_t* out, std::uint32_t v) {
  store16(out, static_cast<std::uint16_t>(v));
  store16(out + 2, static_cast<std::uint16_t>(v >> 16));
}

void store64(std::uint8_t* out, std::uint64_t v) {
  store32(out, static_cast<std::uint32_t>(v));
  store32(out + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint16_t load16(const std::uint8_t* in) {
  return static_cast<std::uint16_t>(in[0] | (in[1] << 8));
}

std::uint32_t load32(const std::uint8_t* in) {
  return load16(in) | (static_cast<std::uint32_t>(load16(in + 2)) << 16);
}

std::uint64_t load64(const std::uint8_t* in) {
  return load32(in) | (static_cast<std::uint64_t>(load32(in + 4)) << 32);
}

}  // namespace

const char* to_string(TraceEvent e) {
  switch (e) {
    case TraceEvent::kEnqueue: return "enqueue";
    case TraceEvent::kDrop: return "drop";
    case TraceEvent::kTransmit: return "tx";
    case TraceEvent::kMark: return "mark";
    case TraceEvent::kDeliver: return "deliver";
  }
  return "?";
}

std::uint64_t trace_mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void encode_record(const Packet& p, Time now, TraceEvent e,
                   std::uint16_t point, std::uint8_t* out) {
  const bool tcp = p.proto == Protocol::kTcp;
  store64(out + 0, static_cast<std::uint64_t>(now.ns()));
  store64(out + 8, p.uid);
  store64(out + 16, p.flow);
  store64(out + 24, tcp ? p.tcp.seq : p.app.seq);
  store64(out + 32, tcp ? p.tcp.ack : 0);
  store32(out + 40, p.src);
  store32(out + 44, p.dst);
  store32(out + 48, tcp ? p.tcp.payload : p.udp.payload);
  store32(out + 52, p.size_bytes);
  store16(out + 56,
          static_cast<std::uint16_t>(tcp ? p.tcp.src_port : p.udp.src_port));
  store16(out + 58,
          static_cast<std::uint16_t>(tcp ? p.tcp.dst_port : p.udp.dst_port));
  store16(out + 60, point);
  out[62] = static_cast<std::uint8_t>(e);
  std::uint8_t meta = tcp ? 0x01 : 0x00;
  meta |= static_cast<std::uint8_t>(static_cast<std::uint8_t>(p.ecn) << 1);
  if (tcp) {
    if (p.tcp.syn) meta |= 0x08;
    if (p.tcp.fin) meta |= 0x10;
    if (p.tcp.has_ack) meta |= 0x20;
    if (p.tcp.ece) meta |= 0x40;
    if (p.tcp.cwr) meta |= 0x80;
  }
  out[63] = meta;
}

BinRecord decode_record(const std::uint8_t* in) {
  BinRecord r;
  r.t_ns = static_cast<std::int64_t>(load64(in + 0));
  r.uid = load64(in + 8);
  r.flow = load64(in + 16);
  r.seq = load64(in + 24);
  r.ack = load64(in + 32);
  r.src = load32(in + 40);
  r.dst = load32(in + 44);
  r.payload = load32(in + 48);
  r.wire_bytes = load32(in + 52);
  r.src_port = load16(in + 56);
  r.dst_port = load16(in + 58);
  r.point = load16(in + 60);
  r.event = static_cast<TraceEvent>(in[62]);
  const std::uint8_t meta = in[63];
  r.proto = (meta & 0x01) ? Protocol::kTcp : Protocol::kUdp;
  r.ecn = static_cast<Ecn>((meta >> 1) & 0x03);
  r.syn = meta & 0x08;
  r.fin = meta & 0x10;
  r.has_ack = meta & 0x20;
  r.ece = meta & 0x40;
  r.cwr = meta & 0x80;
  return r;
}

BinaryTracer::BinaryTracer() : BinaryTracer(Config{}) {}

BinaryTracer::BinaryTracer(Config cfg) : cfg_(cfg) {
  if (cfg_.sample_every == 0) cfg_.sample_every = 1;
  buf_.resize(cfg_.capacity_records * kTraceRecordBytes);
}

void BinaryTracer::observe_link(Link& link, std::uint16_t point) {
  link.queue().set_tracer(this, point);  // throws before touching the link
  link.add_tx_observer([this, point](const Packet& p, Time now) {
    record(p, now, TraceEvent::kTransmit, point);
  });
  link.add_rx_observer([this, point](const Packet& p, Time now) {
    record(p, now, TraceEvent::kDeliver, point);
  });
}

[[gnu::hot]] void BinaryTracer::record(const Packet& p, Time now,
                                       TraceEvent e, std::uint16_t point) {
  if (!trace_sampled(p.uid, cfg_.sample_every)) return;
  if (used_ + kTraceRecordBytes > buf_.size()) {
    ++overflow_;
    return;
  }
  encode_record(p, now, e, point, buf_.data() + used_);
  used_ += kTraceRecordBytes;
}

void BinaryTracer::write_header(std::ostream& out) {
  std::uint8_t header[kTraceHeaderBytes] = {};
  store32(header, kTraceMagic);
  header[4] = kTraceVersion;
  header[5] = static_cast<std::uint8_t>(kTraceRecordBytes);
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
}

void BinaryTracer::write(std::ostream& out) const {
  write_header(out);
  out.write(reinterpret_cast<const char*>(buf_.data()),
            static_cast<std::streamsize>(used_));
}

bool read_trace(std::istream& in, std::vector<BinRecord>* out,
                std::string* error) {
  std::uint8_t header[kTraceHeaderBytes];
  if (!in.read(reinterpret_cast<char*>(header), sizeof(header))) {
    if (error) *error = "trace: short read on header";
    return false;
  }
  if (load32(header) != kTraceMagic) {
    if (error) *error = "trace: bad magic (not a qoesim binary trace)";
    return false;
  }
  if (header[4] != kTraceVersion) {
    if (error) *error = "trace: unsupported version";
    return false;
  }
  if (header[5] != kTraceRecordBytes) {
    if (error) *error = "trace: unexpected record size";
    return false;
  }
  std::uint8_t rec[kTraceRecordBytes];
  for (std::size_t index = 0;
       in.read(reinterpret_cast<char*>(rec), sizeof(rec)); ++index) {
    if (rec[62] > static_cast<std::uint8_t>(TraceEvent::kDeliver)) {
      if (error) {
        *error = "trace: record " + std::to_string(index) +
                 ": unknown event byte " + std::to_string(rec[62]);
      }
      return false;
    }
    out->push_back(decode_record(rec));
  }
  if (in.gcount() != 0) {
    if (error) *error = "trace: truncated record at end of stream";
    return false;
  }
  return true;
}

}  // namespace qoesim::net
