#include "net/trace_convert.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ostream>

namespace qoesim::net {

namespace {

// ---- pcap (little-endian host headers, big-endian network payload) ----

constexpr std::uint32_t kPcapMagicNs = 0xa1b23c4du;
constexpr std::uint32_t kLinkTypeRaw = 101;  // LINKTYPE_RAW: bare IPv4
constexpr std::size_t kIpHdr = 20;
constexpr std::size_t kTcpHdr = 20;
constexpr std::size_t kUdpHdr = 8;

void put16le(std::uint8_t* out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
}

void put32le(std::uint8_t* out, std::uint32_t v) {
  put16le(out, static_cast<std::uint16_t>(v));
  put16le(out + 2, static_cast<std::uint16_t>(v >> 16));
}

void put16be(std::uint8_t* out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v >> 8);
  out[1] = static_cast<std::uint8_t>(v);
}

void put32be(std::uint8_t* out, std::uint32_t v) {
  put16be(out, static_cast<std::uint16_t>(v >> 16));
  put16be(out + 2, static_cast<std::uint16_t>(v));
}

/// RFC 791 header checksum over `len` bytes (len even).
std::uint16_t ip_checksum(const std::uint8_t* data, std::size_t len) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i + 1 < len; i += 2) {
    sum += static_cast<std::uint32_t>(data[i] << 8) | data[i + 1];
  }
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

/// Node id -> 10.0.x.y (network byte order in the header).
std::uint32_t node_ip(std::uint32_t id) {
  return 0x0a000000u | (id & 0xffffu);
}

std::size_t frame_bytes(const BinRecord& r) {
  return kIpHdr + (r.proto == Protocol::kTcp ? kTcpHdr : kUdpHdr);
}

void encode_frame(const BinRecord& r, std::uint8_t* out) {
  const std::size_t total = frame_bytes(r);
  // IPv4: the simulated wire size is the datagram total length; captured
  // bytes stop after the transport header (payload is never materialized).
  out[0] = 0x45;
  out[1] = static_cast<std::uint8_t>(r.ecn);  // DSCP 0 + ECN codepoint
  put16be(out + 2, static_cast<std::uint16_t>(
                       std::min<std::uint32_t>(r.wire_bytes, 0xffff)));
  put16be(out + 4, static_cast<std::uint16_t>(r.uid));  // id: uid low bits
  put16be(out + 6, 0x4000);                             // DF, no fragments
  out[8] = 64;                                          // TTL
  out[9] = r.proto == Protocol::kTcp ? 6 : 17;
  put16be(out + 10, 0);  // checksum patched below
  put32be(out + 12, node_ip(r.src));
  put32be(out + 16, node_ip(r.dst));
  put16be(out + 10, ip_checksum(out, kIpHdr));

  std::uint8_t* th = out + kIpHdr;
  if (r.proto == Protocol::kTcp) {
    put16be(th + 0, r.src_port);
    put16be(th + 2, r.dst_port);
    put32be(th + 4, static_cast<std::uint32_t>(r.seq));
    put32be(th + 8, static_cast<std::uint32_t>(r.ack));
    th[12] = 0x50;  // data offset 5 words
    std::uint8_t flags = 0;
    if (r.fin) flags |= 0x01;
    if (r.syn) flags |= 0x02;
    if (r.has_ack) flags |= 0x10;
    if (r.ece) flags |= 0x40;
    if (r.cwr) flags |= 0x80;
    th[13] = flags;
    put16be(th + 14, 0xffff);  // window
    put16be(th + 16, 0);       // checksum (payload bytes not modelled)
    put16be(th + 18, 0);       // urgent
  } else {
    put16be(th + 0, r.src_port);
    put16be(th + 2, r.dst_port);
    put16be(th + 4, static_cast<std::uint16_t>(std::min<std::uint32_t>(
                        kUdpHdr + r.payload, 0xffff)));
    put16be(th + 6, 0);
  }
  (void)total;
}

}  // namespace

std::size_t write_pcap(const std::vector<BinRecord>& records,
                       std::ostream& out, PcapOptions opts) {
  std::uint8_t gh[24] = {};
  put32le(gh + 0, kPcapMagicNs);
  put16le(gh + 4, 2);   // version 2.4
  put16le(gh + 6, 4);
  put32le(gh + 8, 0);   // thiszone
  put32le(gh + 12, 0);  // sigfigs
  put32le(gh + 16, 65535);
  put32le(gh + 20, kLinkTypeRaw);
  out.write(reinterpret_cast<const char*>(gh), sizeof(gh));

  std::size_t written = 0;
  for (const auto& r : records) {
    if (!opts.include(r.event)) continue;
    const std::size_t frame = frame_bytes(r);
    std::uint8_t ph[16];
    put32le(ph + 0, static_cast<std::uint32_t>(r.t_ns / 1000000000));
    put32le(ph + 4, static_cast<std::uint32_t>(r.t_ns % 1000000000));
    put32le(ph + 8, static_cast<std::uint32_t>(frame));
    put32le(ph + 12, std::max<std::uint32_t>(r.wire_bytes,
                                             static_cast<std::uint32_t>(frame)));
    out.write(reinterpret_cast<const char*>(ph), sizeof(ph));
    std::uint8_t buf[kIpHdr + kTcpHdr];
    encode_frame(r, buf);
    out.write(reinterpret_cast<const char*>(buf),
              static_cast<std::streamsize>(frame));
    ++written;
  }
  return written;
}

void write_trace_text(const std::vector<BinRecord>& records,
                      std::ostream& out) {
  const char* ecn_names[] = {"notect", "ect1", "ect0", "ce"};
  char line[256];
  for (const auto& r : records) {
    char flags[6] = "-----";
    if (r.syn) flags[0] = 'S';
    if (r.has_ack) flags[1] = 'A';
    if (r.fin) flags[2] = 'F';
    if (r.ece) flags[3] = 'E';
    if (r.cwr) flags[4] = 'W';
    std::snprintf(
        line, sizeof(line),
        "%" PRId64 ".%09" PRId64
        " point=%u %s %s uid=%" PRIu64 " flow=%" PRIu64
        " n%u:%u>n%u:%u seq=%" PRIu64 " ack=%" PRIu64
        " len=%u wire=%u flags=%s ecn=%s",
        r.t_ns / 1000000000, r.t_ns % 1000000000, r.point,
        to_string(r.event),
        r.proto == Protocol::kTcp ? "tcp" : "udp", r.uid, r.flow, r.src,
        r.src_port, r.dst, r.dst_port, r.seq, r.ack, r.payload, r.wire_bytes,
        flags, static_cast<std::size_t>(r.ecn) < 4
                   ? ecn_names[static_cast<std::size_t>(r.ecn)]
                   : "?");
    out << line << '\n';
  }
}

}  // namespace qoesim::net
