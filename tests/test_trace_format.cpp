// Binary trace format: record round-trip, deterministic sampling,
// header/concatenation behaviour, and a byte-level pcap golden for the
// converter (ns-resolution magic, LINKTYPE_RAW, synthesized IPv4/TCP
// headers with a valid RFC 791 checksum).
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "net/trace_binary.hpp"
#include "net/trace_convert.hpp"

namespace qoesim {
namespace {

net::Packet make_tcp_packet() {
  net::Packet p;
  p.uid = 7;
  p.flow = 9;
  p.src = 1;
  p.dst = 2;
  p.size_bytes = 50;
  p.ecn = net::Ecn::kEct0;
  p.proto = net::Protocol::kTcp;
  p.tcp.src_port = 49152;
  p.tcp.dst_port = 80;
  p.tcp.seq = 100;
  p.tcp.ack = 200;
  p.tcp.payload = 10;
  p.tcp.has_ack = true;
  return p;
}

TEST(TraceFormat, RecordRoundTrip) {
  const net::Packet p = make_tcp_packet();
  std::uint8_t buf[net::kTraceRecordBytes];
  net::encode_record(p, Time::nanoseconds(1000000005), net::TraceEvent::kDrop,
                     3, buf);
  const net::BinRecord r = net::decode_record(buf);
  EXPECT_EQ(r.t_ns, 1000000005);
  EXPECT_EQ(r.uid, 7u);
  EXPECT_EQ(r.flow, 9u);
  EXPECT_EQ(r.seq, 100u);
  EXPECT_EQ(r.ack, 200u);
  EXPECT_EQ(r.src, 1u);
  EXPECT_EQ(r.dst, 2u);
  EXPECT_EQ(r.payload, 10u);
  EXPECT_EQ(r.wire_bytes, 50u);
  EXPECT_EQ(r.src_port, 49152u);
  EXPECT_EQ(r.dst_port, 80u);
  EXPECT_EQ(r.point, 3u);
  EXPECT_EQ(r.event, net::TraceEvent::kDrop);
  EXPECT_EQ(r.proto, net::Protocol::kTcp);
  EXPECT_EQ(r.ecn, net::Ecn::kEct0);
  EXPECT_FALSE(r.syn);
  EXPECT_FALSE(r.fin);
  EXPECT_TRUE(r.has_ack);
  EXPECT_FALSE(r.ece);
  EXPECT_FALSE(r.cwr);
}

TEST(TraceFormat, RecordRoundTripTcpFlagsAndUdp) {
  net::Packet p = make_tcp_packet();
  p.tcp.syn = true;
  p.tcp.fin = true;
  p.tcp.ece = true;
  p.tcp.cwr = true;
  p.ecn = net::Ecn::kCe;
  std::uint8_t buf[net::kTraceRecordBytes];
  net::encode_record(p, Time::zero(), net::TraceEvent::kMark, 0, buf);
  net::BinRecord r = net::decode_record(buf);
  EXPECT_TRUE(r.syn && r.fin && r.has_ack && r.ece && r.cwr);
  EXPECT_EQ(r.ecn, net::Ecn::kCe);

  net::Packet u;
  u.uid = 11;
  u.proto = net::Protocol::kUdp;
  u.udp.src_port = 5000;
  u.udp.dst_port = 6000;
  u.udp.payload = 160;
  u.app.seq = 42;
  u.size_bytes = 200;
  net::encode_record(u, Time::milliseconds(5), net::TraceEvent::kDeliver, 1,
                     buf);
  r = net::decode_record(buf);
  EXPECT_EQ(r.proto, net::Protocol::kUdp);
  EXPECT_EQ(r.seq, 42u);   // app seq stands in for UDP
  EXPECT_EQ(r.ack, 0u);
  EXPECT_EQ(r.src_port, 5000u);
  EXPECT_EQ(r.payload, 160u);
  EXPECT_FALSE(r.syn);
}

TEST(TraceFormat, SamplingIsDeterministicAndByPacket) {
  // The sampling decision is a pure function of uid: two tracers with the
  // same config keep exactly the same packets, and every event of a kept
  // packet is kept (the decision does not depend on the event).
  net::BinaryTracer::Config cfg;
  cfg.sample_every = 4;
  net::BinaryTracer t1(cfg), t2(cfg);
  std::size_t kept_uids = 0;
  for (std::uint64_t uid = 0; uid < 256; ++uid) {
    net::Packet p = make_tcp_packet();
    p.uid = uid;
    t1.record(p, Time::zero(), net::TraceEvent::kEnqueue, 0);
    t1.record(p, Time::milliseconds(1), net::TraceEvent::kTransmit, 0);
    t2.record(p, Time::zero(), net::TraceEvent::kEnqueue, 0);
    t2.record(p, Time::milliseconds(1), net::TraceEvent::kTransmit, 0);
    if (net::trace_sampled(uid, 4)) ++kept_uids;
  }
  EXPECT_GT(kept_uids, 0u);
  EXPECT_LT(kept_uids, 256u);
  EXPECT_EQ(t1.records(), 2 * kept_uids);  // both events or neither
  ASSERT_EQ(t1.size_bytes(), t2.size_bytes());
  EXPECT_EQ(0, std::memcmp(t1.data(), t2.data(), t1.size_bytes()));
}

TEST(TraceFormat, OverflowDropsAndCounts) {
  net::BinaryTracer::Config cfg;
  cfg.capacity_records = 2;
  net::BinaryTracer t(cfg);
  const net::Packet p = make_tcp_packet();
  for (int i = 0; i < 5; ++i) {
    t.record(p, Time::zero(), net::TraceEvent::kTransmit, 0);
  }
  EXPECT_EQ(t.records(), 2u);
  EXPECT_EQ(t.overflow(), 3u);
}

TEST(TraceFormat, WriteReadAndBodyConcatenation) {
  // Two tracers' bodies concatenated under one header parse as one trace
  // -- the record count comes from the stream length, not the header.
  net::BinaryTracer t1, t2;
  net::Packet p = make_tcp_packet();
  t1.record(p, Time::zero(), net::TraceEvent::kTransmit, 0);
  p.uid = 8;
  t2.record(p, Time::milliseconds(1), net::TraceEvent::kTransmit, 1);
  t2.record(p, Time::milliseconds(2), net::TraceEvent::kDeliver, 1);

  std::stringstream s;
  net::BinaryTracer::write_header(s);
  s.write(reinterpret_cast<const char*>(t1.data()),
          static_cast<std::streamsize>(t1.size_bytes()));
  s.write(reinterpret_cast<const char*>(t2.data()),
          static_cast<std::streamsize>(t2.size_bytes()));

  std::vector<net::BinRecord> records;
  std::string error;
  ASSERT_TRUE(net::read_trace(s, &records, &error)) << error;
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].uid, 7u);
  EXPECT_EQ(records[1].point, 1u);
  EXPECT_EQ(records[2].event, net::TraceEvent::kDeliver);
}

TEST(TraceFormat, ReadRejectsMalformedStreams) {
  std::vector<net::BinRecord> records;
  std::string error;

  std::stringstream bad_magic("not a trace at all, padded to 16+ bytes");
  EXPECT_FALSE(net::read_trace(bad_magic, &records, &error));
  EXPECT_NE(error.find("magic"), std::string::npos);

  std::stringstream truncated;
  net::BinaryTracer::write_header(truncated);
  truncated.write("0123456789", 10);  // partial record
  EXPECT_FALSE(net::read_trace(truncated, &records, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos);

  // An event byte past kDeliver names no TraceEvent.
  std::uint8_t rec[net::kTraceRecordBytes];
  net::encode_record(make_tcp_packet(), Time::zero(),
                     net::TraceEvent::kTransmit, 0, rec);
  std::stringstream bad_event;
  net::BinaryTracer::write_header(bad_event);
  bad_event.write(reinterpret_cast<const char*>(rec), sizeof(rec));
  rec[62] = 5;
  bad_event.write(reinterpret_cast<const char*>(rec), sizeof(rec));
  records.clear();
  EXPECT_FALSE(net::read_trace(bad_event, &records, &error));
  EXPECT_NE(error.find("record 1"), std::string::npos) << error;
  EXPECT_NE(error.find("event byte 5"), std::string::npos) << error;
}

TEST(TraceFormat, PcapGoldenBytes) {
  std::uint8_t buf[net::kTraceRecordBytes];
  net::encode_record(make_tcp_packet(), Time::nanoseconds(1000000005),
                     net::TraceEvent::kTransmit, 3, buf);
  std::stringstream s;
  const std::size_t n =
      net::write_pcap({net::decode_record(buf)}, s, net::PcapOptions{});
  EXPECT_EQ(n, 1u);
  const std::string out = s.str();

  // 24B global header + 16B packet header + 20B IP + 20B TCP.
  const std::uint8_t golden[] = {
      // global header: ns magic, v2.4, zone 0, sigfigs 0, snaplen, RAW
      0x4d, 0x3c, 0xb2, 0xa1, 0x02, 0x00, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xff, 0xff, 0x00, 0x00, 0x65, 0x00, 0x00, 0x00,
      // packet header: ts 1s + 5ns, incl 40 (headers only), orig 50
      0x01, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
      0x28, 0x00, 0x00, 0x00, 0x32, 0x00, 0x00, 0x00,
      // IPv4: ihl 5, tos ECT(0), len 50, id 7, DF, ttl 64, proto 6,
      // checksum, 10.0.0.1 -> 10.0.0.2
      0x45, 0x02, 0x00, 0x32, 0x00, 0x07, 0x40, 0x00,
      0x40, 0x06, 0x26, 0xbb, 0x0a, 0x00, 0x00, 0x01,
      0x0a, 0x00, 0x00, 0x02,
      // TCP: 49152 -> 80, seq 100, ack 200, offset 5, ACK, win 0xffff
      0xc0, 0x00, 0x00, 0x50, 0x00, 0x00, 0x00, 0x64,
      0x00, 0x00, 0x00, 0xc8, 0x50, 0x10, 0xff, 0xff,
      0x00, 0x00, 0x00, 0x00,
  };
  ASSERT_EQ(out.size(), sizeof(golden));
  EXPECT_EQ(0, std::memcmp(out.data(), golden, sizeof(golden)));

  // The synthesized IP header checksum must verify: summing all ten
  // 16-bit words including the checksum folds to 0xffff.
  const auto* ip = reinterpret_cast<const std::uint8_t*>(out.data() + 40);
  std::uint32_t sum = 0;
  for (int i = 0; i < 20; i += 2) sum += (ip[i] << 8) | ip[i + 1];
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  EXPECT_EQ(sum, 0xffffu);
}

TEST(TraceFormat, PcapEventFilter) {
  std::uint8_t buf[net::kTraceRecordBytes];
  net::encode_record(make_tcp_packet(), Time::zero(),
                     net::TraceEvent::kTransmit, 0, buf);
  const net::BinRecord tx = net::decode_record(buf);
  net::BinRecord deliver = tx;
  deliver.event = net::TraceEvent::kDeliver;
  net::BinRecord drop = tx;
  drop.event = net::TraceEvent::kDrop;

  // Default: transmit only, so a tx+deliver pair yields one pcap packet
  // (every packet would otherwise appear twice per tapped link); drops
  // never materialize on the wire.
  std::stringstream s1;
  EXPECT_EQ(net::write_pcap({tx, deliver, drop}, s1, net::PcapOptions{}), 1u);
  net::PcapOptions both;
  both.deliver = true;
  std::stringstream s2;
  EXPECT_EQ(net::write_pcap({tx, deliver, drop}, s2, both), 2u);
}

TEST(TraceFormat, TextDumpIsStable) {
  std::uint8_t buf[net::kTraceRecordBytes];
  net::encode_record(make_tcp_packet(), Time::nanoseconds(1000000005),
                     net::TraceEvent::kTransmit, 3, buf);
  std::stringstream s;
  net::write_trace_text({net::decode_record(buf)}, s);
  EXPECT_EQ(s.str(),
            "1.000000005 point=3 tx tcp uid=7 flow=9 n1:49152>n2:80 "
            "seq=100 ack=200 len=10 wire=50 flags=-A--- ecn=ect0\n");
}

}  // namespace
}  // namespace qoesim
