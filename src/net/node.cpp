#include "net/node.hpp"

#include <stdexcept>

namespace qoesim::net {

namespace {

std::uint8_t proto_byte(Protocol proto) {
  return static_cast<std::uint8_t>(proto);
}

}  // namespace

void Node::StatsFold::fold(const Stats& s) {
  const MutexLock lock(mutex_);
  total_ += s;
}

Node::Stats Node::StatsFold::snapshot() const {
  const MutexLock lock(mutex_);
  return total_;
}

Node::~Node() {
  // Drop the arena's socket refs first so teardown closes count into the
  // folded stats (and bound sockets die even though their demux handlers
  // are never individually unbound).
  flows_.release_all();
  if (stats_fold_ != nullptr) stats_fold_->fold(stats());
}

Node::Stats Node::stats() const {
  Stats s = stats_;
  s.demux_rehashes = demux_.rehashes();
  const core::FlowArena::Stats& f = flows_.stats();
  s.flows_opened = f.flows_opened;
  s.flows_closed = f.flows_closed;
  s.flow_peak_live = f.peak_live;
  s.flow_hot_bytes = f.slot_bytes;
  s.flow_cold_allocs = f.cold_allocs;
  s.flow_cold_frees = f.cold_frees;
  s.flow_cold_peak_live = f.cold_peak_live;
  s.flow_cold_bytes = f.cold_slot_bytes;
  return s;
}

std::size_t Node::add_port(Link* out) {
  if (out == nullptr) throw std::invalid_argument("Node::add_port: null link");
  ports_.push_back(out);
  return ports_.size() - 1;
}

void Node::set_next_hop(NodeId dst, std::size_t port) {
  if (port >= ports_.size()) {
    throw std::out_of_range("Node::set_next_hop: bad port");
  }
  if (dst >= routes_.size()) routes_.resize(dst + 1, -1);
  routes_[dst] = static_cast<std::int32_t>(port);
}

void Node::set_default_route(std::size_t port) {
  if (port >= ports_.size()) {
    throw std::out_of_range("Node::set_default_route: bad port");
  }
  default_route_ = static_cast<std::ptrdiff_t>(port);
}

[[gnu::hot]] void Node::receive(Packet&& p) {
  sim_.shard().assert_held();
  if (p.dst == id_) {
    deliver_local(std::move(p));
  } else {
    send(std::move(p));  // forward
  }
}

[[gnu::hot]] void Node::send(Packet&& p) {
  sim_.shard().assert_held();
  std::ptrdiff_t port =
      p.dst < routes_.size() ? routes_[p.dst] : std::ptrdiff_t{-1};
  if (port < 0) port = default_route_;
  if (port < 0) {
    ++stats_.unrouted;
    return;
  }
  ports_[static_cast<std::size_t>(port)]->send(std::move(p));
}

[[gnu::hot]] void Node::deliver_local(Packet&& p) {
  const std::uint8_t proto = proto_byte(p.proto);
  std::uint32_t local_port, remote_port;
  if (p.proto == Protocol::kTcp) {
    local_port = p.tcp.dst_port;
    remote_port = p.tcp.src_port;
  } else {
    local_port = p.udp.dst_port;
    remote_port = p.udp.src_port;
  }
  auto* slot = demux_.find(DemuxKey::pack(proto, local_port, p.src, remote_port));
  if (slot == nullptr) slot = demux_.find(DemuxKey::wildcard(proto, local_port));
  if (slot == nullptr || !slot->value) {
    // Sockets unbind as soon as they close or abort, so a retransmission
    // racing the teardown can still arrive afterwards -- a resent FIN
    // after our final ACK was dropped, or a SYN-ACK retransmitted into a
    // client that already gave up connecting. Only a pure SYN (a fresh
    // connection attempt) or a UDP datagram signals a real blackhole;
    // see Stats::stray_late.
    if (p.proto == Protocol::kTcp && (p.tcp.has_ack || p.tcp.fin)) {
      ++stats_.stray_late;
    } else {
      ++stats_.undelivered;
    }
    return;
  }
  ++stats_.delivered;
  // Move the handler out for the duration of the call: the handler may
  // unbind itself (its captures must outlive the call even though the
  // table entry dies), and any bind/unbind it performs may relocate slots
  // (growth rehash, backward shift). Afterwards the generation stamp
  // decides the handler's fate: unchanged -> the binding is still this
  // handler, move it back; changed or gone -> the handler unbound or
  // replaced itself, so the moved-out copy is dropped (destroying the
  // captures only after the call returned). Both paths are allocation-free
  // (SmallFunction moves relocate inline captures).
  const DemuxKey key = slot->key;
  const std::uint64_t gen = slot->gen;
  Handler h = std::move(slot->value);
  h(std::move(p));
  if (auto* back = demux_.find(key); back != nullptr && back->gen == gen) {
    back->value = std::move(h);
  }
}

std::uint64_t Node::bind_connection(Protocol proto, std::uint32_t local_port,
                                    NodeId remote, std::uint32_t remote_port,
                                    Handler h) {
  sim_.shard().assert_held();
  ++stats_.binds;
  const auto [gen, inserted] = demux_.bind(
      DemuxKey::pack(proto_byte(proto), local_port, remote, remote_port),
      std::move(h));
  if (inserted) note_bound(local_port);
  return gen;
}

void Node::unbind_connection(Protocol proto, std::uint32_t local_port,
                             NodeId remote, std::uint32_t remote_port) {
  sim_.shard().assert_held();
  if (demux_.erase(DemuxKey::pack(proto_byte(proto), local_port, remote,
                                  remote_port))) {
    ++stats_.unbinds;
    note_unbound(local_port);
  }
}

void Node::unbind_connection(Protocol proto, std::uint32_t local_port,
                             NodeId remote, std::uint32_t remote_port,
                             std::uint64_t expected_gen) {
  sim_.shard().assert_held();
  if (demux_.erase_if_gen(DemuxKey::pack(proto_byte(proto), local_port, remote,
                                         remote_port),
                          expected_gen)) {
    ++stats_.unbinds;
    note_unbound(local_port);
  }
}

void Node::bind_listener(Protocol proto, std::uint32_t local_port, Handler h) {
  sim_.shard().assert_held();
  ++stats_.binds;
  const auto [gen, inserted] =
      demux_.bind(DemuxKey::wildcard(proto_byte(proto), local_port),
                  std::move(h));
  (void)gen;
  if (inserted) note_bound(local_port);
}

void Node::unbind_listener(Protocol proto, std::uint32_t local_port) {
  sim_.shard().assert_held();
  if (demux_.erase(DemuxKey::wildcard(proto_byte(proto), local_port))) {
    ++stats_.unbinds;
    note_unbound(local_port);
  }
}

void Node::note_bound(std::uint32_t local_port) {
  if (local_port < kEphemeralLo || local_port > kEphemeralHi) return;
  if (ephemeral_use_.empty()) {
    ephemeral_use_.resize(kEphemeralHi - kEphemeralLo + 1, 0);
  }
  ++ephemeral_use_[local_port - kEphemeralLo];
}

void Node::note_unbound(std::uint32_t local_port) {
  if (local_port < kEphemeralLo || local_port > kEphemeralHi) return;
  if (!ephemeral_use_.empty()) --ephemeral_use_[local_port - kEphemeralLo];
}

bool Node::port_in_use(std::uint32_t port) const {
  return !ephemeral_use_.empty() && ephemeral_use_[port - kEphemeralLo] != 0;
}

std::uint32_t Node::allocate_port() {
  // Same sequence the pre-wraparound allocator produced (49152, 49153, ...)
  // until the range is exhausted; after wrapping, ports still bound to a
  // live connection or listener are skipped (long Harpoon sweeps exceed
  // 16k flows per node, so the raw counter used to walk out of the
  // ephemeral range and collide with reused ports).
  for (std::uint32_t tries = 0; tries <= kEphemeralHi - kEphemeralLo;
       ++tries) {
    const std::uint32_t port = next_ephemeral_;
    next_ephemeral_ = port == kEphemeralHi ? kEphemeralLo : port + 1;
    if (!port_in_use(port)) return port;
  }
  throw std::runtime_error("Node::allocate_port: ephemeral range exhausted");
}

}  // namespace qoesim::net
