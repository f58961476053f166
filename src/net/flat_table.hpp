// qoesim -- open-addressing demux table.
//
// FlatTable maps a packed transport 4-tuple key to a handler with linear
// probing over a power-of-two slot array. It replaces the red-black-tree
// std::map the node demux used: a lookup is one hash plus a short cache-
// friendly scan instead of a pointer-chasing tree walk, and bind/unbind of
// a flow is O(1) amortized with no per-entry allocation, so Harpoon-style
// flow churn stops paying a tree rebalance plus node allocation per flow.
//
// Deletion is tombstone-free (backward-shift): erasing an entry shifts the
// following probe-chain members back over the hole, so the table never
// degrades under sustained bind/unbind churn and a miss always stops at
// the first empty slot.
//
// Every bind stamps the entry with a table-unique, monotonically
// increasing generation. The node's delivery path uses it to detect
// whether a binding was replaced or removed while its handler ran (see
// Node::deliver_local); generations survive growth rehashes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/annotations.hpp"

namespace qoesim::net {

/// Transport demux key: {proto, local_port, remote node, remote_port}
/// packed into two words. Wildcard listeners use kWildcardRemote /
/// remote_port 0 (no real peer ever matches: node ids are dense small
/// integers and kWildcardRemote is the all-ones sentinel).
struct DemuxKey {
  std::uint64_t hi = kEmptyHi;  ///< proto << 32 | local_port
  std::uint64_t lo = 0;         ///< remote << 32 | remote_port

  /// hi value marking an empty slot; proto is 8-bit so no packed key
  /// ever reaches it.
  static constexpr std::uint64_t kEmptyHi = ~0ull;
  static constexpr std::uint32_t kWildcardRemote = 0xffffffffu;

  static DemuxKey pack(std::uint8_t proto, std::uint32_t local_port,
                       std::uint32_t remote, std::uint32_t remote_port) {
    DemuxKey k;
    k.hi = (static_cast<std::uint64_t>(proto) << 32) | local_port;
    k.lo = (static_cast<std::uint64_t>(remote) << 32) | remote_port;
    return k;
  }

  static DemuxKey wildcard(std::uint8_t proto, std::uint32_t local_port) {
    return pack(proto, local_port, kWildcardRemote, 0);
  }

  bool operator==(const DemuxKey&) const = default;
};

/// SplitMix64-style mix of both key words; the multiply-xorshift cascade
/// spreads the low port/node bits across the whole word so power-of-two
/// masking still probes uniformly.
inline std::uint64_t demux_hash(const DemuxKey& k) {
  std::uint64_t x = k.hi * 0x9e3779b97f4a7c15ull ^ k.lo;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Shard-plane: a table is owned by one Node and mutated only from the
/// owning shard (bind/unbind on connection churn, find on every delivery).
/// All structure-touching operations require the shard capability; the
/// const counters (size/capacity/rehashes) do not.
template <typename V>
class QOESIM_SHARD_PLANE FlatTable {
 public:
  struct Slot {
    DemuxKey key;
    std::uint64_t gen = 0;  ///< stamped by bind(); see header comment
    V value{};

    bool empty() const { return key.hi == DemuxKey::kEmptyHi; }
  };

  FlatTable() = default;
  FlatTable(FlatTable&&) = default;
  FlatTable& operator=(FlatTable&&) = default;
  FlatTable(const FlatTable&) = delete;
  FlatTable& operator=(const FlatTable&) = delete;

  /// Live entries / current slot-array size / growth rehashes so far.
  /// `rehashes()` staying flat across a churn phase proves the steady
  /// state allocates nothing (the slot array is the only allocation).
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }
  std::uint64_t rehashes() const { return rehashes_; }

  /// Grow so `n` entries fit without rehashing.
  void reserve(std::size_t n) QOESIM_REQUIRES(::qoesim::shard_plane) {
    std::size_t cap = kMinCapacity;
    while (n * 4 > cap * 3) cap <<= 1;
    if (cap > slots_.size()) grow_to(cap);
  }

  /// Insert or replace. Returns the entry's fresh generation stamp and
  /// whether the key was newly inserted (false = an existing binding was
  /// replaced in place).
  std::pair<std::uint64_t, bool> bind(const DemuxKey& key, V&& value)
      QOESIM_REQUIRES(::qoesim::shard_plane) {
    if (slots_.empty()) grow_to(kMinCapacity);
    const std::uint64_t gen = ++next_gen_;
    // One scan does both jobs: tombstone-free probing means the first
    // empty slot hit while looking for the key is the insert position.
    std::size_t mask = slots_.size() - 1;
    std::size_t i = demux_hash(key) & mask;
    while (!slots_[i].empty()) {
      if (slots_[i].key == key) {  // replace in place: no growth
        slots_[i].gen = gen;
        slots_[i].value = std::move(value);
        return {gen, false};
      }
      i = (i + 1) & mask;
    }
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      grow_to(slots_.size() * 2);  // relocates the chain: re-probe
      mask = slots_.size() - 1;
      i = demux_hash(key) & mask;
      while (!slots_[i].empty()) i = (i + 1) & mask;
    }
    slots_[i].key = key;
    slots_[i].gen = gen;
    slots_[i].value = std::move(value);
    ++size_;
    return {gen, true};
  }

  /// Lookup; nullptr on miss. The pointer is invalidated by any bind or
  /// erase (growth or backward-shift may relocate entries).
  Slot* find(const DemuxKey& key) QOESIM_REQUIRES(::qoesim::shard_plane) {
    if (slots_.empty()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = demux_hash(key) & mask;
    while (!slots_[i].empty()) {
      if (slots_[i].key == key) return &slots_[i];
      i = (i + 1) & mask;
    }
    return nullptr;
  }

  /// Remove a key; false if absent. Backward-shift: members of the probe
  /// chain after the hole move back one step when doing so does not place
  /// them before their home slot, so no tombstone is left behind.
  bool erase(const DemuxKey& key) QOESIM_REQUIRES(::qoesim::shard_plane) {
    Slot* s = find(key);
    if (s == nullptr) return false;
    erase_slot(s);
    return true;
  }

  /// Remove a key only if its entry still carries generation `gen`.
  /// Lets a deferred unbind detect that the binding it meant to remove
  /// was already replaced by a new flow on the same 4-tuple (same-
  /// timestamp churn) and leave the newcomer alone. False when the key is
  /// absent or the generation moved on.
  bool erase_if_gen(const DemuxKey& key, std::uint64_t gen)
      QOESIM_REQUIRES(::qoesim::shard_plane) {
    Slot* s = find(key);
    if (s == nullptr || s->gen != gen) return false;
    erase_slot(s);
    return true;
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  void erase_slot(Slot* s) QOESIM_REQUIRES(::qoesim::shard_plane) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(s - slots_.data());
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask;
      if (slots_[j].empty()) break;
      const std::size_t home = demux_hash(slots_[j].key) & mask;
      // slots_[j] may back-fill the hole at i only if i lies within its
      // probe path, i.e. its displacement from home reaches past i.
      if (((j - home) & mask) >= ((j - i) & mask)) {
        slots_[i] = std::move(slots_[j]);
        i = j;
      }
    }
    slots_[i].key = DemuxKey{};
    slots_[i].gen = 0;
    slots_[i].value = V{};
    --size_;
  }

  void grow_to(std::size_t cap) QOESIM_REQUIRES(::qoesim::shard_plane) {
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(cap);
    const std::size_t mask = cap - 1;
    for (Slot& s : old) {
      if (s.empty()) continue;
      std::size_t i = demux_hash(s.key) & mask;
      while (!slots_[i].empty()) i = (i + 1) & mask;
      slots_[i] = std::move(s);  // keeps the generation stamp
    }
    if (!old.empty()) ++rehashes_;
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::uint64_t next_gen_ = 0;
  std::uint64_t rehashes_ = 0;
};

}  // namespace qoesim::net
