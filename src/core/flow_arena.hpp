// qoesim -- pooled per-flow state arena (slab growth, free-list reuse,
// generation-stamped handles).
//
// The transport plane's answer to the slab/free-list/generation pattern
// the scheduler arena (PR 2), packet pool (PR 3) and flat demux table
// (PR 5) proved out: every node owns one FlowArena, and every TcpSocket
// the node originates or accepts lives inside it -- control block and
// object in one fixed-size pooled slot (std::allocate_shared through
// FlowAllocator), so steady-state flow churn allocates nothing once the
// slabs are warm.
//
// Three cooperating pieces:
//
//   raw slot pool   fixed slot size locked by the first allocation;
//                   slabs that follow peak occupancy (the first holds one
//                   slot, each later one as many as all earlier slabs
//                   together, capped at 64 -- BlockRing's rule), lowest
//                   fresh slot first, LIFO free list. The socket's public
//                   API stays shared_ptr, but the memory behind it is
//                   arena slots.
//   handle registry adopt() pins a flow with a strong ref and returns a
//                   4-byte FlowHandle (slot:24 | gen:8). Demux handlers
//                   and timer callbacks capture {arena*, handle} instead
//                   of shared/weak_ptr -- resolve() is one bounds check,
//                   one generation compare, one load. release() (at
//                   teardown) bumps the generation, so a stale handle in
//                   a late timer or in-flight packet resolves to null,
//                   exactly the weak_ptr::lock semantics it replaces,
//                   without the control-block atomics.
//   cold pool       a second fixed-size slot pool for lazily allocated
//                   cold flow state (SACK scoreboard, out-of-order set,
//                   retransmit marks) -- grabbed on the first loss or
//                   reorder event, handed back when the flow returns to
//                   steady state. Grows by the same rule as the hot pool.
//
// Lifetime: the slabs live in a shared Core so a socket an application
// still references after its node died can return its slot safely --
// every allocator copy inside a control block keeps the Core alive. The
// owning wrapper breaks the would-be ref cycle (slot ref -> socket ->
// control block -> allocator -> Core -> slot ref) by dropping all slot
// refs in its destructor.
//
// Single-shard ownership: like the rest of a node, the arena is mutated
// only from the shard running the node's simulation; it carries no locks.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <utility>
#include <vector>

namespace qoesim::core {

/// Generation-stamped 4-byte flow handle; see header comment. Named
/// FlowHandle (not FlowId) because net::FlowId is the packet-header flow
/// label -- a different, 64-bit, never-reused identifier.
struct FlowHandle {
  static constexpr std::uint32_t kNil = 0xffffffffu;
  std::uint32_t raw = kNil;

  static FlowHandle make(std::uint32_t slot, std::uint8_t gen) {
    return FlowHandle{(slot << 8) | gen};
  }
  std::uint32_t slot() const { return raw >> 8; }
  std::uint8_t gen() const { return static_cast<std::uint8_t>(raw & 0xffu); }
  bool nil() const { return raw == kNil; }
  bool operator==(const FlowHandle&) const = default;
};

class FlowArena {
 private:
  struct Core;  // slabs + slot metadata; shared with every Ref/Allocator

 public:
  struct Stats {
    std::uint64_t flows_opened = 0;   ///< adopt() calls
    std::uint64_t flows_closed = 0;   ///< release() calls
    std::uint64_t live = 0;           ///< currently adopted
    std::uint64_t peak_live = 0;
    std::uint64_t slab_growths = 0;   ///< hot slab allocations
    std::uint64_t slot_bytes = 0;     ///< hot slot size (control block + socket)
    std::uint64_t cold_allocs = 0;
    std::uint64_t cold_frees = 0;
    std::uint64_t cold_live = 0;
    std::uint64_t cold_peak_live = 0;
    std::uint64_t cold_slot_bytes = 0;
  };

  FlowArena() : core_(std::make_shared<Core>()) {}
  ~FlowArena() { release_all(); }
  FlowArena(const FlowArena&) = delete;
  FlowArena& operator=(const FlowArena&) = delete;

  /// Pin `obj` (owned by `owner`, living inside one of this arena's hot
  /// slots) and hand out its generation-stamped handle. The strong ref
  /// keeps the flow alive while bound -- the role the demux handler's
  /// shared_ptr capture used to play.
  FlowHandle adopt(std::shared_ptr<void> owner, void* obj) {
    return core_->adopt(std::move(owner), obj);
  }

  /// Handle -> object, or nullptr when the slot generation moved on
  /// (flow released; possibly reused by a new flow). One bounds check +
  /// generation compare -- the hot demux/timer dispatch path.
  void* resolve(FlowHandle h) const { return core_->resolve(h); }

  /// Drop the arena's strong ref and retire the handle (generation bump:
  /// every outstanding copy now resolves to null). The slot's memory
  /// returns to the free list once the last external shared_ptr lets go.
  void release(FlowHandle h) { core_->release(h); }

  /// Drop every strong ref (node teardown). Handles all go stale.
  void release_all() { core_->release_all(); }

  /// Cold-state pool: fixed-size lazily attached blocks.
  void* cold_alloc(std::size_t bytes) { return core_->cold_alloc(bytes); }
  void cold_free(void* p) { core_->cold_free(p); }

  /// Detachable arena token for callback captures (demux handlers, flow
  /// timers) and for sockets themselves: 16 bytes, shares ownership of
  /// the slabs, so a capture -- or a socket an application still holds --
  /// stays safe even after the owning node died. Resolution after
  /// release_all() simply returns null (generations were bumped).
  class Ref {
   public:
    Ref() = default;
    void* resolve(FlowHandle h) const {
      return core_ ? core_->resolve(h) : nullptr;
    }
    void release(FlowHandle h) const {
      if (core_) core_->release(h);
    }
    void* cold_alloc(std::size_t bytes) const {
      return core_->cold_alloc(bytes);
    }
    void cold_free(void* p) const { core_->cold_free(p); }

   private:
    friend class FlowArena;
    explicit Ref(std::shared_ptr<Core> core) : core_(std::move(core)) {}
    std::shared_ptr<Core> core_;
  };
  Ref ref() const { return Ref(core_); }

  const Stats& stats() const { return core_->stats; }

  // ---- allocator plumbing ---------------------------------------------------

  /// Minimal allocator over the hot slot pool for std::allocate_shared:
  /// one combined control-block+object allocation per flow, pooled. Each
  /// copy (one lives in every control block) keeps the Core alive, so a
  /// socket outliving its node still returns its slot safely.
  template <typename T>
  class Allocator {
   public:
    using value_type = T;
    explicit Allocator(const FlowArena& arena) : core_(arena.core_) {}
    template <typename U>
    Allocator(const Allocator<U>& o) : core_(o.core_) {}

    T* allocate(std::size_t n) {
      return static_cast<T*>(core_->raw_allocate(n * sizeof(T), alignof(T)));
    }
    void deallocate(T* p, std::size_t) { core_->raw_deallocate(p); }

    template <typename U>
    bool operator==(const Allocator<U>& o) const {
      return core_ == o.core_;
    }

   private:
    template <typename U>
    friend class Allocator;
    friend class FlowArena;
    std::shared_ptr<Core> core_;
  };

 private:
  struct Slab {
    std::unique_ptr<unsigned char[]> bytes;
    std::uint32_t first_slot = 0;
    std::uint32_t nslots = 0;
  };

  struct SlotMeta {
    std::shared_ptr<void> ref;  ///< strong while the flow is bound
    void* obj = nullptr;
    std::uint8_t gen = 0;
  };

  struct Core {
    Stats stats;

    // ---- hot pool ----
    std::vector<Slab> slabs_;
    std::vector<SlotMeta> meta_;
    std::vector<std::uint32_t> free_;
    std::size_t slot_bytes_ = 0;
    std::uint32_t last_alloc_slot_ = FlowHandle::kNil;

    // ---- cold pool ----
    std::vector<std::unique_ptr<unsigned char[]>> cold_slabs_;
    std::vector<void*> cold_free_;
    std::size_t cold_slot_bytes_ = 0;
    std::uint32_t cold_slots_ = 0;

    static constexpr std::uint32_t kMaxSlabSlots = 64;

    static std::size_t round_up(std::size_t v, std::size_t a) {
      return (v + a - 1) / a * a;
    }

    /// Next slab size given the slots already pooled: one, then as many
    /// as all earlier slabs together, capped -- so a one-flow node pays
    /// for one slot and a large pool rounds up by fewer than 64 slots.
    static std::uint32_t next_slab_slots(std::uint32_t pooled) {
      return std::clamp<std::uint32_t>(pooled, 1, kMaxSlabSlots);
    }

    void grow_hot() {
      const auto pooled = static_cast<std::uint32_t>(meta_.size());
      const std::uint32_t nslots = next_slab_slots(pooled);
      Slab slab;
      // Uninitialised: allocate_shared constructs each slot before use.
      slab.bytes = std::make_unique_for_overwrite<unsigned char[]>(
          nslots * slot_bytes_);
      slab.first_slot = pooled;
      slab.nslots = nslots;
      meta_.resize(pooled + nslots);
      // Room for every slot, so raw_deallocate never reallocates.
      free_.reserve(meta_.size());
      // LIFO free list: push in reverse so the lowest slot comes out
      // first (deterministic, matches the scheduler arena's contract).
      for (std::uint32_t i = nslots; i > 0; --i) {
        free_.push_back(slab.first_slot + i - 1);
      }
      slabs_.push_back(std::move(slab));
      ++stats.slab_growths;
    }

    void* raw_allocate(std::size_t bytes, std::size_t align) {
      bytes = round_up(bytes, alignof(std::max_align_t));
      if (align > alignof(std::max_align_t)) {
        throw std::invalid_argument("FlowArena: over-aligned flow type");
      }
      if (slot_bytes_ == 0) {
        slot_bytes_ = bytes;
        stats.slot_bytes = bytes;
      } else if (bytes > slot_bytes_) {
        throw std::invalid_argument("FlowArena: slot size already fixed");
      }
      if (free_.empty()) grow_hot();
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      last_alloc_slot_ = slot;
      return slot_base(slot);
    }

    void raw_deallocate(void* p) {
      // Capacity reserved by grow_hot(): never reallocates.
      free_.push_back(slot_of(p));
    }

    unsigned char* slot_base(std::uint32_t slot) {
      for (const Slab& s : slabs_) {
        if (slot < s.first_slot + s.nslots) {
          return s.bytes.get() + (slot - s.first_slot) * slot_bytes_;
        }
      }
      throw std::out_of_range("FlowArena: bad slot");
    }

    /// Slab walk (at most N/64 + 7 slabs for N pooled slots); only on the
    /// per-flow open/close path, never per packet.
    std::uint32_t slot_of(const void* p) const {
      for (const Slab& s : slabs_) {
        const unsigned char* base = s.bytes.get();
        const unsigned char* q = static_cast<const unsigned char*>(p);
        if (q >= base && q < base + s.nslots * slot_bytes_) {
          return s.first_slot +
                 static_cast<std::uint32_t>((q - base) / slot_bytes_);
        }
      }
      throw std::out_of_range("FlowArena: foreign pointer");
    }

    FlowHandle adopt(std::shared_ptr<void> owner, void* obj) {
      // The object lives inside the slot block raw_allocate just handed
      // to allocate_shared; re-derive the slot from the object address
      // (the object sits behind the control block, not at slot start).
      const std::uint32_t slot = slot_of(obj);
      SlotMeta& m = meta_[slot];
      m.ref = std::move(owner);
      m.obj = obj;
      ++stats.flows_opened;
      ++stats.live;
      if (stats.live > stats.peak_live) stats.peak_live = stats.live;
      return FlowHandle::make(slot, m.gen);
    }

    void* resolve(FlowHandle h) const {
      const std::uint32_t slot = h.slot();
      if (slot >= meta_.size()) return nullptr;
      const SlotMeta& m = meta_[slot];
      return m.gen == h.gen() ? m.obj : nullptr;
    }

    void release(FlowHandle h) {
      const std::uint32_t slot = h.slot();
      if (slot >= meta_.size() || meta_[slot].gen != h.gen()) return;
      retire(meta_[slot]);
    }

    void release_all() {
      for (SlotMeta& m : meta_) {
        if (m.ref) retire(m);
      }
    }

    void retire(SlotMeta& m) {
      ++m.gen;  // every outstanding handle copy is now stale
      m.obj = nullptr;
      ++stats.flows_closed;
      --stats.live;
      // Dropping the ref may destroy the object, which re-enters
      // raw_deallocate/cold_free -- both touch only vectors that stay
      // valid here. Move out first so m is quiescent during the callback.
      std::shared_ptr<void> ref = std::move(m.ref);
      ref.reset();
    }

    void* cold_alloc(std::size_t bytes) {
      bytes = round_up(bytes, alignof(std::max_align_t));
      if (cold_slot_bytes_ == 0) {
        cold_slot_bytes_ = bytes;
        stats.cold_slot_bytes = bytes;
      } else if (bytes > cold_slot_bytes_) {
        throw std::invalid_argument("FlowArena: cold slot size already fixed");
      }
      if (cold_free_.empty()) {
        const std::uint32_t n = next_slab_slots(cold_slots_);
        cold_slots_ += n;
        // Uninitialised: the caller constructs its cold state in place.
        auto slab = std::make_unique_for_overwrite<unsigned char[]>(
            n * cold_slot_bytes_);
        cold_free_.reserve(cold_slots_);  // so cold_free never reallocates
        for (std::uint32_t i = n; i > 0; --i) {
          cold_free_.push_back(slab.get() + (i - 1) * cold_slot_bytes_);
        }
        cold_slabs_.push_back(std::move(slab));
      }
      void* p = cold_free_.back();
      cold_free_.pop_back();
      ++stats.cold_allocs;
      ++stats.cold_live;
      if (stats.cold_live > stats.cold_peak_live) {
        stats.cold_peak_live = stats.cold_live;
      }
      return p;
    }

    void cold_free(void* p) {
      // Capacity reserved by cold_alloc(): never reallocates.
      cold_free_.push_back(p);
      ++stats.cold_frees;
      --stats.cold_live;
    }
  };

  std::shared_ptr<Core> core_;
};

}  // namespace qoesim::core
