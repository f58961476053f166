// FlowArena conformance: pooled slot lifecycle (allocate_shared through
// the arena allocator), generation-stamped handle semantics (stale
// resolves null, also after slot reuse), LIFO slot-reuse order, slab
// growth following peak occupancy and staying flat through steady-state
// churn, cold-pool round trips, the ref-cycle break on release_all, and
// a randomized churn fuzz against a std::map reference model.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <vector>

#include "core/flow_arena.hpp"

namespace qoesim::core {
namespace {

/// Stand-in flow object sized like a small socket; tracks destruction so
/// tests can observe when the arena's strong ref (or the last external
/// shared_ptr) lets go.
struct Flow {
  explicit Flow(int* graveyard = nullptr) : graveyard_(graveyard) {}
  ~Flow() {
    if (graveyard_ != nullptr) ++*graveyard_;
  }
  std::uint64_t payload[24] = {};
  int* graveyard_ = nullptr;
};

std::shared_ptr<Flow> make_flow(FlowArena& arena, int* graveyard = nullptr) {
  return std::allocate_shared<Flow>(FlowArena::Allocator<Flow>(arena),
                                    graveyard);
}

TEST(FlowArena, AdoptResolveRelease) {
  FlowArena arena;
  auto f = make_flow(arena);
  const FlowHandle h = arena.adopt(f, f.get());
  EXPECT_FALSE(h.nil());
  EXPECT_EQ(arena.resolve(h), f.get());
  EXPECT_EQ(arena.stats().live, 1u);

  arena.release(h);
  EXPECT_EQ(arena.resolve(h), nullptr);
  EXPECT_EQ(arena.stats().live, 0u);
  EXPECT_EQ(arena.stats().flows_closed, 1u);
  // Releasing again is a no-op (the generation already moved on).
  arena.release(h);
  EXPECT_EQ(arena.stats().flows_closed, 1u);
}

TEST(FlowArena, StaleHandleAfterSlotReuse) {
  FlowArena arena;
  auto a = make_flow(arena);
  const FlowHandle ha = arena.adopt(a, a.get());
  arena.release(ha);
  a.reset();  // slot returns to the free list

  // LIFO free list: the next flow lands in the same slot with a bumped
  // generation, so the old handle must keep resolving null -- the
  // regression the generation stamp exists for (a late timer firing into
  // a reused slot would otherwise drive a different connection).
  auto b = make_flow(arena);
  const FlowHandle hb = arena.adopt(b, b.get());
  EXPECT_EQ(hb.slot(), ha.slot());
  EXPECT_NE(hb.gen(), ha.gen());
  EXPECT_EQ(arena.resolve(ha), nullptr);
  EXPECT_EQ(arena.resolve(hb), b.get());
}

TEST(FlowArena, ArenaRefKeepsObjectAliveAndOutlivesArena) {
  int graves = 0;
  FlowHandle h;
  FlowArena::Ref ref;
  {
    FlowArena arena;
    auto f = make_flow(arena, &graves);
    h = arena.adopt(f, f.get());
    ref = arena.ref();
    f.reset();
    // The arena's strong ref keeps the flow alive without any external
    // shared_ptr -- the demux-binding role.
    EXPECT_EQ(graves, 0);
    EXPECT_NE(ref.resolve(h), nullptr);
  }
  // ~FlowArena ran release_all: the flow died (ref-cycle break) and every
  // outstanding capture resolves null, but the detached Ref still holds
  // the slabs, so resolving is safe -- no use-after-free.
  EXPECT_EQ(graves, 1);
  EXPECT_EQ(ref.resolve(h), nullptr);
}

TEST(FlowArena, SlotReuseIsLifoAndSlabGrowthStaysFlat) {
  FlowArena arena;
  std::vector<std::shared_ptr<Flow>> flows;
  std::vector<FlowHandle> handles;
  // Slabs of 1+1+2+4+8+16+32 slots hold exactly 64 flows.
  for (int i = 0; i < 64; ++i) {
    flows.push_back(make_flow(arena));
    handles.push_back(arena.adopt(flows.back(), flows.back().get()));
  }
  EXPECT_EQ(arena.stats().slab_growths, 7u);

  // Steady-state churn: release/replace in waves; the pool never grows
  // again and freed slots come back most-recently-freed first.
  for (int wave = 0; wave < 50; ++wave) {
    arena.release(handles[13]);
    flows[13].reset();
    const void* freed = nullptr;
    {
      auto probe = make_flow(arena);
      freed = probe.get();
      // probe's slot returns to the free list here ...
    }
    flows[13] = make_flow(arena);
    // ... and LIFO reuse hands the very same memory back.
    EXPECT_EQ(static_cast<const void*>(flows[13].get()), freed);
    handles[13] = arena.adopt(flows[13], flows[13].get());
  }
  EXPECT_EQ(arena.stats().slab_growths, 7u);
  EXPECT_EQ(arena.stats().peak_live, 64u);

  // The 65th concurrent flow adds one more slab (64 slots, the cap).
  flows.push_back(make_flow(arena));
  handles.push_back(arena.adopt(flows.back(), flows.back().get()));
  EXPECT_EQ(arena.stats().slab_growths, 8u);
}

TEST(FlowArena, SlabsFollowPeakOccupancy) {
  // Slab sizes 1, 1, 2, 4, ..., 32, then 64 each: a node with one flow
  // pays for one slot, and a large pool over-provisions by < 64 slots.
  struct Case {
    int peak;
    std::uint64_t growths;
  };
  for (const Case c : {Case{1, 1}, Case{2, 2}, Case{64, 7}, Case{65, 8},
                       Case{200, 10}}) {
    FlowArena arena;
    std::vector<std::shared_ptr<Flow>> flows;
    std::vector<FlowHandle> handles;
    for (int i = 0; i < c.peak; ++i) {
      flows.push_back(make_flow(arena));
      handles.push_back(arena.adopt(flows.back(), flows.back().get()));
      // Fresh slots still come out lowest-first across slab boundaries.
      ASSERT_EQ(handles.back().slot(), static_cast<std::uint32_t>(i));
    }
    EXPECT_EQ(arena.stats().slab_growths, c.growths) << "peak " << c.peak;
    // Closing and reopening every flow reuses the pool without growth.
    for (int i = 0; i < c.peak; ++i) {
      arena.release(handles[i]);
      flows[i].reset();
    }
    for (int i = 0; i < c.peak; ++i) {
      flows[i] = make_flow(arena);
      handles[i] = arena.adopt(flows[i], flows[i].get());
    }
    EXPECT_EQ(arena.stats().slab_growths, c.growths) << "peak " << c.peak;
    EXPECT_EQ(arena.stats().peak_live, static_cast<std::uint64_t>(c.peak));
  }
}

TEST(FlowArena, ColdPoolRoundTrip) {
  FlowArena arena;
  void* a = arena.cold_alloc(200);
  void* b = arena.cold_alloc(200);
  EXPECT_NE(a, b);
  EXPECT_EQ(arena.stats().cold_live, 2u);
  arena.cold_free(a);
  EXPECT_EQ(arena.stats().cold_live, 1u);
  // LIFO: the freed block is the next one handed out.
  EXPECT_EQ(arena.cold_alloc(200), a);
  // A larger request than the fixed cold slot size must throw, never
  // hand back an undersized block.
  EXPECT_THROW(arena.cold_alloc(4096), std::invalid_argument);
  EXPECT_EQ(arena.stats().cold_peak_live, 2u);

  // Past 64 live blocks (several slabs, the last at the 64-block cap):
  // every block is distinct and writable, and they all come back LIFO.
  std::vector<void*> blocks{a, b};
  while (blocks.size() < 150) blocks.push_back(arena.cold_alloc(200));
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    std::memset(blocks[i], static_cast<int>(i), 200);
  }
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(*static_cast<unsigned char*>(blocks[i]),
              static_cast<unsigned char>(i));
  }
  EXPECT_EQ(std::set<void*>(blocks.begin(), blocks.end()).size(), 150u);
  EXPECT_EQ(arena.stats().cold_live, 150u);
  EXPECT_EQ(arena.stats().cold_peak_live, 150u);
  for (void* p : blocks) arena.cold_free(p);
  EXPECT_EQ(arena.stats().cold_live, 0u);
  EXPECT_EQ(arena.cold_alloc(200), blocks.back());
}

TEST(FlowArena, ChurnFuzzAgainstMapReference) {
  FlowArena arena;
  std::mt19937_64 rng(20140814);
  struct Live {
    std::shared_ptr<Flow> obj;
    FlowHandle handle;
  };
  std::map<std::uint32_t, Live> live;  // slot -> flow (reference model)
  // Handles released since the last verification sweep. Kept windowed:
  // the generation stamp is 8 bits, so a handle only stays provably stale
  // until its slot has churned 256 more times -- the same ABA horizon the
  // socket teardown relies on (a late timer fires within one sim instant,
  // not 256 flow lifetimes later).
  std::vector<FlowHandle> stale;
  std::uint64_t opened = 0, closed = 0;

  for (int step = 0; step < 4000; ++step) {
    const bool open = live.empty() || (rng() % 100 < 55);
    if (open) {
      auto f = make_flow(arena);
      const FlowHandle h = arena.adopt(f, f.get());
      ASSERT_EQ(live.count(h.slot()), 0u) << "slot double-booked";
      live[h.slot()] = Live{std::move(f), h};
      ++opened;
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng() % live.size()));
      arena.release(it->second.handle);
      stale.push_back(it->second.handle);
      live.erase(it);
      ++closed;
    }
    if (step % 97 == 0) {
      for (const auto& [slot, l] : live) {
        ASSERT_EQ(arena.resolve(l.handle), l.obj.get());
      }
      for (const FlowHandle h : stale) {
        ASSERT_EQ(arena.resolve(h), nullptr);
      }
      stale.clear();
      ASSERT_EQ(arena.stats().live, live.size());
    }
  }
  EXPECT_EQ(arena.stats().flows_opened, opened);
  EXPECT_EQ(arena.stats().flows_closed, closed);
}

TEST(FlowArena, SlotSizeIsFixedByFirstAllocation) {
  struct Big {
    std::uint64_t payload[64] = {};
  };
  FlowArena arena;
  auto f = make_flow(arena);  // fixes slot size at sizeof control+Flow
  EXPECT_THROW(std::allocate_shared<Big>(FlowArena::Allocator<Big>(arena)),
               std::invalid_argument);
}

}  // namespace
}  // namespace qoesim::core
