// qoesim -- small-vector interval set for per-flow sequence bookkeeping.
//
// A sorted vector of disjoint [start, end) intervals over 64-bit sequence
// space, with a fixed inline capacity so the common cases (a handful of
// SACK blocks, a few retransmitted holes) touch no allocator at all. Past
// kInline intervals the set spills to the heap and doubles from there;
// release() and the destructor free the spill, clear() keeps it.
//
// The spill is not rare. The receiver's out-of-order set (TcpCold::ooo)
// keeps one interval per segment (note_segment below), so every loss
// episode with more than kInline segments past the hole spills it, and
// the cold block that owns it is freed when the episode ends, so the
// next episode allocates again. On the backbone `long` cell with buffer
// 749 (master seed 1) that is 8,994 of the 8,999 allocations in the 20 s
// after the 15 s warm-up, one `new[]` per five retransmits. Pooling the
// spill is an open ROADMAP follow-up.
//
// Two insertion flavors share the storage:
//
//   add(start, end)           full overlap/adjacency merge; the machinery
//                             behind SackScoreboard and the sender's
//                             retransmit-marked set.
//   note_segment(start, end)  per-segment granularity: an interval with
//                             the exact same start is extended, distinct
//                             starts stay separate even when they overlap
//                             or abut. This replicates the std::map
//                             try_emplace/max bookkeeping the receiver's
//                             out-of-order buffer used, which feeds
//                             fill_sack(): the SACK blocks on the wire
//                             must keep reporting per-segment arrival
//                             granularity, or the sender's recovery
//                             trajectory (and every paper-pinned figure)
//                             would change.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>

namespace qoesim::tcp {

class IntervalSet {
 public:
  struct Interval {
    std::uint64_t start;
    std::uint64_t end;
  };

  /// Intervals kept inline before spilling to the heap. Four covers the
  /// three SACK blocks a segment can carry plus one in-merge transient.
  static constexpr std::uint32_t kInline = 4;

  IntervalSet() = default;
  ~IntervalSet() { release_heap(); }

  IntervalSet(const IntervalSet& o) { assign(o); }
  IntervalSet& operator=(const IntervalSet& o) {
    if (this != &o) {
      clear();
      assign(o);
    }
    return *this;
  }
  IntervalSet(IntervalSet&& o) noexcept { steal(std::move(o)); }
  IntervalSet& operator=(IntervalSet&& o) noexcept {
    if (this != &o) {
      release_heap();
      steal(std::move(o));
    }
    return *this;
  }

  /// Merge [start, end) into the set, coalescing overlapping and exactly
  /// abutting intervals. Returns the number of newly covered bytes (0 for
  /// duplicates and empty ranges).
  std::uint64_t add(std::uint64_t start, std::uint64_t end) {
    if (end <= start) return 0;
    // First interval whose end reaches start (merge candidate: overlap or
    // exact adjacency).
    std::uint32_t i = 0;
    while (i < size_ && data()[i].end < start) ++i;
    std::uint64_t newly = end - start;
    std::uint64_t lo = start, hi = end;
    std::uint32_t j = i;
    while (j < size_ && data()[j].start <= end) {
      const std::uint64_t olo = std::max(start, data()[j].start);
      const std::uint64_t ohi = std::min(end, data()[j].end);
      if (ohi > olo) newly -= ohi - olo;
      lo = std::min(lo, data()[j].start);
      hi = std::max(hi, data()[j].end);
      ++j;
    }
    if (j == i) {
      insert_at(i, {lo, hi});
    } else {
      data()[i] = {lo, hi};
      erase_range(i + 1, j);
    }
    bytes_ += newly;
    return newly;
  }

  /// Per-segment insert (see header comment): extend the interval with
  /// the exact same start, otherwise keep a separate entry even when
  /// ranges overlap. bytes() is NOT maintained in this mode (overlapping
  /// entries would double count); callers that need totals use add().
  void note_segment(std::uint64_t start, std::uint64_t end) {
    if (end <= start) return;
    std::uint32_t i = 0;
    while (i < size_ && data()[i].start < start) ++i;
    if (i < size_ && data()[i].start == start) {
      data()[i].end = std::max(data()[i].end, end);
      return;
    }
    insert_at(i, {start, end});
  }

  /// Drop coverage strictly below `lo`: whole intervals ending at/below it
  /// are removed, a straddler is trimmed to start at `lo`.
  void prune_below(std::uint64_t lo) {
    std::uint32_t n = 0;
    while (n < size_ && data()[n].end <= lo) {
      bytes_ -= data()[n].end - data()[n].start;
      ++n;
    }
    if (n > 0) erase_range(0, n);
    if (size_ > 0 && data()[0].start < lo) {
      bytes_ -= lo - data()[0].start;
      data()[0].start = lo;
    }
  }

  /// Remove the first interval (used by in-order delivery after merging).
  void pop_front() {
    if (size_ == 0) return;
    bytes_ -= data()[0].end - data()[0].start;
    erase_range(0, 1);
  }

  void clear() {
    size_ = 0;
    bytes_ = 0;
  }

  /// clear() plus give the heap spill back (flow returned to steady state).
  void release() {
    clear();
    release_heap();
  }

  bool empty() const { return size_ == 0; }
  std::uint32_t size() const { return size_; }
  /// Heap capacity currently held (0 = fully inline); tests assert the
  /// steady state stays inline.
  std::uint32_t heap_capacity() const {
    return data_ == inline_ ? 0 : capacity_;
  }

  /// Total covered bytes (valid for add()-maintained sets only).
  std::uint64_t bytes() const { return bytes_; }
  /// Highest covered sequence (end of the last interval; 0 when empty).
  std::uint64_t high() const { return size_ ? data()[size_ - 1].end : 0; }

  const Interval& front() const { return data()[0]; }
  const Interval& operator[](std::uint32_t i) const { return data()[i]; }
  const Interval* begin() const { return data(); }
  const Interval* end() const { return data() + size_; }

  /// Bytes of [lo, hi) covered by intervals in the set.
  std::uint64_t covered(std::uint64_t lo, std::uint64_t hi) const {
    std::uint64_t total = 0;
    for (std::uint32_t i = 0; i < size_; ++i) {
      const std::uint64_t olo = std::max(lo, data()[i].start);
      const std::uint64_t ohi = std::min(hi, data()[i].end);
      if (ohi > olo) total += ohi - olo;
    }
    return total;
  }

  /// First uncovered hole at/above `pos`: advances pos past any interval
  /// containing it and returns {hole_start, hole_end} where hole_end is
  /// the start of the next interval above (or high()). When no hole
  /// remains below high(), hole_start >= high().
  std::pair<std::uint64_t, std::uint64_t> hole_at_or_above(
      std::uint64_t pos) const {
    std::uint64_t hole_end = high();
    for (std::uint32_t i = 0; i < size_; ++i) {
      if (pos < data()[i].start) {
        hole_end = data()[i].start;
        break;
      }
      if (pos < data()[i].end) pos = data()[i].end;
    }
    return {pos, hole_end};
  }

 private:
  Interval* data() { return data_; }
  const Interval* data() const { return data_; }

  void insert_at(std::uint32_t i, Interval iv) {
    if (size_ == capacity_) grow();
    std::memmove(data_ + i + 1, data_ + i, (size_ - i) * sizeof(Interval));
    data_[i] = iv;
    ++size_;
  }

  void erase_range(std::uint32_t first, std::uint32_t last) {
    std::memmove(data_ + first, data_ + last,
                 (size_ - last) * sizeof(Interval));
    size_ -= last - first;
  }

  void grow() {
    const std::uint32_t cap = capacity_ * 2;
    // Runs on every loss episode for the receiver's `ooo` set (see the
    // header comment), the largest allocation source left on the
    // per-packet path.
    auto* heap = new Interval[cap];
    std::memcpy(heap, data_, size_ * sizeof(Interval));
    release_heap();
    data_ = heap;
    capacity_ = cap;
  }

  void release_heap() {
    if (data_ != inline_) {
      delete[] data_;
      data_ = inline_;
      capacity_ = kInline;
    }
  }

  void assign(const IntervalSet& o) {
    if (o.size_ > capacity_) {
      release_heap();
      data_ = new Interval[o.size_];
      capacity_ = o.size_;
    }
    std::memcpy(data_, o.data_, o.size_ * sizeof(Interval));
    size_ = o.size_;
    bytes_ = o.bytes_;
  }

  void steal(IntervalSet&& o) {
    if (o.data_ == o.inline_) {
      data_ = inline_;
      capacity_ = kInline;
      std::memcpy(inline_, o.inline_, o.size_ * sizeof(Interval));
    } else {
      data_ = o.data_;
      capacity_ = o.capacity_;
      o.data_ = o.inline_;
      o.capacity_ = kInline;
    }
    size_ = o.size_;
    bytes_ = o.bytes_;
    o.size_ = 0;
    o.bytes_ = 0;
  }

  Interval inline_[kInline];
  Interval* data_ = inline_;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = kInline;
  std::uint64_t bytes_ = 0;
};

}  // namespace qoesim::tcp
