// qoebench -- in-memory span recorder for the traced run.
//
// A span is {name, parent, start, end} on the steady clock, recorded by the
// benchmark around its own calls into the simulator's public functions.
// Spans stay in memory until the run ends; run.py derives self time (a
// span's duration minus the part its children cover). A disabled Trace
// records nothing, so the same code path serves untraced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace qoebench {

class Trace {
 public:
  struct Span {
    const char* name = "";
    std::int32_t parent = -1;  ///< index into spans(), -1 = root
    std::int32_t round = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  explicit Trace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_round(std::int32_t round) { round_ = round; }

  /// Open a span as a child of the innermost open one; returns its id
  /// (-1 when disabled). `name` must have static storage duration.
  std::int32_t open(const char* name) {
    if (!enabled_) return -1;
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({name, current_, round_, now_ns(), 0});
    current_ = id;
    return id;
  }

  void close(std::int32_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool enabled_;
  std::int32_t round_ = 0;
  std::int32_t current_ = -1;
  std::vector<Span> spans_;
};

/// Closes its span when the scope ends.
class ScopedSpan {
 public:
  ScopedSpan(Trace& trace, const char* name)
      : trace_(trace), id_(trace.open(name)) {}
  ~ScopedSpan() { trace_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Trace& trace_;
  std::int32_t id_;
};

}  // namespace qoebench
