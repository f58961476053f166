// qoesim -- small-buffer callback.
//
// SmallFunction<R(Args...)> is a move-only replacement for std::function
// used on the simulator's hot paths (the event scheduler, the node demux
// plane). Callables whose captures fit in the inline buffer (48 bytes,
// enough for a handful of pointers or a shared_ptr plus a deadline) are
// stored in place, so storing or moving one performs no heap allocation.
// Larger callables transparently fall back to a single heap allocation.
// Inline callables that are trivially copyable (the common `[this, id]`
// capture), and the pointer of heap-stored ones, move with one fixed-size
// memcpy; trivially copyable callables are also dropped without any call.
//
// SmallCallback is the scheduler's void() instantiation.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace qoesim {

template <typename Signature>
class SmallFunction;

template <typename R, typename... Args>
class SmallFunction<R(Args...)> {
 public:
  /// Captures up to this many bytes are stored inline (no allocation).
  static constexpr std::size_t kInlineCapacity = 48;

  SmallFunction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = inline_ops<Fn>();
    } else {
      // Placement-new the Fn* itself so a pointer object formally lives
      // in the buffer (plain reinterpret_cast stores would be UB under
      // the C++ object-lifetime rules).
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = heap_ops<Fn>();
    }
  }

  SmallFunction(SmallFunction&& other) noexcept { move_from(other); }
  SmallFunction& operator=(SmallFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  SmallFunction(const SmallFunction&) = delete;
  SmallFunction& operator=(const SmallFunction&) = delete;
  ~SmallFunction() { reset(); }

  /// Destroy the held callable (and free its heap storage, if any).
  void reset() {
    if (ops_) {
      if (ops_->destroy != nullptr) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const { return ops_ != nullptr; }

  /// Invoke. Precondition: holds a callable (like std::function, calling an
  /// empty SmallFunction is undefined; the scheduler never does).
  R operator()(Args... args) {
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

 private:
  // A null move means the buffer bytes relocate the callable (move_from
  // copies them); a null destroy means there is nothing to destroy.
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    void (*move)(void* dst, void* src);  // relocate; src left destroyed
    void (*destroy)(void* storage);
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineCapacity &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  // launder: an object placement-newed into a char buffer is not
  // pointer-interconvertible with it, so every access goes through these.
  template <typename Fn>
  static Fn* inline_ptr(void* s) {
    return std::launder(reinterpret_cast<Fn*>(s));
  }

  template <typename Fn>
  static const Ops* inline_ops() {
    constexpr auto invoke = [](void* s, Args&&... args) -> R {
      return (*inline_ptr<Fn>(s))(std::forward<Args>(args)...);
    };
    if constexpr (std::is_trivially_copyable_v<Fn>) {
      static constexpr Ops ops = {invoke, nullptr, nullptr};
      return &ops;
    } else {
      static constexpr Ops ops = {
          invoke,
          [](void* dst, void* src) {
            Fn* from = inline_ptr<Fn>(src);
            ::new (dst) Fn(std::move(*from));
            from->~Fn();
          },
          [](void* s) { inline_ptr<Fn>(s)->~Fn(); },
      };
      return &ops;
    }
  }

  template <typename Fn>
  static Fn* heap_ptr(void* s) {
    return *std::launder(reinterpret_cast<Fn**>(s));  // see inline_ptr
  }

  template <typename Fn>
  static const Ops* heap_ops() {
    static constexpr Ops ops = {
        [](void* s, Args&&... args) -> R {
          return (*heap_ptr<Fn>(s))(std::forward<Args>(args)...);
        },
        nullptr,  // the Fn* relocates by memcpy
        [](void* s) { delete heap_ptr<Fn>(s); },
    };
    return &ops;
  }

  void move_from(SmallFunction& other) {
    ops_ = other.ops_;
    if (ops_) {
      if (ops_->move != nullptr) {
        ops_->move(storage_, other.storage_);
      } else {
        // A trivially copyable callable (or the Fn* of a heap-stored one):
        // copying the bytes relocates it and implicitly creates it here.
        std::memcpy(storage_, other.storage_, kInlineCapacity);
      }
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

/// The event scheduler's callback type (see sim/event.hpp).
using SmallCallback = SmallFunction<void()>;

}  // namespace qoesim
