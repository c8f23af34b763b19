// Non-allocating replacement for std::function<void()> on the event hot
// path.
//
// Scheduling 4-6 events per node per sampling period through
// std::function means a heap allocation whenever a capture outgrows the
// implementation's small-object buffer (16 bytes in libstdc++) — the
// gateway's reception captures did exactly that on every uplink. An
// InlineCallback stores the callable in a fixed 48-byte inline buffer and
// refuses (at compile time) anything bigger, so the engine's schedule /
// fire / cancel cycle never touches the heap. Callers with genuinely large
// state park it elsewhere (a pooled slot, a member) and capture a pointer
// or an index; see net/gateway.cpp for the pattern.
//
// Move-only: the queue is the sole owner of a pending callback, and
// captured state (handles, frames) is usually not copyable anyway. Assigning
// nullptr destroys the captured state eagerly — EventQueue::cancel relies on
// that to release resources before the stale queue entry drains.
//
// Capture `this` first. EventQueue::pop prefetches the object an upcoming
// event will touch, and the only thing it knows about that object is
// prefetch_target(): the first captured word. A lambda `[this] {...}` or
// `[this, slot] {...}` stores `this` there, so the hint lands on the Node,
// Gateway or NetworkServer the callback runs on. The word only ever reaches
// __builtin_prefetch, never a dereference, so a callable that captures
// something else first is still correct; its hint is just wasted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace blam {

class InlineCallback {
 public:
  /// Inline capture budget. Big enough for a handful of pointers plus a
  /// small payload; small enough that the event queue's slot array stays
  /// cache-friendly.
  static constexpr std::size_t kCaptureBytes = 48;

  InlineCallback() = default;
  InlineCallback(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, InlineCallback> &&
                !std::is_same_v<std::remove_cvref_t<F>, std::nullptr_t>>>
  InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>, "callable must be invocable as void()");
    static_assert(sizeof(Fn) <= kCaptureBytes,
                  "capture exceeds the inline budget: park the state in a pooled slot "
                  "and capture an index (see net/gateway.cpp)");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned captures are not supported");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "captures must be nothrow-movable (the queue relocates slots)");
    if constexpr (sizeof(Fn) < sizeof(void*)) {
      // No pointer-sized first capture: make the prefetch hint null.
      __builtin_memset(storage_, 0, sizeof(void*));
    }
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    invoke_ = [](void* s) { (*static_cast<Fn*>(s))(); };
    if constexpr (std::is_trivially_destructible_v<Fn> &&
                  std::is_trivially_copyable_v<Fn>) {
      manage_ = nullptr;  // raw byte copy moves it; nothing to destroy
    } else {
      manage_ = [](Action action, void* self, void* other) {
        auto* fn = static_cast<Fn*>(self);
        if (action == Action::kMoveTo) {
          ::new (other) Fn(std::move(*fn));
        }
        fn->~Fn();
      };
    }
  }

  InlineCallback(InlineCallback&& other) noexcept { move_from(other); }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  /// Destroys the captured state (eager release; see EventQueue::cancel).
  InlineCallback& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  explicit operator bool() const { return invoke_ != nullptr; }

  void operator()() { invoke_(storage_); }

  /// The first captured word (the object a capture-`this`-first lambda runs
  /// on), or nullptr when empty. A prefetch hint only: never dereference it.
  [[nodiscard]] const void* prefetch_target() const {
    if (invoke_ == nullptr) return nullptr;
    const void* target;
    __builtin_memcpy(&target, storage_, sizeof target);
    return target;
  }

 private:
  enum class Action : std::uint8_t { kMoveTo, kDestroy };

  void reset() {
    if (invoke_ == nullptr) return;
    if (manage_ != nullptr) manage_(Action::kDestroy, storage_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  void move_from(InlineCallback& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (invoke_ != nullptr) {
      if (manage_ != nullptr) {
        manage_(Action::kMoveTo, other.storage_, storage_);
      } else {
        __builtin_memcpy(storage_, other.storage_, kCaptureBytes);
      }
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kCaptureBytes];
  void (*invoke_)(void*) = nullptr;
  void (*manage_)(Action, void*, void*) = nullptr;
};

}  // namespace blam
