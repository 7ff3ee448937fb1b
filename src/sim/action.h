// Slab cell for simulator events whose callable does not fit inline.
//
// EventQueue stores a trivially copyable capture of at most 8 bytes (a
// coroutine handle, an awaiter pointer, nothing at all) inside the event
// itself. Anything larger — a timer's `[this, idx, gen]`, a recorder tick, a
// fault-window edge — lives in a SmallAction cell of the queue's slab, which
// is recycled through a free list and never moves. Captures up to
// kInlineSize bytes are constructed inside the cell (no allocation);
// oversized captures fall back to a heap box, counted in alloc_stats (and
// expected to be rare enough that the count is a red flag).
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/pool.h"

namespace serve::sim {

class SmallAction {
 public:
  /// Inline capture capacity. Sized so a slab cell (action + owner + free
  /// link) fills one 64-byte cache line.
  static constexpr std::size_t kInlineSize = 40;

  SmallAction() noexcept = default;
  SmallAction(const SmallAction&) = delete;
  SmallAction& operator=(const SmallAction&) = delete;
  ~SmallAction() { reset(); }

  /// Stores `f`; the action must be empty.
  template <typename F>
  void emplace(F&& f) {
    using Fn = std::remove_cvref_t<F>;
    static_assert(std::is_invocable_v<Fn&>, "SmallAction needs a callable taking no arguments");
    assert(vt_ == nullptr);
    if constexpr (sizeof(Fn) <= kInlineSize && alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vt_ = &kInlineVTable<Fn>;
    } else {
      ++alloc_stats().action_heap_allocs;
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      vt_ = &kBoxedVTable<Fn>;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept { return vt_ != nullptr; }

  void operator()() {
    assert(vt_ != nullptr);
    vt_->invoke(buf_);
  }

  /// Destroys the stored callable (if any); the action is empty afterwards.
  void reset() noexcept {
    if (vt_ != nullptr && vt_->destroy != nullptr) vt_->destroy(buf_);
    vt_ = nullptr;
  }

 private:
  struct VTable {
    void (*invoke)(void* self);
    void (*destroy)(void* self) noexcept;  ///< nullptr: trivially destructible
  };

  template <typename Fn>
  static Fn& stored(void* self) noexcept {
    return *std::launder(static_cast<Fn*>(self));
  }

  template <typename Fn>
  static constexpr VTable kInlineVTable{
      [](void* self) { stored<Fn>(self)(); },
      std::is_trivially_destructible_v<Fn>
          ? nullptr
          : +[](void* self) noexcept { stored<Fn>(self).~Fn(); },
  };

  template <typename Fn>
  static constexpr VTable kBoxedVTable{
      [](void* self) { (*stored<Fn*>(self))(); },
      [](void* self) noexcept { delete stored<Fn*>(self); },
  };

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const VTable* vt_ = nullptr;
};

}  // namespace serve::sim
