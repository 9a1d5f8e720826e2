#pragma once
// Small-buffer move-only callable: the event arena's Action type.
//
// The discrete-event engine stores one callback per event slot. With
// std::function every schedule_at() risked a heap allocation and carried
// copy-ability machinery no caller uses. InplaceAction keeps the capture
// block inline in the slot for the common sizes (the fault injector's
// timeline events, test and bench thunks — all within 64 bytes) and falls
// back to a single heap cell for oversized captures. Move-only by design: events are
// scheduled once and executed once.

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/contracts.hpp"

namespace mkos::sim {

class InplaceAction {
 public:
  /// Sized to hold the fault injector's `[this, FaultEvent]` closure
  /// (40 bytes) without spilling, with headroom for small test and bench
  /// thunks.
  static constexpr std::size_t kInlineBytes = 64;

  InplaceAction() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): mirrors std::function.
  InplaceAction(std::nullptr_t) {}

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InplaceAction> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): mirrors std::function.
  InplaceAction(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  InplaceAction(InplaceAction&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.buf_, buf_);
      other.ops_ = nullptr;
    }
  }

  InplaceAction& operator=(InplaceAction&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.buf_, buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InplaceAction& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  InplaceAction(const InplaceAction&) = delete;
  InplaceAction& operator=(const InplaceAction&) = delete;

  ~InplaceAction() { reset(); }

  void operator()() {
    MKOS_EXPECTS(ops_ != nullptr);
    ops_->invoke(buf_);
  }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-construct the payload into `dst`, then destroy it in `self`.
    void (*relocate)(void* self, void* dst) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* self) { (*static_cast<D*>(self))(); },
      [](void* self, void* dst) noexcept {
        ::new (dst) D(std::move(*static_cast<D*>(self)));
        static_cast<D*>(self)->~D();
      },
      [](void* self) noexcept { static_cast<D*>(self)->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* self) { (**static_cast<D**>(self))(); },
      [](void* self, void* dst) noexcept {
        ::new (dst) D*(*static_cast<D**>(self));
      },
      [](void* self) noexcept { delete *static_cast<D**>(self); },
  };

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace mkos::sim
