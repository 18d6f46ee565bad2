// UniqueFunction: minimal type-erased move-only callable (the subset of
// C++23 std::move_only_function we need). Event callbacks capture move-only
// PacketPtr handles, which std::function cannot hold.
//
// Small-buffer optimised: a callable of at most kInlineBytes (and no
// stricter alignment than max_align_t, nothrow-movable) lives inside the
// object, so scheduling it allocates nothing. Every per-packet capture in
// the simulator fits; the largest, MdpDataPlane::dispatch's completion,
// is 40 B. Larger callables fall back to one heap allocation.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace mdp::sim {

template <typename Sig>
class UniqueFunction;

template <typename R, typename... Args>
class UniqueFunction<R(Args...)> {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  /// True iff a callable of type F is stored without a heap allocation.
  template <typename F>
  static constexpr bool stores_inline() noexcept {
    return sizeof(F) <= kInlineBytes &&
           alignof(F) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<F>;
  }

  UniqueFunction() = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, UniqueFunction>)
  UniqueFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (stores_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  UniqueFunction(UniqueFunction&& o) noexcept : ops_(o.ops_) {
    if (ops_) ops_->relocate(buf_, o.buf_);
    o.ops_ = nullptr;
  }
  UniqueFunction& operator=(UniqueFunction&& o) noexcept {
    if (this != &o) {
      reset();
      ops_ = o.ops_;
      if (ops_) ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
    return *this;
  }
  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;
  ~UniqueFunction() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... args) {
    return ops_->call(buf_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*call)(void* self, Args&&... args);
    /// Move-construct into `dst` from `src`, then destroy `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename F>
  static constexpr Ops kInlineOps{
      [](void* self, Args&&... args) -> R {
        return (*static_cast<F*>(self))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) F(std::move(*static_cast<F*>(src)));
        static_cast<F*>(src)->~F();
      },
      [](void* self) noexcept { static_cast<F*>(self)->~F(); },
  };

  template <typename F>
  static constexpr Ops kHeapOps{
      [](void* self, Args&&... args) -> R {
        return (**static_cast<F**>(self))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) F*(*static_cast<F**>(src));
      },
      [](void* self) noexcept { delete *static_cast<F**>(self); },
  };

  void reset() noexcept {
    if (ops_) {
      const Ops* ops = ops_;
      ops_ = nullptr;
      ops->destroy(buf_);
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace mdp::sim
