// Move-only type-erased callable for stream command queues.
//
// std::function requires copyable captures, which forced the engine to
// wrap move-only resources (PageCache::Pin leases, staging buffers) in
// shared_ptr just to enqueue them -- one heap allocation per streamed
// page. Task erases any `void()` callable while only requiring move
// construction, and keeps small callables (up to kInlineSize bytes) in
// inline storage so the common enqueue path allocates nothing.
// std::move_only_function would do the same but is C++23; this repo
// builds as C++20.
#ifndef GTS_GPU_TASK_H_
#define GTS_GPU_TASK_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace gts {
namespace gpu {

/// A move-only `void()` callable with small-buffer optimisation.
class Task {
 public:
  /// Captures up to this many bytes live inline (no heap allocation).
  /// Sized for the engine's kernel-launch closures: a dozen pointers and
  /// scalars fit comfortably.
  static constexpr std::size_t kInlineSize = 256;

  Task() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Task> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Task(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      vtable_ = &InlineOps<Fn>::kVTable;
    } else {
      heap_ = new Fn(std::forward<F>(fn));
      vtable_ = &HeapOps<Fn>::kVTable;
    }
  }

  Task(Task&& other) noexcept
      : heap_(other.heap_), vtable_(other.vtable_) {
    if (vtable_ != nullptr && heap_ == nullptr) {
      vtable_->relocate(storage_, other.storage_);
    }
    other.heap_ = nullptr;
    other.vtable_ = nullptr;
  }

  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Reset();
      heap_ = other.heap_;
      vtable_ = other.vtable_;
      if (vtable_ != nullptr && heap_ == nullptr) {
        vtable_->relocate(storage_, other.storage_);
      }
      other.heap_ = nullptr;
      other.vtable_ = nullptr;
    }
    return *this;
  }

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  ~Task() { Reset(); }

  /// Destroys the held callable (releasing its captures), leaving the
  /// task empty. Idempotent.
  void Reset() {
    if (vtable_ != nullptr) {
      vtable_->destroy(target());
      vtable_ = nullptr;
      heap_ = nullptr;
    }
  }

  explicit operator bool() const { return vtable_ != nullptr; }

  void operator()() { vtable_->invoke(target()); }

 private:
  struct VTable {
    void (*invoke)(void*);
    /// Move-constructs the callable at `dst` from `src`, then destroys
    /// the source. Only used for inline storage; heap callables move by
    /// pointer.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename Fn>
  struct InlineOps {
    static void Invoke(void* p) { (*static_cast<Fn*>(p))(); }
    static void Relocate(void* dst, void* src) {
      Fn* from = static_cast<Fn*>(src);
      ::new (dst) Fn(std::move(*from));
      from->~Fn();
    }
    static void Destroy(void* p) { static_cast<Fn*>(p)->~Fn(); }
    static constexpr VTable kVTable{&Invoke, &Relocate, &Destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static void Invoke(void* p) { (*static_cast<Fn*>(p))(); }
    static void Relocate(void*, void*) {}  // ownership moves via heap_
    static void Destroy(void* p) { delete static_cast<Fn*>(p); }
    static constexpr VTable kVTable{&Invoke, &Relocate, &Destroy};
  };

  void* target() { return heap_ != nullptr ? heap_ : storage_; }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  void* heap_ = nullptr;
  const VTable* vtable_ = nullptr;
};

}  // namespace gpu
}  // namespace gts

#endif  // GTS_GPU_TASK_H_
