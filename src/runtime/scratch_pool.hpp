// scratch_pool.hpp — reusable per-thread / checkout-pooled scratch state.
//
// Hot loops (one BFS per routed target, one ball per contact sample) must not
// pay a heap allocation per call. The pattern used across the library is a
// *workspace*: an object owning grow-only buffers that are prepared in O(1)
// and reused for the lifetime of the thread. Two mechanisms, one header:
//
//   * thread_scratch<T>() — the per-worker-thread singleton. Each OS thread
//     (pool workers included) lazily constructs one T and keeps it until
//     thread exit. This is the production path for BfsWorkspace: calls from
//     nav::parallel_for bodies hit their thread's private instance with zero
//     synchronisation. Bodies run on the calling thread as well as on pool
//     workers, so never hold a thread_scratch<T>() reference across a
//     parallel_for whose body uses the same T.
//
//   * ScratchPool<T> — an explicit checkout pool for code that must not key
//     scratch on thread identity (objects handed across service threads, or
//     bounded-memory scenarios where per-thread pinning is too hungry).
//     acquire() returns a RAII Lease; destruction returns the instance for
//     reuse. Steady state performs no allocation: instances recycle.
//
// T must be default-constructible. Neither mechanism ever shrinks a scratch
// instance — workspaces grow to the largest problem seen and stay there,
// which is exactly the amortised-zero-allocation contract callers want.
#pragma once

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace nav {

/// The calling thread's lazily-constructed scratch singleton of type T.
/// Distinct T's get distinct singletons; distinct threads never share one.
template <typename T>
[[nodiscard]] T& thread_scratch() {
  thread_local T instance;
  return instance;
}

/// A mutex-protected free list of T instances. acquire() pops a recycled
/// instance (or default-constructs the first time); the Lease returns it on
/// destruction. The pool may be destroyed while leases are outstanding —
/// leases co-own the free list, so returns after pool death are safe (the
/// instance is simply dropped with the list).
template <typename T>
class ScratchPool {
 public:
  /// RAII checkout: dereference for the instance; returns it to the pool on
  /// destruction. Movable, not copyable.
  class Lease {
   public:
    Lease(Lease&&) noexcept = default;
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        release();  // the held instance goes back, never gets destroyed
        shared_ = std::move(other.shared_);
        instance_ = std::move(other.instance_);
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    ~Lease() { release(); }

    [[nodiscard]] T& operator*() const noexcept { return *instance_; }
    [[nodiscard]] T* operator->() const noexcept { return instance_.get(); }

   private:
    friend class ScratchPool;
    Lease(std::shared_ptr<typename ScratchPool::Shared> shared,
          std::unique_ptr<T> instance)
        : shared_(std::move(shared)), instance_(std::move(instance)) {}

    void release() noexcept {
      if (instance_ == nullptr) return;  // moved-from or already returned
      std::lock_guard lock(shared_->mutex);
      shared_->free.push_back(std::move(instance_));
    }

    std::shared_ptr<typename ScratchPool::Shared> shared_;
    std::unique_ptr<T> instance_;
  };

  /// Checks out an instance: recycled when available, fresh otherwise.
  [[nodiscard]] Lease acquire() {
    std::unique_ptr<T> instance;
    {
      std::lock_guard lock(shared_->mutex);
      if (!shared_->free.empty()) {
        instance = std::move(shared_->free.back());
        shared_->free.pop_back();
      }
    }
    if (instance == nullptr) instance = std::make_unique<T>();
    return Lease(shared_, std::move(instance));
  }

  /// Instances currently waiting for reuse (diagnostics / tests).
  [[nodiscard]] std::size_t idle() const {
    std::lock_guard lock(shared_->mutex);
    return shared_->free.size();
  }

 private:
  struct Shared {
    mutable std::mutex mutex;
    std::vector<std::unique_ptr<T>> free;
  };
  std::shared_ptr<Shared> shared_ = std::make_shared<Shared>();
};

}  // namespace nav
