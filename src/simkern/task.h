// Copyright 2026 the pdblb authors. MIT license.
//
// Coroutine task type for the discrete-event simulation kernel.
//
// A `Task<T>` is a lazily-started coroutine.  Simulation processes are
// written as ordinary C++20 coroutines that `co_await` kernel awaitables
// (delays, resource acquisitions, channel receives) and other tasks:
//
//   Task<> QueryExecution(Scheduler& sched, ...) {
//     co_await sched.Delay(1.25);            // 25k instructions of BOT work
//     co_await disk.Read(page);              // FCFS disk queue
//     co_await SubOperation(...);            // nested task, runs inline
//   }
//
// Ownership rules:
//  * Awaiting a task (`co_await std::move(t)` or awaiting a temporary) keeps
//    the frame alive until completion; the Task destructor destroys it.
//  * `Scheduler::Spawn` detaches a task: the frame self-destroys at
//    completion.  Detached tasks must not be awaited.
//  * A detached TaskGroup member reports its end to the group when its
//    frame is destroyed, whether it completed or was cancelled.

#ifndef PDBLB_SIMKERN_TASK_H_
#define PDBLB_SIMKERN_TASK_H_

#include <algorithm>
#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <utility>
#include <vector>

namespace pdblb::sim {

template <typename T>
class Task;
class TaskGroup;

namespace internal {

/// TaskGroup::Finish for a member's end (~PromiseBase); out of line
/// (scheduler.cc) because task.h cannot see TaskGroup.
void FinishGroupMember(TaskGroup* group);

/// Size-bucketed free list recycling coroutine frames.  Simulations spawn
/// one short-lived coroutine per query/sub-operation, millions per run, in
/// a small set of frame sizes — so after warm-up every frame allocation is
/// a free-list pop instead of a malloc.  Frames above kMaxBytes (or odd
/// sizes) fall through to the global allocator.  Thread-local so parallel
/// sweep workers never contend; long-lived worker threads should call
/// TrimThreadCache() between simulations (the runner does) so a
/// heterogeneous grid doesn't pin every point's peak frame footprint until
/// thread exit.
class FrameArena {
 public:
  static void* Allocate(size_t size) {
    size_t cls = SizeClass(size);
    if (cls >= kNumClasses) return ::operator new(size);
    void*& head = Buckets()[cls];
    if (head != nullptr) {
      void* frame = head;
      head = *static_cast<void**>(frame);
      return frame;
    }
    return ::operator new((cls + 1) * kGranuleBytes);
  }

  static void Deallocate(void* frame, size_t size) {
    size_t cls = SizeClass(size);
    if (cls >= kNumClasses) {
      ::operator delete(frame);
      return;
    }
    void*& head = Buckets()[cls];
    *static_cast<void**>(frame) = head;
    head = frame;
  }

  /// Returns every recycled frame on this thread's free lists to the global
  /// allocator.  Only frames currently on the free lists are touched; live
  /// coroutine frames are unaffected, and the arena refills lazily on the
  /// next simulation.  Call between independent simulations on long-lived
  /// worker threads.
  static void TrimThreadCache() {
    void** buckets = Buckets();
    for (size_t cls = 0; cls < kNumClasses; ++cls) {
      void* head = buckets[cls];
      while (head != nullptr) {
        void* next = *static_cast<void**>(head);
        ::operator delete(head);
        head = next;
      }
      buckets[cls] = nullptr;
    }
  }

 private:
  static constexpr size_t kGranuleBytes = 64;
  static constexpr size_t kMaxBytes = 4096;
  static constexpr size_t kNumClasses = kMaxBytes / kGranuleBytes;

  static size_t SizeClass(size_t size) {
    return (size + kGranuleBytes - 1) / kGranuleBytes - 1;
  }
  static void** Buckets() {
    static thread_local void* buckets[kNumClasses] = {};
    return buckets;
  }
};

struct PromiseBase;

/// Registry of detached (Spawn'ed) coroutine frames still in flight, owned
/// by the Scheduler.  A detached frame self-destroys on completion; before
/// this registry existed, frames still *suspended* when the scheduler was
/// torn down (queries parked in admission/lock queues when a measurement
/// window ends) were unreachable and intentionally leaked.  Now every
/// detached root registers here at Spawn time and unregisters from
/// ~PromiseBase — which fires both on normal self-destruction and on
/// DestroyAll() — so `~Scheduler` can destroy every suspended process
/// instead of stranding it.  Only detached *roots* register: frames a
/// parent awaits are owned (and destroyed) through the parent's Task
/// locals, recursively.
class DetachedRegistry {
 public:
  ~DetachedRegistry() { assert(frames_.empty() && "call DestroyAll() first"); }

  /// `group` (may be null) makes the frame a member of that TaskGroup: its
  /// end reports to the group, and FindOldestInGroup finds it.
  inline void Register(std::coroutine_handle<> handle, PromiseBase* promise,
                       uint64_t id, TaskGroup* group);

  /// Removes the frame at `index` and returns the group it was spawned
  /// into, or null.  Null for every frame once DestroyAll has begun: at
  /// scheduler teardown the group may already be gone.
  TaskGroup* Unregister(uint32_t index) {
    TaskGroup* group = destroying_ ? nullptr : frames_[index].group;
    frames_[index] = frames_.back();
    if (index < frames_.size() - 1) Reindex(frames_[index], index);
    frames_.pop_back();
    return group;
  }

  /// Looks up a still-in-flight frame by its spawn id (Scheduler::Cancel).
  /// Ids are never reused, so a finished frame's id simply misses.  Linear
  /// scan: cancellation is rare and the registry holds only in-flight
  /// roots, so an index structure would cost the hot Spawn path more than
  /// it could ever save here.
  std::coroutine_handle<> FindById(uint64_t id) const {
    for (const Entry& e : frames_) {
      if (e.id == id) return e.handle;
    }
    return nullptr;
  }

  /// The earliest-spawned in-flight member of `group`, or null
  /// (Scheduler::CancelOwned).  Linear scan, like FindById.
  std::coroutine_handle<> FindOldestInGroup(const TaskGroup* group) const {
    const Entry* oldest = nullptr;
    for (const Entry& e : frames_) {
      if (e.group == group && (oldest == nullptr || e.id < oldest->id)) {
        oldest = &e;
      }
    }
    return oldest != nullptr ? oldest->handle : nullptr;
  }

  /// Restores spawn order, oldest first (Scheduler::CancelAll).  Frames
  /// register in spawn order, but Unregister's swap moves the back frame
  /// into each hole.  In place: std::sort allocates nothing.
  void SortBySpawnId() {
    std::sort(frames_.begin(), frames_.end(),
              [](const Entry& a, const Entry& b) { return a.id < b.id; });
    for (uint32_t i = 0; i < frames_.size(); ++i) Reindex(frames_[i], i);
  }

  /// The frame at the back of the registry, or null (Scheduler::CancelAll):
  /// after SortBySpawnId, the newest.  Also starts loading the frame below
  /// it, which CancelAll destroys next: a parked frame is cold, and
  /// destroying one is a chain of misses into it.
  std::coroutine_handle<> Back() const {
    const size_t n = frames_.size();
    if (n >= 2) {
      const auto* next =
          static_cast<const char*>(frames_[n - 2].handle.address());
      for (int line = 0; line < 4; ++line) __builtin_prefetch(next + 64 * line);
    }
    return n == 0 ? nullptr : frames_.back().handle;
  }

  /// Destroys every registered frame (most recently spawned first).  Each
  /// destruction runs the frame's local destructors — which may destroy
  /// owned (non-detached) child frames, but never another *registered*
  /// frame: detaching releases ownership, so no local can own one — and
  /// unregisters itself via ~PromiseBase, keeping the loop O(n).  No
  /// member reports to its group from here on (see Unregister).
  void DestroyAll() {
    destroying_ = true;
    while (!frames_.empty()) frames_.back().handle.destroy();
  }

  /// Detached frames currently in flight (diagnostics/tests).
  size_t size() const { return frames_.size(); }

 private:
  struct Entry {
    std::coroutine_handle<> handle;
    PromiseBase* promise;
    uint64_t id;
    TaskGroup* group;
  };
  inline static void Reindex(const Entry& entry, uint32_t index);

  std::vector<Entry> frames_;
  bool destroying_ = false;
};

/// Promise behaviour shared by Task<T> and Task<void>.
struct PromiseBase {
  void* operator new(size_t size) { return FrameArena::Allocate(size); }
  void operator delete(void* frame, size_t size) {
    FrameArena::Deallocate(frame, size);
  }

  // A group member ends for its group however it ends: at its final
  // suspend, or destroyed mid-suspension by Scheduler::Cancel or by its
  // group's destructor.  The group hears of it as the frame goes away,
  // after the frame's locals have released what they held.
  ~PromiseBase() {
    if (registry != nullptr) {
      if (TaskGroup* group = registry->Unregister(registry_index)) {
        FinishGroupMember(group);
      }
    }
  }

  std::coroutine_handle<> continuation;
  std::exception_ptr exception;
  DetachedRegistry* registry = nullptr;
  uint32_t registry_index = 0;
  bool detached = false;

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      PromiseBase& p = h.promise();
      std::coroutine_handle<> next =
          p.continuation ? p.continuation : std::noop_coroutine();
      if (p.detached) {
        // Detached frames own themselves; nobody will destroy them later.
        // A group member reports its end from ~PromiseBase.
        h.destroy();
      }
      return next;
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  // An awaited frame keeps the exception for its parent (Task::await_resume
  // rethrows it).  A detached frame has no parent: the exception leaves the
  // resume, and so Scheduler::Run/RunUntil, and the frame stays parked at
  // its final suspend point, still registered, until ~Scheduler destroys it.
  void unhandled_exception() {
    if (detached) throw;
    exception = std::current_exception();
  }
};

inline void DetachedRegistry::Register(std::coroutine_handle<> handle,
                                       PromiseBase* promise, uint64_t id,
                                       TaskGroup* group) {
  assert(promise->detached && "only detached frames register");
  promise->registry = this;
  promise->registry_index = static_cast<uint32_t>(frames_.size());
  frames_.push_back(Entry{handle, promise, id, group});
}

inline void DetachedRegistry::Reindex(const Entry& entry, uint32_t index) {
  entry.promise->registry_index = index;
}

}  // namespace internal

/// Releases the calling thread's recycled coroutine-frame free lists back
/// to the global allocator (see FrameArena::TrimThreadCache).  Sweep
/// workers call this after each completed simulation point.
inline void TrimFrameArenaThreadCache() {
  internal::FrameArena::TrimThreadCache();
}

/// A lazily-started simulation coroutine returning T.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : internal::PromiseBase {
    std::optional<T> value;
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value = std::move(v); }
  };
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      if (handle_) handle_.destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (handle_) handle_.destroy();
  }

  bool valid() const { return static_cast<bool>(handle_); }

  /// Releases ownership of the frame and marks it self-destroying.
  /// Used by Scheduler::Spawn.
  Handle Detach() {
    assert(handle_);
    handle_.promise().detached = true;
    return std::exchange(handle_, {});
  }

  // --- awaitable interface ------------------------------------------------
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiting) {
    assert(handle_ && !handle_.promise().detached);
    handle_.promise().continuation = awaiting;
    return handle_;  // symmetric transfer: start the child immediately
  }
  T await_resume() {
    auto& p = handle_.promise();
    if (p.exception) std::rethrow_exception(p.exception);
    assert(p.value.has_value());
    return std::move(*p.value);
  }

 private:
  Handle handle_;
};

/// Specialization for void-returning simulation processes.
template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : internal::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
  };
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      if (handle_) handle_.destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() {
    if (handle_) handle_.destroy();
  }

  bool valid() const { return static_cast<bool>(handle_); }

  Handle Detach() {
    assert(handle_);
    handle_.promise().detached = true;
    return std::exchange(handle_, {});
  }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiting) {
    assert(handle_ && !handle_.promise().detached);
    handle_.promise().continuation = awaiting;
    return handle_;
  }
  void await_resume() {
    auto& p = handle_.promise();
    if (p.exception) std::rethrow_exception(p.exception);
  }

 private:
  Handle handle_;
};

}  // namespace pdblb::sim

#endif  // PDBLB_SIMKERN_TASK_H_
