// Copyright 2026 the pdblb authors. MIT license.
//
// FCFS multi-server resource, the workhorse of the queueing model: CPUs,
// disks and disk controllers are all Resources.  Tracks busy-time integrals
// for utilization reporting (the control node's periodic load snapshots) and
// queueing statistics.

#ifndef PDBLB_SIMKERN_RESOURCE_H_
#define PDBLB_SIMKERN_RESOURCE_H_

#include <algorithm>
#include <cassert>
#include <coroutine>
#include <string>

#include "common/units.h"
#include "simkern/ring.h"
#include "simkern/scheduler.h"
#include "simkern/task.h"

namespace pdblb::sim {

/// A k-server FCFS queueing station.
///
/// Processes either bracket their own service interval:
///
///   co_await res.Acquire();
///   co_await sched.Delay(service_time);
///   res.Release();
///
/// or use the frameless form `co_await res.Use(service_time)`, which is the
/// hot path: it suspends the caller directly on the resource's wait queue
/// (no coroutine frame), and a release hands the freed server to the next
/// waiter inline — the grant bookkeeping happens synchronously inside
/// Release(), and the only calendar event per acquisition is the waiter's
/// resume at its end-of-service time.  A contended acquisition therefore
/// costs one event instead of the two (grant wake-up + service delay) the
/// coroutine-based Use() used to pay.
class Resource {
 public:
  /// `tag` attributes this station's end-of-service and grant wake-ups in
  /// event traces (default: kKernel — callers that model a real subsystem
  /// pass e.g. TraceTag(TraceSubsystem::kCpu, pe_id)).
  Resource(Scheduler& sched, int servers, std::string name = "",
           TraceTag tag = {});
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  /// FCFS acquisition of one server.  The caller brackets its own service
  /// interval and must call Release() when done.
  auto Acquire() {
    struct Awaiter {
      Resource* res;
      // Stored directly (not reached through `res`): at scheduler teardown
      // the resource may already be destroyed, and the teardown check must
      // not touch it.
      Scheduler* sched;
      // Set while suspended so the destructor can undo a pending wait when
      // the frame is destroyed mid-suspension (Scheduler::Cancel cascade).
      // A synchronous grant (await_ready) never sets it: the caller then
      // owns the server and its own cleanup must Release().
      std::coroutine_handle<> pending = nullptr;
      bool await_ready() {
        if (res->free_ > 0) {
          res->Grant();
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        pending = h;
        res->Enqueue(h, kAcquireSentinel);
      }
      // Woken waiters were granted a server by Release().
      void await_resume() noexcept { pending = nullptr; }
      ~Awaiter() {
        if (pending && !sched->tearing_down()) res->CancelWaiter(pending);
      }
    };
    return Awaiter{this, &sched_};
  }

  /// Releases one server and hands it to the longest-waiting process.
  void Release();

  /// Frameless Acquire + Delay(duration) + Release.  `co_await res.Use(d)`
  /// suspends the caller exactly once — until its service interval ends —
  /// and performs the release on resumption.
  auto Use(SimTime duration) {
    struct Awaiter {
      Resource* res;
      // See Acquire(): teardown check must not reach through `res`.
      Scheduler* sched;
      SimTime service;
      std::coroutine_handle<> pending = nullptr;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        pending = h;
        res->StartService(h, service);
      }
      // Resumed at end of service (the releasing side scheduled us at
      // grant time + service).  Free the server and hand off.
      void await_resume() {
        pending = nullptr;
        res->Release();
      }
      ~Awaiter() {
        if (pending && !sched->tearing_down()) res->CancelWaiter(pending);
      }
    };
    assert(duration >= 0.0);
    return Awaiter{this, &sched_, duration};
  }

  // --- the steps of Use() ---------------------------------------------------
  // Use()'s awaiter and the reusable sim::Leg run a service through these
  // calls: StartService when the caller suspends, Release when it resumes,
  // CancelWaiter when its frame is destroyed mid-service.

  /// Starts `h`'s service of `service` ms.  With a server free, the
  /// service interval starts now and `h` resumes when it ends; otherwise
  /// `h` queues FCFS, and the Release() that grants it a server schedules
  /// its resume at grant time + `service`.
  void StartService(std::coroutine_handle<> h, SimTime service) {
    if (free_ > 0) {
      Grant();
      sched_.ScheduleHandle(sched_.Now() + service, h, tag_);
    } else {
      Enqueue(h, service);
    }
  }

  /// Undoes a suspended waiter whose frame is being destroyed mid-wait:
  /// still-queued entries are erased; already-granted ones (wake pending in
  /// the calendar) are scrubbed and their server released back.
  void CancelWaiter(std::coroutine_handle<> h);

  int servers() const { return servers_; }
  int busy() const { return servers_ - free_; }
  size_t queue_length() const { return waiters_.size(); }
  size_t max_queue_length() const { return max_queue_; }
  const std::string& name() const { return name_; }

  /// Busy server-milliseconds accumulated since construction.  Utilization
  /// over a window is (delta busy integral) / (servers * window).
  double BusyIntegral() const;

  /// Completed acquisitions since the last ResetStats (or construction).
  uint64_t completed() const { return completed_; }

  /// Restarts the completion count and the queue-length maximum (e.g.
  /// after warm-up).  The busy integral keeps running.
  void ResetStats();

 private:
  // A waiter is either a Use() suspension carrying its service time, or an
  // Acquire() suspension marked by the sentinel (it brackets its own
  // service interval and must wake at the grant timestamp).
  static constexpr SimTime kAcquireSentinel = -1.0;
  struct Waiter {
    std::coroutine_handle<> handle;
    SimTime service;
  };

  void Enqueue(std::coroutine_handle<> h, SimTime service) {
    waiters_.push_back(Waiter{h, service});
    max_queue_ = std::max(max_queue_, waiters_.size());
  }

  void Grant();           // free_--, update integral
  void AccumulateBusy();  // fold busy time up to Now() into the integral

  Scheduler& sched_;
  std::string name_;
  TraceTag tag_;
  int servers_;
  int free_;
  RingBuffer<Waiter> waiters_;
  size_t max_queue_ = 0;

  double busy_integral_ = 0.0;
  SimTime last_change_ = 0.0;
  uint64_t completed_ = 0;
};

/// One awaiter that a coroutine re-aims at each of its steps in turn:
///
///   sim::Leg leg(sched);
///   leg.Use(send_cpu, send_ms);   // as co_await send_cpu.Use(send_ms)
///   co_await leg;
///   leg.Delay(wire_ms, tag);      // as co_await sched.Delay(wire_ms, tag)
///   co_await leg;
///
/// GCC gives every awaiter expression of a coroutine its own slot in the
/// frame, so a process that chains services and delays holds one slot per
/// step; with a Leg it holds one.  Aiming and awaiting are two statements
/// because GCC copies an awaiter that a call returns by reference (Leg is
/// not copyable, so that form does not compile).  Each step schedules
/// exactly what the temporary awaiter would, at the same event.
/// Cancellation-aware like them: destroying the frame mid-step undoes the
/// pending wait, and a granted service returns its server.
class Leg {
 public:
  explicit Leg(Scheduler& sched) : sched_(&sched) {}
  Leg(const Leg&) = delete;
  Leg& operator=(const Leg&) = delete;
  ~Leg() {
    if (!pending_ || sched_->tearing_down()) return;
    if (res_ != nullptr) {
      res_->CancelWaiter(pending_);
    } else {
      sched_->CancelHandle(pending_);
    }
  }

  /// Aims at `duration` ms of service at `res`, as `res.Use(duration)`.
  void Use(Resource& res, SimTime duration) {
    assert(!pending_ && duration >= 0.0);
    res_ = &res;
    time_ = duration;
  }

  /// Aims at a delay of `delta` ms attributed to `tag`, as
  /// `sched.Delay(delta, tag)`.
  void Delay(SimTime delta, TraceTag tag = {}) {
    assert(!pending_ && delta >= 0.0);
    res_ = nullptr;
    time_ = sched_->Now() + delta;
    tag_ = tag;
  }

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    pending_ = h;
    if (res_ != nullptr) {
      res_->StartService(h, time_);
    } else {
      sched_->ScheduleHandle(time_, h, tag_);
    }
  }
  void await_resume() {
    pending_ = nullptr;
    if (res_ != nullptr) res_->Release();
  }

 private:
  Scheduler* sched_;
  Resource* res_ = nullptr;  // the step's station; null for a delay
  SimTime time_ = 0.0;       // a service's duration, a delay's wake-up time
  std::coroutine_handle<> pending_ = nullptr;
  TraceTag tag_;
};

}  // namespace pdblb::sim

#endif  // PDBLB_SIMKERN_RESOURCE_H_
