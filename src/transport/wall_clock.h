#ifndef REDY_TRANSPORT_WALL_CLOCK_H_
#define REDY_TRANSPORT_WALL_CLOCK_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/simulation.h"

namespace redy::transport {

/// The clock seam (DESIGN.md §13). The deterministic stack — CacheClient,
/// CacheServer, sim::Poller, migration timers — schedules everything on a
/// sim::Simulation and never asks what drives it. Under tests and the
/// model, Simulation::Run() burns through events in virtual time. Under
/// the real transport, this driver runs the *same* event queue on a
/// dedicated thread paced by CLOCK_MONOTONIC: an event scheduled for
/// T fires once the wall clock passes T, and modeled CPU costs become
/// scheduling floors instead of exact durations.
///
/// The driver is also the bridge between real worker threads and the
/// single-threaded event world: Post() enqueues a callable from any
/// thread into an MPSC mailbox and wakes the loop through an eventfd.
/// Everything transactional (CQ pushes, ring notifiers, QP state) runs
/// only on the loop thread, so the simulator's single-writer invariants
/// survive contact with real concurrency.
///
/// Idle behavior is the real arm of the Park/Wake machinery: when the
/// next pending event is comfortably in the future (or there is none),
/// the loop blocks in epoll_wait on the eventfd instead of spinning —
/// a parked poller costs zero CPU until a completion, a ring doorbell,
/// or a timer wakes the process.
class WallClockDriver {
 public:
  explicit WallClockDriver(sim::Simulation* sim);
  ~WallClockDriver();

  WallClockDriver(const WallClockDriver&) = delete;
  WallClockDriver& operator=(const WallClockDriver&) = delete;

  /// Spawns the loop thread. Events already queued on the simulation
  /// start firing against the wall clock immediately.
  void Start();

  /// Signals the loop, drains the mailbox one last time, runs `on_exit`
  /// on the halted loop thread, and joins. Idempotent (`on_exit` then
  /// runs on the caller).
  void Stop(sim::Simulation::Callback on_exit = {});

  bool running() const { return thread_.joinable(); }

  /// Enqueues `fn` to run on the loop thread (thread-safe, any thread).
  /// Wakes the loop if it is parked.
  void Post(sim::Simulation::Callback fn);

  /// Runs `fn` on the loop thread and blocks until it returns; returns
  /// its value. Called from the loop thread itself, runs inline. This
  /// is how tests, benchmarks, and control-plane threads touch the
  /// single-threaded world.
  template <typename F>
  auto Call(F&& fn) -> std::invoke_result_t<F&> {
    using R = std::invoke_result_t<F&>;
    if (OnLoop()) {
      return fn();
    }
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    if constexpr (std::is_void_v<R>) {
      Post([&] {
        fn();
        std::lock_guard<std::mutex> lk(mu);
        done = true;
        cv.notify_one();
      });
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return done; });
    } else {
      std::optional<R> out;
      Post([&] {
        out.emplace(fn());
        std::lock_guard<std::mutex> lk(mu);
        done = true;
        cv.notify_one();
      });
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return done; });
      return std::move(*out);
    }
  }

  /// Whether the calling thread is the loop thread.
  bool OnLoop() const {
    return running() && std::this_thread::get_id() == loop_id_;
  }

  sim::Simulation* sim() const { return sim_; }

  /// Times the loop blocked in epoll_wait (parked, zero CPU) — the
  /// regression hook for "a parked real thread actually parks".
  uint64_t idle_blocks() const {
    return idle_blocks_.load(std::memory_order_relaxed);
  }
  /// Eventfd wakeups observed (Post/Stop doorbells that found the loop
  /// parked or about to park).
  uint64_t wakeups() const { return wakeups_.load(std::memory_order_relaxed); }

  /// Monotonic nanoseconds since an arbitrary epoch (CLOCK_MONOTONIC).
  static uint64_t MonotonicNs();

 private:
  void Loop();
  void RingDoorbell();

  /// Events within this horizon are awaited by respinning the loop
  /// instead of sleeping: epoll_wait's millisecond granularity would
  /// otherwise quantize sub-ms poll intervals into stalls.
  static constexpr uint64_t kSpinHorizonNs = 2'000'000;
  /// Cap on a single park so stop requests and clock anomalies are
  /// noticed promptly.
  static constexpr int kMaxParkMs = 100;

  sim::Simulation* sim_;
  int epfd_ = -1;
  int evfd_ = -1;
  std::thread thread_;
  std::thread::id loop_id_;
  std::mutex mu_;
  std::vector<sim::Simulation::Callback> mailbox_;
  sim::Simulation::Callback on_exit_;  // published by the stop_ store
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> idle_blocks_{0};
  std::atomic<uint64_t> wakeups_{0};
};

}  // namespace redy::transport

#endif  // REDY_TRANSPORT_WALL_CLOCK_H_
