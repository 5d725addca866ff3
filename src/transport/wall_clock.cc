#include "transport/wall_clock.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>

#include "common/logging.h"

namespace redy::transport {

WallClockDriver::WallClockDriver(sim::Simulation* sim) : sim_(sim) {
  epfd_ = epoll_create1(EPOLL_CLOEXEC);
  REDY_CHECK(epfd_ >= 0);
  evfd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  REDY_CHECK(evfd_ >= 0);
  struct epoll_event ev = {};
  ev.events = EPOLLIN;
  ev.data.fd = evfd_;
  REDY_CHECK(epoll_ctl(epfd_, EPOLL_CTL_ADD, evfd_, &ev) == 0);
}

WallClockDriver::~WallClockDriver() {
  Stop();
  if (evfd_ >= 0) close(evfd_);
  if (epfd_ >= 0) close(epfd_);
}

uint64_t WallClockDriver::MonotonicNs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

void WallClockDriver::Start() {
  REDY_CHECK(!thread_.joinable());
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { Loop(); });
  loop_id_ = thread_.get_id();
}

void WallClockDriver::Stop(sim::Simulation::Callback on_exit) {
  if (!thread_.joinable()) {
    if (on_exit) on_exit();
    return;
  }
  on_exit_ = std::move(on_exit);
  stop_.store(true, std::memory_order_release);
  RingDoorbell();
  thread_.join();
  loop_id_ = std::thread::id();
}

void WallClockDriver::RingDoorbell() {
  uint64_t one = 1;
  // A full eventfd counter still wakes the loop; ignore short writes.
  [[maybe_unused]] ssize_t n = write(evfd_, &one, sizeof(one));
}

void WallClockDriver::Post(sim::Simulation::Callback fn) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    mailbox_.push_back(std::move(fn));
  }
  RingDoorbell();
}

void WallClockDriver::Loop() {
  const uint64_t t0 = MonotonicNs();
  std::vector<sim::Simulation::Callback> batch;
  while (true) {
    // 1. Drain the mailbox: completions, doorbells, and Call() bodies
    //    posted by worker / control threads run here, on the one thread
    //    allowed to touch simulator state.
    {
      std::lock_guard<std::mutex> lk(mu_);
      batch.swap(mailbox_);
    }
    for (auto& fn : batch) fn();
    batch.clear();
    if (stop_.load(std::memory_order_acquire)) break;

    // 2. Fire every event the wall clock has caught up to. RunUntil
    //    also advances Now() to the wall reading, so timers scheduled
    //    by the callbacks stay anchored to real time.
    const uint64_t wall = MonotonicNs() - t0;
    sim_->RunUntil(wall);

    // 3. Park or respin. Never park with mailbox work pending: the
    //    doorbell may have been consumed by a previous epoll_wait.
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!mailbox_.empty()) continue;
    }
    const sim::SimTime next = sim_->NextEventTime();
    int timeout_ms = kMaxParkMs;
    if (next != sim::Simulation::kNoEvent) {
      const uint64_t now = MonotonicNs() - t0;
      if (next <= now + kSpinHorizonNs) continue;  // near event: respin
      timeout_ms = static_cast<int>(
          std::min<uint64_t>((next - now) / 1'000'000, kMaxParkMs));
      if (timeout_ms <= 0) continue;
    }
    idle_blocks_.fetch_add(1, std::memory_order_relaxed);
    struct epoll_event ev;
    const int n = epoll_wait(epfd_, &ev, 1, timeout_ms);
    if (n > 0) {
      uint64_t drained;
      while (read(evfd_, &drained, sizeof(drained)) > 0) {
      }
      wakeups_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (on_exit_) on_exit_();
}

}  // namespace redy::transport
