#ifndef REDY_SIM_POLLER_H_
#define REDY_SIM_POLLER_H_

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/simulation.h"

namespace redy::sim {

/// Models a busy-polling thread pinned to a core: the body runs every
/// `interval` ns of simulated time until Stop(). Redy client threads,
/// cache-server threads, and the measurement app are all Pollers.
///
/// The body returns the time (ns) the iteration consumed; the next poll
/// is scheduled max(interval, consumed) later, so a thread that did real
/// work is busy for that long, while an idle thread spins at the poll
/// interval.
///
/// Idle parking: an idle poller that keeps rescheduling itself churns
/// the event queue without observable effect. Park() (typically called
/// by the body once it has been idle for a while) stops the
/// self-rescheduling; Wake() — called by whatever source feeds the
/// poller work — resumes it *aligned to the tick phase it would have
/// observed* had it kept polling: the next body run lands on the first
/// tick of the original cadence at or after the wake, so parking cannot
/// perturb any simulated timestamp as long as the idle body is
/// side-effect free (see DESIGN.md §9).
class Poller {
 public:
  using Body = std::function<uint64_t()>;

  Poller(Simulation* sim, SimTime interval, Body body)
      : sim_(sim), interval_(interval), body_(std::move(body)) {}
  ~Poller() { Stop(); }

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// Starts polling `delay` ns from now.
  void Start(SimTime delay = 0) {
    if (running_) return;
    running_ = true;
    parked_ = false;
    Schedule(delay);
  }

  void Stop() {
    if (!running_) return;
    running_ = false;
    parked_ = false;
    if (pending_ != 0) {
      sim_->Cancel(pending_);
      pending_ = 0;
    }
  }

  /// Stops self-rescheduling until Wake(). Callable from inside the
  /// body (takes effect when the body returns) or from outside (the
  /// pending poll is cancelled; its tick time anchors the phase).
  void Park() {
    if (!running_ || parked_) return;
    parked_ = true;
    if (in_body_) return;  // Schedule() skipped when the body returns
    if (pending_ != 0) {
      sim_->Cancel(pending_);
      pending_ = 0;
    }
    // next_tick_ was recorded when the pending poll was scheduled.
  }

  /// Resumes a parked poller on its original cadence: the body next
  /// runs at the first `next_tick_ + k * interval` at or after now.
  void Wake() {
    if (!running_ || !parked_) return;
    parked_ = false;
    if (in_body_) return;  // the running body's return path reschedules
    const SimTime now = sim_->Now();
    SimTime t = next_tick_;
    if (t < now && interval_ > 0) {
      const SimTime behind = now - t;
      t += (behind + interval_ - 1) / interval_ * interval_;
    }
    if (t < now) t = now;
    Schedule(t - now);
  }

  bool running() const { return running_; }
  bool parked() const { return running_ && parked_; }

 private:
  void Schedule(SimTime delay) {
    next_tick_ = sim_->Now() + delay;
    auto tick = [this] {
      pending_ = 0;
      if (!running_ || parked_) return;
      in_body_ = true;
      const uint64_t consumed = body_();
      in_body_ = false;
      if (!running_) return;  // body may have stopped us
      const SimTime step = consumed > interval_ ? consumed : interval_;
      if (parked_) {
        // Body parked us: remember the tick we would have run next so
        // Wake() can realign to the original cadence.
        next_tick_ = sim_->Now() + step;
        return;
      }
      Schedule(step);
    };
    // The per-tick reschedule is the hottest scheduling site in the
    // repo; it must never fall back to a heap allocation.
    static_assert(Simulation::Callback::fits_inline<decltype(tick)>(),
                  "Poller tick lambda must stay inline");
    pending_ = sim_->After(delay, std::move(tick));
  }

  Simulation* sim_;
  SimTime interval_;
  Body body_;
  bool running_ = false;
  bool parked_ = false;
  bool in_body_ = false;
  uint64_t pending_ = 0;
  /// The sim time of the next scheduled poll (phase anchor for Wake).
  SimTime next_tick_ = 0;
};

}  // namespace redy::sim

#endif  // REDY_SIM_POLLER_H_
