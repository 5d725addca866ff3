#ifndef REDY_RDMA_COMPLETION_QUEUE_H_
#define REDY_RDMA_COMPLETION_QUEUE_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/inline_callable.h"
#include "rdma/rdma.h"

namespace redy::rdma {

/// Completion queue polled by client and server threads. Multiple work
/// queues may share one CQ (as on real hardware).
///
/// Chained work requests (Opcode::kChain) deliver exactly ONE entry per
/// chain — success or poison — never one per hop: the WAIT-on-CQ gates
/// between hops are NIC-internal and consume their intermediate
/// completions on the responder. That is what lets a parked poller stay
/// parked through an entire multi-op sequence: the notifier below fires
/// once per chain, so a dependent pointer chase costs one wakeup.
///
/// Entries live in a power-of-two circular buffer: a std::deque
/// allocates/frees a chunk roughly every 21 pushes, which shows up as
/// steady-state allocation churn on the data path. The ring grows only
/// when the backlog exceeds every previous high-water mark, so a
/// settled workload pushes and polls with zero allocations.
class CompletionQueue {
 public:
  CompletionQueue() : ring_(kInitialCapacity) {}
  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;

  /// Polls up to `max` completions into `out`. Returns the number polled.
  int Poll(WorkCompletion* out, int max) {
    int n = 0;
    while (n < max && head_ != tail_) {
      out[n++] = ring_[head_ & (ring_.size() - 1)];
      head_++;
    }
    return n;
  }

  void Push(const WorkCompletion& wc) {
    if (tail_ - head_ == ring_.size()) Grow();
    ring_[tail_ & (ring_.size() - 1)] = wc;
    tail_++;
    if (on_push_) on_push_();
  }

  /// Observer invoked whenever a completion is pushed (the simulator's
  /// stand-in for a CQ doorbell/event). Used to Wake() parked pollers;
  /// must not change simulated state.
  void SetNotifier(common::InlineCallable<void()> fn) {
    on_push_ = std::move(fn);
  }

  /// Fires the notifier without enqueueing a completion: the async
  /// error doorbell a QP rings when it transitions to the error state,
  /// so a parked poller re-sweeps and observes broken().
  void Notify() {
    if (on_push_) on_push_();
  }

  size_t Size() const { return tail_ - head_; }
  bool Empty() const { return head_ == tail_; }

 private:
  static constexpr size_t kInitialCapacity = 64;

  void Grow() {
    std::vector<WorkCompletion> bigger(ring_.size() * 2);
    const size_t n = tail_ - head_;
    for (size_t i = 0; i < n; i++) {
      bigger[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    }
    ring_ = std::move(bigger);
    head_ = 0;
    tail_ = n;
  }

  std::vector<WorkCompletion> ring_;
  size_t head_ = 0;
  size_t tail_ = 0;
  common::InlineCallable<void()> on_push_;
};

}  // namespace redy::rdma

#endif  // REDY_RDMA_COMPLETION_QUEUE_H_
