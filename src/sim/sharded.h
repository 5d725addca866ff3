#ifndef REDY_SIM_SHARDED_H_
#define REDY_SIM_SHARDED_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "ringbuf/spsc_ring.h"
#include "sim/simulation.h"

namespace redy::sim {

/// Conservative parallel discrete-event engine (DESIGN.md §14).
///
/// The event space is split into fixed logical partitions — one per
/// rack in the fleet campaign — each owning a private `Simulation`
/// (with PR 4's slab-pooled records, O(1) cancel, and generation-tagged
/// handles intact per partition). Cross-partition interaction happens
/// only through Post(), which carries a callback over an SPSC channel
/// to the destination partition. Partitions advance in rounds under a
/// conservative lookahead window:
///
///   1. Drain: every partition empties its inbound channels, sorting
///      messages by (arrival time, source partition, channel sequence)
///      before scheduling them, then reports its earliest pending
///      event time.
///   2. Window: with `m` = the global minimum of those times and `L`
///      the lookahead, every partition runs its events up to
///      `U = min(target, m + L)` in parallel.
///
/// Safety: Post() requires every cross-partition message to arrive at
/// least `L` after the sender's clock (the fleet derives L from
/// net::MinCrossRackLatencyNs — a packet physically cannot cross a
/// rack boundary faster than the wire). Any event executed inside the
/// window has time `t >= m`, so any message it sends arrives at
/// `t + d >= m + L >= U`, i.e. never inside the current window and
/// never in the receiver's past: timestamps are exact, no clamping.
///
/// Determinism: the partition layout and the per-partition computation
/// are *independent of the worker count*. `workers` only chooses which
/// real thread runs partition p (p % workers); the rounds, the window
/// bounds, the message delivery order (a total order, not arrival
/// order), and each partition's event sequence are identical whether
/// the engine runs on one thread or sixteen. Same-seed runs are
/// byte-identical across worker counts by construction; the regression
/// tests in sim_test.cc / fleet_test.cc byte-compare snapshots to keep
/// it that way.
class ShardedEngine {
 public:
  struct Options {
    /// Logical partitions (racks). Fixed for a given experiment; this
    /// is what determinism keys on.
    uint32_t partitions = 1;
    /// Worker threads; clamped to [1, partitions]. Purely a placement
    /// choice — results do not depend on it.
    uint32_t workers = 1;
    /// Conservative lookahead L (ns): the minimum cross-partition
    /// message delay Post() will accept. Must be >= 1.
    SimTime lookahead_ns = 1;
    /// SPSC ring slots per ordered partition pair; bursts beyond the
    /// ring spill to a vector on the producer side (order preserved).
    size_t channel_capacity = 64;
  };

  explicit ShardedEngine(const Options& opts);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  uint32_t partitions() const {
    return static_cast<uint32_t>(parts_.size());
  }
  uint32_t workers() const { return workers_; }
  SimTime lookahead_ns() const { return lookahead_; }

  /// The partition's private simulator. Setup code schedules initial
  /// events here; during RunUntil only events running *on* partition p
  /// may touch it (or any state owned by p).
  Simulation& partition(uint32_t p) { return parts_[p]->sim; }

  /// Schedules `fn` on partition `dst` at absolute time `t`, callable
  /// from an event executing on partition `src`. Same-partition posts
  /// (and any post made while the engine is not running, i.e. from
  /// single-threaded setup code) go straight onto the destination's
  /// queue. Cross-partition posts while running must respect the
  /// lookahead: t >= partition(src).Now() + lookahead_ns (checked).
  template <typename F>
  void Post(uint32_t src, uint32_t dst, SimTime t, F&& fn) {
    REDY_CHECK(src < partitions() && dst < partitions());
    if (src == dst || !running_) {
      parts_[dst]->sim.At(t, std::forward<F>(fn));
      return;
    }
    REDY_CHECK(t >= parts_[src]->sim.Now() + lookahead_);
    Channel& ch = *parts_[dst]->in[src];
    Msg m{t, ch.seq++, src, Simulation::Callback(std::forward<F>(fn))};
    ch.sent++;
    // Once a window starts spilling, keep spilling: the consumer
    // replays ring-then-spill, so mixing after an overflow would
    // reorder the channel. Size() over-estimates from the producer
    // side (its consumer index may be stale), so the guard can only
    // spill early, never push into a full ring.
    if (ch.spill.empty() && ch.ring.Size() < ch.ring.Capacity()) {
      const bool pushed = ch.ring.TryPush(std::move(m));
      REDY_CHECK(pushed);
      return;
    }
    ch.spilled++;
    ch.spill.push_back(std::move(m));
  }

  /// Runs every partition to exactly `until` (each partition's Now()
  /// equals `until` on return), in conservative rounds. Callable
  /// repeatedly with non-decreasing bounds.
  void RunUntil(SimTime until);

  /// Aggregate counters (read when quiesced, i.e. outside RunUntil).
  uint64_t events_executed() const;
  uint64_t messages_sent() const;
  uint64_t messages_spilled() const;
  uint64_t rounds() const { return rounds_; }

 private:
  /// One cross-partition message. `seq` is the per-channel send index;
  /// (time, src, seq) totally orders deliveries into a partition.
  struct Msg {
    SimTime time = 0;
    uint64_t seq = 0;
    uint32_t src = 0;
    Simulation::Callback fn;
  };

  /// SPSC channel for one ordered (src, dst) partition pair. The
  /// producer is whichever thread runs src, the consumer whichever
  /// thread runs dst; the round barriers mean they never actually
  /// overlap — producers write only in the window phase, the consumer
  /// drains only in the drain phase of the next round.
  struct Channel {
    explicit Channel(size_t cap) : ring(cap) {}
    ringbuf::SpscRing<Msg> ring;
    std::vector<Msg> spill;  // producer-appended overflow, in order
    uint64_t seq = 0;        // producer side
    uint64_t sent = 0;
    uint64_t spilled = 0;
  };

  struct Partition {
    Simulation sim;
    /// Inbound channels indexed by source partition (null for self).
    std::vector<std::unique_ptr<Channel>> in;
    std::vector<Msg> drain_buf;  // consumer scratch, reused per round
  };

  /// Each worker's phase-A minimum lives on its own cache line.
  struct alignas(64) PaddedTime {
    SimTime v = Simulation::kNoEvent;
  };

  /// Sense-reversing spin barrier with a serial section: the last
  /// arriver runs `serial()` before releasing the others, so round
  /// reductions happen inside the barrier. Spins briefly, then yields
  /// (the engine must stay live on machines with fewer cores than
  /// workers). The fetch_add / release-store / acquire-load protocol
  /// gives full happens-before both ways across each crossing, which
  /// is what makes the barrier-separated SPSC phases TSan-clean.
  class SpinBarrier {
   public:
    explicit SpinBarrier(uint32_t n) : n_(n) {}

    template <typename F>
    void ArriveAndWait(F&& serial) {
      const uint32_t phase = phase_.load(std::memory_order_relaxed);
      if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
        serial();
        arrived_.store(0, std::memory_order_relaxed);
        phase_.store(phase + 1, std::memory_order_release);
        return;
      }
      int spins = 0;
      while (phase_.load(std::memory_order_acquire) == phase) {
        if (++spins > 128) std::this_thread::yield();
      }
    }

   private:
    const uint32_t n_;
    alignas(64) std::atomic<uint32_t> arrived_{0};
    alignas(64) std::atomic<uint32_t> phase_{0};
  };

  void WorkerLoop(uint32_t w);
  void HelperMain(uint32_t w);
  void DrainInbox(Partition& part);
  /// Serial section of the drain barrier: reduces the per-worker
  /// minima and picks the round's window bound.
  void PickWindow();

  SimTime lookahead_;
  uint32_t workers_;
  std::vector<std::unique_ptr<Partition>> parts_;

  SpinBarrier barrier_;
  std::vector<PaddedTime> worker_min_;
  /// Round coordination, written only in PickWindow (the barrier's
  /// serial section) and read by workers after the barrier releases.
  SimTime target_ = 0;
  SimTime window_end_ = 0;
  bool last_round_ = false;
  uint64_t rounds_ = 0;
  /// True while RunUntil is executing; Post uses it to route
  /// setup-time scheduling directly. Written by the controlling thread
  /// only, outside the parallel region.
  bool running_ = false;

  // Helper-thread parking (workers > 1).
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t run_seq_ = 0;
  bool stop_ = false;
  std::vector<std::thread> helpers_;
};

}  // namespace redy::sim

#endif  // REDY_SIM_SHARDED_H_
