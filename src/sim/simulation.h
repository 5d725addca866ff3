#ifndef REDY_SIM_SIMULATION_H_
#define REDY_SIM_SIMULATION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/inline_callable.h"

namespace redy::sim {

/// Simulated time in nanoseconds since simulation start.
using SimTime = uint64_t;

/// Deterministic discrete-event simulator. Single real thread; every
/// concurrent entity in the reproduction (application threads, Redy
/// client/server threads, NICs, the VM allocator) is an event source on
/// this queue. Events at the same timestamp fire in scheduling order,
/// which keeps runs byte-for-byte reproducible.
///
/// Engine internals (DESIGN.md §9): events live in slab-pooled records
/// reused through a free list — no per-event heap allocation as long as
/// the callback fits Callback's inline budget. A 4-ary min-heap
/// of (time, seq, slot) index entries orders them, so sift traffic
/// stays inside one contiguous array and never touches the pooled
/// records. Handles are generation-tagged and Cancel() is O(1) slot
/// invalidation: the record's callback is destroyed immediately (a
/// disengaged callback marks the record dead), while the dead heap
/// entry is discarded lazily when it reaches the top. A stale handle
/// (already fired, already cancelled, or a reused slot) is rejected
/// instead of corrupting accounting.
class Simulation {
 public:
  using Callback = common::InlineCallable<void()>;

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  ~Simulation();

  /// Current simulated time.
  SimTime Now() const { return now_; }

  /// Schedules `f` to run at absolute time `t` (clamped to Now()).
  /// Returns a generation-tagged handle usable with Cancel(). The
  /// callable is constructed directly into the pooled record — no
  /// intermediate Callback hop on the hot path.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback>>>
  uint64_t At(SimTime t, F&& f) {
    const uint32_t slot = AllocSlot();
    Rec(slot).cb.Emplace(std::forward<F>(f));
    return Enqueue(t, slot);
  }

  /// Overload for callers that already hold a Callback.
  uint64_t At(SimTime t, Callback cb) {
    const uint32_t slot = AllocSlot();
    Rec(slot).cb = std::move(cb);
    return Enqueue(t, slot);
  }

  /// Schedules the callable to run `delay` ns from now.
  template <typename F>
  uint64_t After(SimTime delay, F&& f) {
    return At(now_ + delay, std::forward<F>(f));
  }

  /// Cancels a pending event in O(1): the record is invalidated and
  /// its callback destroyed now; the heap entry is discarded when it
  /// surfaces. Returns whether an event was actually cancelled: false
  /// for an event that already fired, was already cancelled, or for
  /// any stale/invalid handle (the generation tag rejects handles
  /// whose slot has been reused).
  bool Cancel(uint64_t handle);

  /// Runs events until the queue drains.
  void Run();

  /// Runs events with timestamp <= t, then sets Now() = t.
  void RunUntil(SimTime t);

  /// Runs for `delta` ns of simulated time.
  void RunFor(SimTime delta) { RunUntil(now_ + delta); }

  /// Runs a single event if one is pending; returns false if the queue
  /// is empty.
  bool Step();

  /// Absolute time of the earliest pending event, or kNoEvent when the
  /// queue is empty. Dead (cancelled) heap tops are discarded on the
  /// way, so the answer is exact rather than an upper bound. This is
  /// what a wall-clock driver sleeps on: it blocks until either
  /// NextEventTime() or an external wakeup (transport::WallClockDriver).
  static constexpr SimTime kNoEvent = UINT64_MAX;
  SimTime NextEventTime();

  /// Number of events executed so far (useful for tests/diagnostics).
  uint64_t events_executed() const { return events_executed_; }
  bool empty() const { return live_ == 0; }
  /// Pending (scheduled, not yet fired or cancelled) events. Dead heap
  /// entries awaiting lazy discard are not counted.
  size_t pending() const { return live_; }

 private:
  /// Intrusive pooled event record. `generation` tags handles so stale
  /// ones are rejected on reuse. The (time, seq) ordering keys live in
  /// the heap entries, not here: sift traffic walks one contiguous
  /// array and never dereferences pooled records. Liveness is encoded
  /// without a separate flag: a record is cancellable iff its
  /// generation matches the handle *and* its callback is engaged
  /// (Cancel disengages it; the fire path bumps the generation before
  /// invoking). Scheduling an empty Callback is undefined.
  struct EventRec {
    Callback cb;
    uint32_t generation = 1;
    uint32_t next_free = kNoFreeSlot;
  };

  /// One heap element: ordering keys + the owning slot. 16 bytes so
  /// four entries share a cache line and the stride is a shift, which
  /// measurably speeds the sift loops. `seq` keeps the low 32 bits of
  /// the scheduling counter; see Before() for the wraparound rule.
  struct HeapEntry {
    SimTime time;
    uint32_t seq;
    uint32_t slot;
  };

  static constexpr uint32_t kNoFreeSlot = UINT32_MAX;
  /// Records per slab. Slabs give records stable addresses (the heap
  /// stores slot indices, never pointers) while growing geometrically
  /// in count, not in record moves.
  static constexpr uint32_t kSlabSize = 1024;

  EventRec& Rec(uint32_t slot) {
    return slabs_[slot / kSlabSize][slot % kSlabSize];
  }
  const EventRec& Rec(uint32_t slot) const {
    return slabs_[slot / kSlabSize][slot % kSlabSize];
  }

  /// Pops a slot off the free list, growing a fresh slab only when the
  /// pool is exhausted. Header-inline: this is on the schedule fast
  /// path and the free-list pop is two loads and a store.
  uint32_t AllocSlot() {
    if (free_head_ != kNoFreeSlot) {
      const uint32_t slot = free_head_;
      free_head_ = Rec(slot).next_free;
      return slot;
    }
    return GrowSlot();
  }

  void FreeSlot(uint32_t slot) {
    EventRec& rec = Rec(slot);
    rec.cb.Reset();
    rec.generation++;  // invalidates every outstanding handle to the slot
    rec.next_free = free_head_;
    free_head_ = slot;
  }

  /// Slow path of AllocSlot: take the next never-used slot, allocating
  /// a new slab when the current one fills.
  uint32_t GrowSlot();

  /// Links an already-filled slot into the heap at time `t` (clamped to
  /// Now()) and returns its generation-tagged handle.
  uint64_t Enqueue(SimTime t, uint32_t slot) {
    if (t < now_) t = now_;
    live_++;
    heap_.push_back(
        HeapEntry{t, static_cast<uint32_t>(next_seq_++), slot});
    SiftUp(static_cast<uint32_t>(heap_.size()) - 1);
    return (static_cast<uint64_t>(Rec(slot).generation) << 32) | slot;
  }

  /// (time, seq) lexicographic order; seq keeps same-time events FIFO.
  /// The 32-bit seq compares in modular arithmetic, which stays FIFO
  /// as long as no two *coexisting* same-timestamp events were
  /// scheduled more than 2^31 schedule calls apart — far beyond any
  /// real pending set, and orderings remain deterministic regardless.
  static bool Before(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return static_cast<int32_t>(a.seq - b.seq) < 0;
  }

  /// Sifts are header-inline so schedule/fire paths compile to
  /// straight-line code at their call sites (the hole optimization:
  /// the moving entry is held in a register and stored once).
  void SiftUp(uint32_t pos) {
    const HeapEntry entry = heap_[pos];
    while (pos > 0) {
      const uint32_t parent = (pos - 1) / 4;
      if (!Before(entry, heap_[parent])) break;
      heap_[pos] = heap_[parent];
      pos = parent;
    }
    heap_[pos] = entry;
  }

  /// Sifts `entry` down from the root (the only pop site). The entry
  /// arrives in registers — the vacated root is never stored and then
  /// re-read, it is filled once when the final position is known.
  void SiftDownRoot(HeapEntry entry) {
    const uint32_t n = static_cast<uint32_t>(heap_.size());
    uint32_t pos = 0;
    while (true) {
      const uint32_t first_child = pos * 4 + 1;
      if (first_child >= n) break;
      uint32_t best;
      if (first_child + 4 <= n) {
        // Full quartet: pick the min with a branch-free reduction
        // tree (ternaries compile to cmov). The straight-line version
        // beats a compare loop because which child wins is a coin
        // flip the branch predictor loses on random keys.
        const uint32_t b01 =
            Before(heap_[first_child + 1], heap_[first_child])
                ? first_child + 1
                : first_child;
        const uint32_t b23 =
            Before(heap_[first_child + 3], heap_[first_child + 2])
                ? first_child + 3
                : first_child + 2;
        best = Before(heap_[b23], heap_[b01]) ? b23 : b01;
      } else {
        best = first_child;
        for (uint32_t c = first_child + 1; c < n; c++) {
          if (Before(heap_[c], heap_[best])) best = c;
        }
      }
      if (!Before(heap_[best], entry)) break;
      heap_[pos] = heap_[best];
      pos = best;
    }
    heap_[pos] = entry;
  }

  /// Pops the top heap entry; runs it if live, discards it if dead.
  /// Returns whether a live event ran. Precondition: heap not empty.
  bool RunTop();

  std::vector<std::unique_ptr<EventRec[]>> slabs_;
  uint32_t free_head_ = kNoFreeSlot;
  uint32_t slots_in_use_ = 0;  // high-water slot count, incl. free-listed
  /// 4-ary min-heap of (keys, slot) entries (children of i: 4i+1..4i+4).
  /// May carry dead entries for cancelled events; they are discarded
  /// when they surface.
  std::vector<HeapEntry> heap_;
  size_t live_ = 0;  // scheduled and neither fired nor cancelled
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_executed_ = 0;
};

}  // namespace redy::sim

#endif  // REDY_SIM_SIMULATION_H_
