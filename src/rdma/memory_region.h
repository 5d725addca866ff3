#ifndef REDY_RDMA_MEMORY_REGION_H_
#define REDY_RDMA_MEMORY_REGION_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/inline_callable.h"
#include "rdma/rdma.h"

namespace redy::rdma {

class Nic;

/// A memory region registered with a NIC. Owns real backing storage:
/// RDMA operations in the simulator move actual bytes between regions,
/// so correctness (not just timing) is exercised end to end.
class MemoryRegion {
 public:
  MemoryRegion(Nic* nic, uint64_t size, uint32_t lkey, uint32_t rkey)
      : nic_(nic), lkey_(lkey), rkey_(rkey), data_(size, 0) {}

  MemoryRegion(const MemoryRegion&) = delete;
  MemoryRegion& operator=(const MemoryRegion&) = delete;

  uint8_t* data() { return data_.data(); }
  const uint8_t* data() const { return data_.data(); }
  uint64_t size() const { return data_.size(); }

  uint32_t lkey() const { return lkey_; }
  RemoteKey remote_key() const { return RemoteKey{rkey_, epoch()}; }
  Nic* nic() const { return nic_; }

  /// Access epoch for fenced one-sided writes. Bumping it (a revocation)
  /// invalidates every RemoteKey minted before the bump: stale-epoch
  /// WRITEs complete with kProtectionError. Reads are deliberately not
  /// epoch-checked — a revoked region is write-frozen but stays readable
  /// until deregistration (migration chunk copies and un-paused reads
  /// keep working through the cutover).
  ///
  /// Atomic because the socket backend's responder workers enforce the
  /// fence off the application loop (DESIGN.md §13): release/acquire
  /// ordering makes a revocation published by the loop visible to a
  /// worker before it deposits a byte. Under the simulator this
  /// compiles to the same plain load/store it always was.
  uint32_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  void RevokeEpoch() { epoch_.fetch_add(1, std::memory_order_acq_rel); }

  /// A deregistered region rejects all remote access (used when a region
  /// is reclaimed or its VM is torn down).
  bool valid() const { return valid_.load(std::memory_order_acquire); }
  void Invalidate() { valid_.store(false, std::memory_order_release); }

  bool InBounds(uint64_t offset, uint64_t len) const {
    return offset + len <= data_.size() && offset + len >= offset;
  }

  /// Observer invoked (at the landing event's simulated time) after a
  /// remote RDMA write/send deposits bytes into this region — the
  /// simulator's stand-in for the cache-line snoop a busy-polling
  /// thread would observe. Work sources use it to Wake() parked
  /// pollers (DESIGN.md §9); it must not change simulated state.
  void SetRemoteWriteNotifier(common::InlineCallable<void()> fn) {
    on_remote_write_ = std::move(fn);
  }
  void NotifyRemoteWrite() {
    if (on_remote_write_) on_remote_write_();
  }

 private:
  Nic* nic_;
  uint32_t lkey_;
  uint32_t rkey_;
  std::atomic<uint32_t> epoch_{0};
  std::atomic<bool> valid_{true};
  std::vector<uint8_t> data_;
  common::InlineCallable<void()> on_remote_write_;
};

}  // namespace redy::rdma

#endif  // REDY_RDMA_MEMORY_REGION_H_
