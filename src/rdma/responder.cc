#include "rdma/responder.h"

#include <algorithm>
#include <atomic>
#include <cstring>

namespace redy::rdma {

StatusCode CheckAccess(const MemoryRegion* mr, RemoteKey key, AccessKind kind,
                       uint64_t offset, uint64_t len) {
  if (mr == nullptr || !mr->valid()) return StatusCode::kProtectionError;
  if (kind != AccessKind::kRead && key.epoch != mr->epoch()) {
    return StatusCode::kProtectionError;
  }
  if (!mr->InBounds(offset, len)) return StatusCode::kAborted;
  return StatusCode::kOk;
}

Status ValidateChainShape(const ChainHop* hops, uint64_t num_hops) {
  if (num_hops == 0 || num_hops > kMaxChainHops) {
    return Status::InvalidArgument("bad chain length");
  }
  for (uint64_t i = 0; i < num_hops; i++) {
    const ChainHop& h = hops[i];
    if (h.addr_shift >= 64) {
      return Status::InvalidArgument("chain hop addr_shift must be below 64");
    }
    if (h.addr_from_prev &&
        (i == 0 || hops[i - 1].is_write || hops[i - 1].len < 8)) {
      return Status::InvalidArgument(
          "dependent hop needs a preceding >=8 B read hop");
    }
  }
  return Status::OK();
}

void Deposit(MemoryRegion* mr, uint64_t offset, const uint8_t* src,
             uint64_t len) {
  if (len == 0) return;
  uint8_t* dst = mr->data() + offset;
  if (len >= 8 && reinterpret_cast<uintptr_t>(dst) % 8 == 0) {
    std::memcpy(dst + 8, src + 8, len - 8);
    uint64_t first = 0;
    std::memcpy(&first, src, sizeof(first));
    std::atomic_ref<uint64_t>(*reinterpret_cast<uint64_t*>(dst))
        .store(first, std::memory_order_release);
  } else {
    // Byte granularity: atomic_thread_fence is unsupported under TSan.
    std::memcpy(dst + 1, src + 1, len - 1);
    std::atomic_ref<uint8_t>(*dst).store(src[0], std::memory_order_release);
  }
}

void ScatterChainReads(MemoryRegion* mr, const ChainHop* hops,
                       uint32_t num_hops, const uint8_t* payload) {
  for (uint32_t i = 0; i < num_hops; i++) {
    const ChainHop& h = hops[i];
    if (h.is_write) continue;
    std::memcpy(mr->data() + h.local_offset, payload, h.len);
    payload += h.len;
  }
}

StatusCode ChainCursor::Step(MemoryRegion* mr, std::vector<uint8_t>* reads) {
  const ChainHop& h = hops_[hop_];
  uint64_t offset = h.remote_offset;
  if (h.addr_from_prev) offset += (prev_word_ & h.addr_mask) >> h.addr_shift;
  const StatusCode code =
      CheckAccess(mr, h.key, AccessKind::kChainHop, offset, h.len);
  if (code != StatusCode::kOk) return code;
  if (h.is_write) {
    Deposit(mr, offset, write_payload_, h.len);
    write_payload_ += h.len;
  } else {
    const uint8_t* data = mr->data() + offset;
    reads->insert(reads->end(), data, data + h.len);
    prev_word_ = 0;
    std::memcpy(&prev_word_, data, std::min<uint64_t>(h.len, 8));
  }
  hop_++;
  return StatusCode::kOk;
}

}  // namespace redy::rdma
