#ifndef REDY_RDMA_RESPONDER_H_
#define REDY_RDMA_RESPONDER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "rdma/memory_region.h"
#include "rdma/rdma.h"

namespace redy::rdma {

// The rules a responder NIC applies to a remote access, written once for
// both backends (DESIGN.md §7, §15). The simulated NIC calls them from
// its landing events; the socket backend's responder workers call them
// when a frame arrives. Nothing here knows about time, threads or the
// wire: the sim adds timing around these calls, the socket adds framing
// and locking.

/// What a remote access does to its target.
enum class AccessKind : uint8_t { kRead, kWrite, kChainHop };

/// Whether an access of `len` bytes at `offset` under `key` may touch
/// `mr`, the region the key's rkey names (null if none). A missing or
/// invalidated region gives kProtectionError, and so does a stale epoch
/// on a write or a chain hop; plain reads are not epoch-checked, so a
/// revoked region stays readable until it is deregistered. A range past
/// the end of the region gives kAborted.
StatusCode CheckAccess(const MemoryRegion* mr, RemoteKey key, AccessKind kind,
                       uint64_t offset, uint64_t len);

/// Checks a chain's descriptor block: 1 to kMaxChainHops hops, every
/// dependent hop right after a read hop of at least 8 B, and every
/// addr_shift below 64.
Status ValidateChainShape(const ChainHop* hops, uint64_t num_hops);

/// The one remote-write deposit: the body first, then the first word
/// (a response slot's BatchHeader sequence word; the first byte if the
/// target is unaligned or shorter than a word) with a release store, so
/// a poller's acquire load of that word sees the whole deposit. A single
/// thread observes the same bytes either way.
void Deposit(MemoryRegion* mr, uint64_t offset, const uint8_t* src,
             uint64_t len);

/// Lands a chain's concatenated read payloads at each read hop's local
/// offset in `mr`, in hop order.
void ScatterChainReads(MemoryRegion* mr, const ChainHop* hops,
                       uint32_t num_hops, const uint8_t* payload);

/// Executes a validated chain one hop per Step(), so the simulator can
/// schedule each hop as its own event while the socket responder runs
/// them back to back.
class ChainCursor {
 public:
  ChainCursor() = default;
  /// `write_payload` holds the write hops' payloads concatenated in hop
  /// order; it and `hops` must outlive the cursor.
  ChainCursor(const ChainHop* hops, uint32_t num_hops,
              const uint8_t* write_payload)
      : hops_(hops), num_hops_(num_hops), write_payload_(write_payload) {}

  /// The hop the next Step() executes.
  const ChainHop& next() const { return hops_[hop_]; }
  uint32_t hops_done() const { return hop_; }
  bool done() const { return hop_ == num_hops_; }

  /// Runs next() against `mr`, the region its rkey names (null if
  /// none): checks the access at the hop's (masked, shifted) address,
  /// then deposits a write hop, or appends a read hop's bytes to `reads`
  /// and keeps its first word for the next dependent hop. Advances on
  /// kOk; any other code aborts the chain before it touches a byte.
  StatusCode Step(MemoryRegion* mr, std::vector<uint8_t>* reads);

 private:
  const ChainHop* hops_ = nullptr;
  uint32_t num_hops_ = 0;
  uint32_t hop_ = 0;
  uint64_t prev_word_ = 0;
  const uint8_t* write_payload_ = nullptr;
};

}  // namespace redy::rdma

#endif  // REDY_RDMA_RESPONDER_H_
