#ifndef REDY_FASTER_REDY_DEVICE_H_
#define REDY_FASTER_REDY_DEVICE_H_

#include <cstdint>
#include <memory>

#include "common/slab_pool.h"
#include "faster/idevice.h"
#include "redy/cache_client.h"

namespace redy::faster {

/// A Redy cache wrapped as a FASTER IDevice (Section 8.2, Fig. 17):
/// the first tier of the tiered device. The cache's fixed capacity
/// holds the most recent suffix of the log; appends beyond capacity
/// wrap around (offset modulo capacity) and evict the oldest suffix,
/// which Covers() then reports as absent so reads fall through to the
/// next tier. Submission backpressure (a full client batch ring) is
/// absorbed with a short retry instead of being surfaced to FASTER.
///
/// Graceful brownout (DESIGN.md §12): with a local fallback device
/// installed (SetLocalFallback), front-door rejections from the cache
/// client — tenant-quota ResourceExhausted, brownout Unavailable —
/// degrade to the local tier instead of retrying into the overload.
/// Fallback writes do not advance the Redy tier's high-water mark, so
/// Covers() stays truthful and later reads of those bytes fall through
/// to a tier that actually holds them.
///
/// Per-I/O join state (splitting a wrapping access into two cache ops
/// and merging their completions) lives in a slab pool, so the piece
/// callbacks capture only {this, record*} and the steady-state I/O
/// path never allocates (DESIGN.md §10).
class RedyDevice : public IDevice {
 public:
  RedyDevice(sim::Simulation* sim, CacheClient* client,
             CacheClient::CacheId cache, uint64_t capacity)
      : sim_(sim), client_(client), cache_(cache), capacity_(capacity) {}

  /// Installs a local-tier device (not owned) that absorbs work the
  /// remote cache rejects under overload. 0 disables (legacy behavior:
  /// indefinite short retries on backpressure).
  void SetLocalFallback(IDevice* local) { fallback_ = local; }

  void ReadAsync(uint64_t offset, void* dst, uint64_t len,
                 Callback cb) override {
    if (!Covers(offset, len)) {
      // Bytes the Redy tier never stored (evicted, or written during a
      // brownout window) may still live in the local fallback.
      if (fallback_ != nullptr && fallback_->Covers(offset, len)) {
        fallback_reads_++;
        fallback_->ReadAsync(offset, dst, len, std::move(cb));
        return;
      }
      cb(Status::NotFound("evicted from Redy tier"));
      return;
    }
    Submit(offset, dst, nullptr, len, /*end=*/0, std::move(cb));
  }

  void WriteAsync(uint64_t offset, const void* src, uint64_t len,
                  Callback cb) override {
    Submit(offset, nullptr, src, len, offset + len, std::move(cb));
  }

  void WriteSync(uint64_t offset, const void* src, uint64_t len) override {
    const uint64_t a = offset % capacity_;
    const uint64_t first = std::min(len, capacity_ - a);
    client_->Poke(cache_, a, src, first);
    if (first < len) {
      client_->Poke(cache_, 0, static_cast<const uint8_t*>(src) + first,
                    len - first);
    }
    if (offset + len > high_water_) high_water_ = offset + len;
  }

  bool Covers(uint64_t offset, uint64_t len) const override {
    // Valid window: the last `capacity_` bytes that were written.
    const uint64_t low =
        high_water_ > capacity_ ? high_water_ - capacity_ : 0;
    return offset >= low && offset + len <= high_water_;
  }

  std::string name() const override { return "redy"; }
  uint64_t capacity() const { return capacity_; }
  CacheClient::CacheId cache_id() const { return cache_; }
  /// Pieces served by the local fallback under overload.
  uint64_t fallback_reads() const { return fallback_reads_; }
  uint64_t fallback_writes() const { return fallback_writes_; }

 private:
  /// Pooled per-I/O state: the device callback plus the join of the
  /// (at most two) cache ops the access maps onto. `end` carries the
  /// high-water advance for writes (0 for reads).
  struct Pending {
    Callback cb;
    Status error;
    uint64_t end = 0;
    int remaining = 0;
    /// Set when any piece was served by the local fallback: the Redy
    /// tier then must not claim coverage of the written range.
    bool degraded = false;
  };

  /// ResourceExhausted submissions retry this many times before
  /// degrading to the fallback (when one is installed).
  static constexpr uint32_t kFallbackAfterRetries = 4;

  /// Splits an access that wraps the modulo boundary into <= 2 cache
  /// ops and joins their completions on a pooled record.
  void Submit(uint64_t offset, void* dst, const void* src, uint64_t len,
              uint64_t end, Callback cb) {
    const uint64_t a = offset % capacity_;
    const uint64_t first = std::min(len, capacity_ - a);
    Pending* p = pending_pool_.Acquire();
    p->cb = std::move(cb);
    p->error = Status::OK();
    p->end = end;
    p->remaining = first == len ? 1 : 2;
    p->degraded = false;
    SubmitOne(offset, a, dst, src, first, p, 0);
    if (first < len) {
      SubmitOne(offset + first, 0,
                dst == nullptr ? nullptr
                               : static_cast<uint8_t*>(dst) + first,
                src == nullptr ? nullptr
                               : static_cast<const uint8_t*>(src) + first,
                len - first, p, 0);
    }
  }

  void SubmitOne(uint64_t log_offset, uint64_t cache_addr, void* dst,
                 const void* src, uint64_t len, Pending* p,
                 uint32_t attempts) {
    const uint32_t thread = next_thread_++;
    auto piece_cb = [this, p](Status s) { OnPiece(p, s); };
    static_assert(CacheClient::Callback::fits_inline<decltype(piece_cb)>(),
                  "piece callback must not heap-allocate");
    Status st =
        src == nullptr
            ? client_->Read(cache_, cache_addr, dst, len, piece_cb, thread)
            : client_->Write(cache_, cache_addr, src, len, piece_cb, thread);
    if (st.ok()) return;
    // Brownout shed (Unavailable) degrades straight to the local tier;
    // backpressure/quota (ResourceExhausted) gets a few short retries
    // first — a momentarily full ring drains in ~one poll interval,
    // only a sustained rejection stream is worth abandoning the tier.
    if (fallback_ != nullptr &&
        (st.IsUnavailable() ||
         (st.IsResourceExhausted() && attempts >= kFallbackAfterRetries))) {
      ServeFromFallback(log_offset, dst, src, len, p);
      return;
    }
    if (st.IsResourceExhausted()) {
      // Batch ring momentarily full: retry shortly.
      auto retry = [this, log_offset, cache_addr, dst, src, len, p,
                    attempts] {
        SubmitOne(log_offset, cache_addr, dst, src, len, p, attempts + 1);
      };
      static_assert(sim::Simulation::Callback::fits_inline<decltype(retry)>(),
                    "submit retry must not heap-allocate");
      sim_->After(500, retry);
      return;
    }
    OnPiece(p, st);
  }

  void ServeFromFallback(uint64_t log_offset, void* dst, const void* src,
                         uint64_t len, Pending* p) {
    p->degraded = true;
    auto piece_cb = [this, p](Status s) { OnPiece(p, s); };
    if (src == nullptr) {
      if (!fallback_->Covers(log_offset, len)) {
        OnPiece(p, Status::NotFound("evicted from fallback tier"));
        return;
      }
      fallback_reads_++;
      fallback_->ReadAsync(log_offset, dst, len, piece_cb);
    } else {
      fallback_writes_++;
      fallback_->WriteAsync(log_offset, src, len, piece_cb);
    }
  }

  void OnPiece(Pending* p, Status s) {
    if (!s.ok() && p->error.ok()) p->error = s;
    if (--p->remaining > 0) return;
    // A degraded write landed (at least partly) outside the Redy tier:
    // leaving high_water_ alone keeps Covers() truthful, so reads of
    // those bytes fall through to a tier that has them.
    if (p->error.ok() && !p->degraded && p->end > high_water_) {
      high_water_ = p->end;
    }
    // Release before firing: the callback may re-enter this device.
    Callback cb = std::move(p->cb);
    const Status err = p->error;
    p->cb = Callback();
    pending_pool_.Release(p);
    if (cb) cb(err);
  }

  sim::Simulation* sim_;
  CacheClient* client_;
  CacheClient::CacheId cache_;
  uint64_t capacity_;
  uint64_t high_water_ = 0;
  uint32_t next_thread_ = 0;
  IDevice* fallback_ = nullptr;
  uint64_t fallback_reads_ = 0;
  uint64_t fallback_writes_ = 0;
  common::SlabPool<Pending> pending_pool_;
};

}  // namespace redy::faster

#endif  // REDY_FASTER_REDY_DEVICE_H_
