#include "redy/cache_client.h"

#include <algorithm>
#include <cstring>

#include "chaos/buggify.h"
#include "common/logging.h"

namespace redy {

namespace {

// Work-request id tagging: top byte distinguishes op kinds on a QP.
constexpr uint64_t kWrKindOneSided = 1ULL << 56;
constexpr uint64_t kWrKindBatch = 2ULL << 56;
constexpr uint64_t kWrKindChain = 3ULL << 56;
constexpr uint64_t kWrKindMask = 0xffULL << 56;
constexpr uint64_t kWrIdMask = ~kWrKindMask;

/// Slot size of the one-sided staging ring; larger ops stage in a
/// transient registered buffer.
constexpr uint64_t kOneSidedSlotBytes = 64 * kKiB;
/// Consecutive connection resets after which a VM counts as unhealthy:
/// its reads divert to the replica until a sub-op succeeds.
constexpr uint32_t kUnhealthyAfter = 2;
/// kBusy retries back off this much longer than transport-fault
/// retries (the server asked for air, not for a fast retry).
constexpr uint64_t kBusyBackoffMultiplier = 4;
/// Capacity of each client thread's batch ring (requests).
constexpr uint32_t kBatchRingCapacity = 1 << 14;
/// Lease TTL of two-sided configurations (DESIGN.md §7).
constexpr uint64_t kLeaseTtlNs = 1 * kMillisecond;
// Overload governance, when Options::govern_overload is on (DESIGN.md §12).
constexpr double kRetryBudgetFraction = 0.2;  // of fresh sub-op traffic
constexpr double kHedgeBudgetFraction = 0.1;
constexpr double kBudgetMinReserve = 10.0;    // whole retries (or hedges)
constexpr uint32_t kBreakerTripFailures = 6;  // consecutive, per VM
constexpr uint64_t kBreakerOpenNs = 100 * kMicrosecond;
constexpr uint64_t kBrownoutTripSignals = 24;  // timeouts + kBusy
constexpr uint64_t kBrownoutWindowNs = 100 * kMicrosecond;
constexpr uint64_t kBrownoutDurationNs = 100 * kMicrosecond;

}  // namespace

CacheClient::CacheClient(sim::Simulation* sim, rdma::Fabric* fabric,
                         CacheManager* manager, net::ServerId node,
                         Options options)
    : sim_(sim),
      fabric_(fabric),
      manager_(manager),
      node_(node),
      nic_(fabric->NicAt(node)),
      options_(options) {
  if (options_.telemetry != nullptr) {
    tel_ = options_.telemetry;
  } else {
    owned_telemetry_ = std::make_unique<telemetry::Telemetry>(sim_);
    tel_ = owned_telemetry_.get();
  }
  gauge_copies_active_ =
      tel_->metrics().GetGauge("redy.recovery.copies_active");
  gauge_pending_recoveries_ =
      tel_->metrics().GetGauge("redy.recovery.pending");
  if (options_.govern_overload) {
    retry_budget_.Configure(kRetryBudgetFraction, kBudgetMinReserve);
    hedge_budget_.Configure(kHedgeBudgetFraction, kBudgetMinReserve);
  }
  breakers_.Reserve(64);
  manager_->SetVmLossHandler(
      [this](cluster::VmId vm, sim::SimTime deadline) {
        OnVmLoss(vm, deadline);
      });
}

CacheClient::~CacheClient() {
  for (auto& [id, cache] : caches_) {
    for (auto& t : cache->threads) {
      if (t->poller) t->poller->Stop();
    }
  }
}

uint64_t CacheClient::ApiCallCostNs() const {
  uint64_t cost = options_.costs.api_call_ns;
  if (!options_.costs.lockfree_rings) cost += options_.costs.lock_cost_ns;
  return cost;
}

// ---------------------------------------------------------------------------
// Cache lifecycle
// ---------------------------------------------------------------------------

Result<CacheClient::CacheId> CacheClient::Create(
    uint64_t capacity, const Slo& slo, sim::SimTime duration,
    const std::vector<uint8_t>* file) {
  auto alloc_or = manager_->Allocate(capacity, slo, duration, node_,
                                     options_.region_bytes);
  if (!alloc_or.ok()) return alloc_or.status();
  auto id_or = Install(std::move(*alloc_or), capacity, slo,
                       duration != kDurationInfinite);
  if (!id_or.ok()) return id_or;

  if (file != nullptr) {
    // Populate the cache with the prefix of `file` of length `capacity`
    // (Table 1). Population happens at allocation time, before the
    // cache is handed to the application, so it is applied directly to
    // region memory.
    CacheEntry* cache = FindCache(*id_or);
    const uint64_t n = std::min<uint64_t>(file->size(), capacity);
    uint64_t off = 0;
    while (off < n) {
      const uint32_t vr = static_cast<uint32_t>(off / cache->region_bytes);
      const uint64_t roff = off % cache->region_bytes;
      const uint64_t chunk =
          std::min(n - off, cache->region_bytes - roff);
      const auto& p = cache->regions[vr].placement;
      rdma::MemoryRegion* mr = p.server->region(p.region_index);
      if (mr == nullptr) break;  // remote server agent: no backdoor
      std::memcpy(mr->data() + roff, file->data() + off, chunk);
      off += chunk;
    }
  }
  return id_or;
}

Result<CacheClient::CacheId> CacheClient::CreateWithConfig(
    uint64_t capacity, const RdmaConfig& cfg, uint32_t record_bytes,
    bool spot) {
  auto alloc_or = manager_->AllocateWithConfig(
      capacity, cfg, record_bytes, spot, node_, options_.region_bytes,
      /*max_hops=*/5, /*avoid_nodes=*/nullptr, options_.max_regions_per_vm);
  if (!alloc_or.ok()) return alloc_or.status();
  Slo slo;
  slo.record_bytes = record_bytes;
  return Install(std::move(*alloc_or), capacity, slo, spot);
}

Result<CacheClient::CacheId> CacheClient::Install(
    CacheManager::Allocation alloc, uint64_t capacity, const Slo& slo,
    bool spot) {
  auto cache = std::make_unique<CacheEntry>();
  cache->id = next_id_++;
  RegisterCacheMetrics(cache.get());
  cache->cfg = alloc.config;
  cache->record_bytes = slo.record_bytes;
  cache->capacity = capacity;
  cache->region_bytes = alloc.region_bytes;
  cache->slo = slo;
  cache->spot = spot;
  cache->price_per_hour = alloc.price_per_hour;
  for (const auto& rp : alloc.regions) {
    VRegion vr;
    vr.placement = rp;
    cache->regions.push_back(std::move(vr));
  }

  StartThreads(cache.get());

  const CacheId id = cache->id;
  caches_.emplace(id, std::move(cache));
  return id;
}

void CacheClient::StartThreads(CacheEntry* cache) {
  for (auto& t : cache->threads) {
    if (t->poller) t->poller->Stop();
  }
  cache->threads.clear();
  for (uint32_t t = 0; t < cache->cfg.c; t++) {
    auto thread = std::make_unique<ClientThread>();
    thread->index = t;
    thread->cache = cache;
    thread->ring = std::make_unique<ringbuf::SpscRing<SubOp>>(
        kBatchRingCapacity);
    thread->rng = Rng(0xC11E47 ^ (cache->id << 8) ^ t);
    ClientThread* thread_ptr = thread.get();
    thread->poller = std::make_unique<sim::Poller>(
        sim_, options_.costs.poll_interval_ns,
        [this, cache, thread_ptr]() -> uint64_t {
          return PollThread(*cache, *thread_ptr);
        });
    thread->poller->Start();
    cache->threads.push_back(std::move(thread));
  }
}

void CacheClient::ReleaseConnection(Connection& conn) {
  if (conn.qp != nullptr) conn.qp->Break();
  if (conn.req_staging != nullptr) nic_->DeregisterMemory(conn.req_staging);
  if (conn.resp_ring != nullptr) nic_->DeregisterMemory(conn.resp_ring);
  if (conn.onesided_ring != nullptr) {
    nic_->DeregisterMemory(conn.onesided_ring);
  }
  // FlatMap traversal is hash-ordered; deregister in wr-id order so
  // teardown stays deterministic regardless of table layout.
  std::vector<std::pair<uint64_t, rdma::MemoryRegion*>> mrs;
  conn.transient_mrs.ForEach([&](uint64_t wr, rdma::MemoryRegion* mr) {
    mrs.emplace_back(wr, mr);
  });
  std::sort(mrs.begin(), mrs.end());
  for (auto& [wr, mr] : mrs) nic_->DeregisterMemory(mr);
  conn.req_staging = nullptr;
  conn.resp_ring = nullptr;
  conn.onesided_ring = nullptr;
  conn.transient_mrs.Clear();
}

void CacheClient::DropConnections(CacheEntry& cache, cluster::VmId vm) {
  for (auto& t : cache.threads) {
    auto it = t->conns.find(vm);
    if (it == t->conns.end()) continue;
    ReleaseConnection(*it->second);
    t->conns.erase(it);
  }
}

Status CacheClient::Delete(CacheId id) {
  CacheEntry* cache = FindCache(id);
  if (cache == nullptr) return Status::NotFound("unknown cache");
  cache->deleted = true;
  // Recovery work on this cache is moot now; tear it down before the
  // region table goes away (releases queued targets and copy links).
  AbortCacheRecovery(*cache);
  // Outstanding operations complete with an error instead of silently
  // losing their callbacks.
  FailAllPending(*cache, Status::Aborted("cache deleted"));
  for (auto& t : cache->threads) {
    if (t->poller) t->poller->Stop();
    for (auto& [vm, conn] : t->conns) ReleaseConnection(*conn);
  }
  // Deallocate every VM still holding regions (replicas included).
  std::vector<cluster::VmId> vms;
  for (const auto& vr : cache->regions) {
    vms.push_back(vr.placement.vm_id);
    if (vr.replica.has_value()) vms.push_back(vr.replica->vm_id);
  }
  std::sort(vms.begin(), vms.end());
  vms.erase(std::unique(vms.begin(), vms.end()), vms.end());
  for (cluster::VmId vm : vms) manager_->ReleaseVm(vm);
  caches_.erase(id);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Read / Write submission
// ---------------------------------------------------------------------------

Status CacheClient::Read(CacheId id, uint64_t addr, void* dst, uint64_t size,
                         Callback cb, uint32_t app_thread) {
  return Submit(id, OpCode::kRead, addr, dst, nullptr, size, std::move(cb),
                app_thread);
}

Status CacheClient::Write(CacheId id, uint64_t addr, const void* src,
                          uint64_t size, Callback cb, uint32_t app_thread) {
  return Submit(id, OpCode::kWrite, addr, nullptr, src, size, std::move(cb),
                app_thread);
}

Status CacheClient::ReadIndirect(CacheId id, uint64_t ptr_addr, void* dst,
                                 uint64_t size, Callback cb,
                                 uint32_t app_thread) {
  return Submit(id, OpCode::kReadPtr, ptr_addr, dst, nullptr, size,
                std::move(cb), app_thread);
}

Status CacheClient::Submit(CacheId id, OpCode op, uint64_t addr, void* dst,
                           const void* src, uint64_t size, Callback cb,
                           uint32_t app_thread) {
  CacheEntry* cache = FindCache(id);
  if (cache == nullptr || cache->deleted) {
    return Status::NotFound("unknown cache");
  }
  if (size == 0) return Status::InvalidArgument("zero-size I/O");
  // An indirect read addresses only the 8-byte pointer word directly;
  // the data it names is region-relative and bounds-checked at resolve
  // time (NIC chain hop, server chase, or client fallback hop).
  const bool indirect = (op == OpCode::kReadPtr);
  const uint64_t direct_span = indirect ? 8 : size;
  if (addr + direct_span > cache->capacity || addr + direct_span < addr) {
    return Status::OutOfRange("I/O beyond cache capacity");
  }
  if (indirect) {
    if (addr % cache->region_bytes + 8 > cache->region_bytes) {
      return Status::InvalidArgument(
          "indirect pointer word straddles a region boundary");
    }
    if (size > cache->region_bytes) {
      return Status::OutOfRange("indirect read larger than a region");
    }
  }
  ClientThread& thread =
      *cache->threads[app_thread % cache->threads.size()];

  // Split on region boundaries. Writes to a replicated cache are
  // applied to both copies, so each piece gets a replica twin. An
  // indirect read is always a single piece: its pointer word lives in
  // one region and the chase stays inside that region.
  const uint64_t first_region = addr / cache->region_bytes;
  const uint64_t last_region = (addr + direct_span - 1) / cache->region_bytes;
  const uint32_t pieces = static_cast<uint32_t>(last_region - first_region + 1);
  const bool duplicate =
      cache->replicated && op == OpCode::kWrite;
  const uint32_t total_pieces = duplicate ? pieces * 2 : pieces;

  // All pieces must fit in the ring or we reject the call atomically.
  if (thread.ring->Size() + total_pieces > thread.ring->Capacity()) {
    return Status::ResourceExhausted("client thread batch ring full");
  }

  // Per-tenant admission control: an over-quota submission fails fast
  // instead of queueing work its own quota will starve (DESIGN.md §12).
  if (cache->quota.configured() && !cache->quota.TryTake(sim_->Now())) {
    cache->ctr.admission_rejected->Inc();
    return Status::ResourceExhausted("tenant quota exceeded");
  }
  // Brownout: under sustained overload the lowest-priority tenants are
  // shed at the front door, before any remote work — byte-exact.
  if (options_.govern_overload && BrownoutSheds(cache->priority)) {
    cache->ctr.shed_ops->Inc();
    cache->ctr.shed_bytes->Inc(size);
    return Status::Unavailable("brownout: low-priority traffic shed");
  }

  // Borrow a pooled op record; recycled fields are reinitialized here
  // (gen is monotonic and deliberately left alone).
  OpState* state = op_pool_.Acquire();
  state->cb = std::move(cb);
  state->remaining = total_pieces;
  state->error = Status::OK();
  state->start = sim_->Now();
  state->is_read = (op != OpCode::kWrite);
  state->bytes = size;
  state->cache = cache;
  state->span = 0;
  if (telemetry::SpanTracer* tr = ActiveTracer()) {
    state->span = tr->NextId();
    tr->AsyncBegin(CacheTrack(*cache, *tr),
                   state->is_read ? "read" : "write", "op", state->span,
                   state->start, {"addr", addr}, {"bytes", size});
  }

  // Count the op in flight before the first piece can complete:
  // a piece failing synchronously below must find the op accounted.
  cache->inflight_ops++;
  cache->ctr.inflight->Set(static_cast<int64_t>(cache->inflight_ops));

  // The capacity pre-check makes the pushes below succeed in every
  // single-submitter schedule, but a full ring mid-split must not
  // crash or half-apply a replicated write silently: once any piece
  // fails to stage, no further piece is pushed and the un-pushed
  // remainder completes with ResourceExhausted, so the op's callback
  // surfaces the backpressure instead of a REDY_CHECK abort.
  uint64_t off = addr;
  uint64_t remaining = direct_span;
  uint8_t* d = static_cast<uint8_t*>(dst);
  const uint8_t* s = static_cast<const uint8_t*>(src);
  uint32_t failed_pieces = 0;
  while (remaining > 0) {
    const uint32_t vr = static_cast<uint32_t>(off / cache->region_bytes);
    const uint64_t roff = off % cache->region_bytes;
    const uint64_t chunk = std::min(remaining, cache->region_bytes - roff);
    SubOp sub;
    sub.op = op;
    sub.vregion = vr;
    sub.offset = roff;
    // Indirect: len is the data size, not the 8-byte word being split.
    sub.len = static_cast<uint32_t>(indirect ? size : chunk);
    sub.dst = d;
    sub.src = s;
    sub.state = state;
    sub.state_gen = state->gen;
    sub.thread = thread.index;
    if (duplicate) {
      SubOp twin = sub;
      twin.to_replica = true;
      if (failed_pieces > 0 || !thread.ring->TryPush(std::move(twin))) {
        failed_pieces++;
      } else {
        retry_budget_.Deposit();
        hedge_budget_.Deposit();
      }
    }
    if (failed_pieces > 0 || !thread.ring->TryPush(std::move(sub))) {
      failed_pieces++;
    } else {
      retry_budget_.Deposit();
      hedge_budget_.Deposit();
    }
    off += chunk;
    remaining -= chunk;
    if (d != nullptr) d += chunk;
    if (s != nullptr) s += chunk;
  }
  if (failed_pieces > 0) {
    const Status st =
        Status::ResourceExhausted("client thread batch ring full");
    const uint32_t gen = state->gen;
    for (uint32_t i = 0; i < failed_pieces; i++) {
      SubOp fail;
      fail.op = op;
      fail.state = state;
      fail.state_gen = gen;
      CompleteSubOp(*cache, fail, st);
    }
  }
  if (thread.poller) thread.poller->Wake();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Client-thread data path
// ---------------------------------------------------------------------------

uint64_t CacheClient::PollThread(CacheEntry& cache, ClientThread& thread) {
  uint64_t consumed = 0;
  const sim::SimTime now = sim_->Now();

  // Resilience sweep: connections whose QP broke are torn down so the
  // next op rebuilds them, and connections carrying a sub-op past its
  // deadline are reset (the stalled in-flight work fails with
  // DeadlineExceeded and retries if enabled). Collected first because
  // ResetConnection erases from thread.conns.
  std::vector<cluster::VmId> reset_broken;
  std::vector<cluster::VmId> reset_expired;
  for (auto& [vm, conn] : thread.conns) {
    if (conn->qp == nullptr || conn->qp->broken() || conn->poisoned) {
      reset_broken.push_back(vm);
      continue;
    }
    if (options_.sub_op_timeout_ns == 0) continue;
    uint64_t expired = 0;
    conn->onesided_ops.ForEach([&](uint64_t, const SubOp& op) {
      if (op.issued_at + options_.sub_op_timeout_ns <= now) expired++;
    });
    for (uint32_t s = 0; s < conn->slot_count.size(); s++) {
      const SubOp* ops = conn->slot_arena.data() + s * conn->slot_stride;
      for (uint32_t i = 0; i < conn->slot_count[s]; i++) {
        if (ops[i].issued_at + options_.sub_op_timeout_ns <= now) expired++;
      }
    }
    if (expired > 0) {
      cache.ctr.timeouts->Inc(expired);
      // Timeouts are overload signals too: a saturated server looks
      // like a slow one long before it starts pushing back explicitly.
      NoteOverloadSignal(cache, expired);
      if (telemetry::SpanTracer* tr = ActiveTracer()) {
        tr->Instant(CacheTrack(cache, *tr), "timeout", "op", now,
                    {"vm", vm}, {"expired", expired});
      }
      reset_expired.push_back(vm);
    }
  }
  for (cluster::VmId vm : reset_broken) {
    consumed += ResetConnection(cache, thread, vm,
                                Status::Unavailable("connection broken"));
  }
  for (cluster::VmId vm : reset_expired) {
    consumed += ResetConnection(
        cache, thread, vm,
        Status::DeadlineExceeded("sub-op deadline exceeded"));
  }

  // Retries whose backoff elapsed re-enter through the replay queue.
  for (auto it = thread.delayed.begin(); it != thread.delayed.end();) {
    if (it->due <= now) {
      thread.replay.push_back(std::move(it->op));
      it = thread.delayed.erase(it);
    } else {
      ++it;
    }
  }

  for (auto& [vm, conn] : thread.conns) {
    consumed += DrainCompletions(cache, thread, *conn);
    consumed += DrainResponses(cache, thread, *conn);
  }
  consumed += DrainSubmissions(cache, thread);

  // Flush partially filled batches (the ring went empty): latency wins
  // over waiting for the batch to fill.
  for (auto& [vm, conn] : thread.conns) {
    if (!conn->current.empty()) {
      bool flushed = false;
      consumed += Flush(cache, thread, *conn, &flushed);
    }
  }

  if (consumed == 0) {
    // Pending backoffs keep the poller at full rate: a retry must be
    // picked up promptly, not after an idle-back-off sleep.
    if (!thread.delayed.empty()) return options_.costs.poll_interval_ns;
    consumed = options_.costs.idle_poll_ns;
    if (!options_.costs.numa_affinitized) {
      consumed = std::max(consumed, options_.costs.numa_idle_poll_ns);
      if (thread.rng.Bernoulli(options_.costs.sched_stall_probability)) {
        consumed += static_cast<uint64_t>(thread.rng.Exponential(
            static_cast<double>(options_.costs.sched_stall_mean_ns)));
      }
    }
    thread.idle_streak++;
    if (options_.costs.park_idle_pollers &&
        options_.costs.numa_affinitized) {
      // Park when every way work can reach this thread is wired to
      // Wake() it: submissions and replays wake explicitly, one-sided
      // completions land on the notifier-wired send CQ, two-sided
      // responses land on the notifier-wired response ring, and a QP
      // error rings the send-CQ doorbell. A thread waiting out an op's
      // RTT otherwise burns ~RTT/poll_interval empty sweeps per op,
      // which dominates data-path wall clock. Timeout-armed configs
      // only park once provably quiet for a while with nothing in
      // flight, because sub-op expiry is observed by the sweep itself.
      if (ThreadWaitingOnRemote(thread) ||
          (thread.idle_streak >= options_.costs.park_after_idle_polls &&
           ThreadFullyIdle(thread))) {
        thread.poller->Park();
      }
    } else {
      // Legacy exponential back-off after a long idle run (event-count
      // hygiene for the !numa path, whose idle sweep draws rng).
      const uint32_t doublings = std::min(thread.idle_streak / 64, 11u);
      consumed = std::max<uint64_t>(consumed,
                                    options_.costs.poll_interval_ns
                                        << doublings);
    }
  } else {
    thread.idle_streak = 0;
  }
  return consumed;
}

bool CacheClient::ThreadWaitingOnRemote(const ClientThread& thread) const {
  // Sub-op expiry is detected by the polling sweep, not by an event,
  // so any armed timeout requires the cadence.
  if (options_.sub_op_timeout_ns != 0) return false;
  if (!thread.ring->Empty() || !thread.replay.empty() ||
      !thread.delayed.empty()) {
    return false;
  }
  for (const auto& [vm, conn] : thread.conns) {
    // A broken QP is torn down by the resilience sweep; an unflushed
    // batch or undrained completion is local work. In-flight remote
    // ops are fine: their terminal events (send-CQ push, response-ring
    // landing, error doorbell) all wake this thread.
    if (conn->qp == nullptr || conn->qp->broken()) return false;
    if (!conn->current.empty()) return false;
    if (!conn->qp->send_cq().Empty()) return false;
  }
  return true;
}

bool CacheClient::ThreadFullyIdle(const ClientThread& thread) {
  if (!thread.ring->Empty() || !thread.replay.empty() ||
      !thread.delayed.empty()) {
    return false;
  }
  for (const auto& [vm, conn] : thread.conns) {
    if (conn->inflight_batches > 0 || !conn->onesided_ops.empty() ||
        !conn->current.empty()) {
      return false;
    }
    if (conn->qp != nullptr && !conn->qp->send_cq().Empty()) return false;
  }
  return true;
}

void CacheClient::WakeThread(CacheId id, uint32_t thread_index) {
  CacheEntry* cache = FindCache(id);
  if (cache == nullptr || cache->deleted || cache->threads.empty()) return;
  auto& thread = *cache->threads[thread_index % cache->threads.size()];
  if (thread.poller) thread.poller->Wake();
}

uint64_t CacheClient::DrainCompletions(CacheEntry& cache,
                                       ClientThread& thread,
                                       Connection& conn) {
  uint64_t consumed = 0;
  rdma::WorkCompletion wc;
  while (conn.qp != nullptr && conn.qp->send_cq().Poll(&wc, 1) == 1) {
    const uint64_t kind = wc.wr_id & kWrKindMask;
    const uint64_t id = wc.wr_id & kWrIdMask;
    if (kind == kWrKindOneSided || kind == kWrKindChain) {
      // Single-probe consume of the in-flight record (find+erase fused).
      SubOp op;
      if (!conn.onesided_ops.Take(id, &op)) continue;
      rdma::MemoryRegion* transient = nullptr;
      conn.transient_mrs.Take(id, &transient);
      Status st = wc.status == StatusCode::kOk
                      ? Status::OK()
                      : Status(wc.status, "one-sided op failed");
      if (wc.status == StatusCode::kProtectionError) {
        // The NIC fenced this op off (revoked epoch / dropped MR). For
        // a chain this is the single poisoned completion of an abort —
        // the tail hops never ran and zero bytes landed.
        cache.ctr.fence_stale_rejected->Inc();
      }
      const uint8_t* payload = nullptr;
      if (transient != nullptr) {
        payload = transient->data();
      } else if (op.staging_slot != UINT32_MAX) {
        payload = conn.onesided_ring->data() +
                  op.staging_slot * kOneSidedSlotBytes;
      }
      if (st.ok() && kind == kWrKindOneSided &&
          op.op == OpCode::kReadPtr && op.chase_hop == 0) {
        // First hop of an unchained pointer chase landed: the staged
        // word is the region-relative data offset. Requeue the data
        // hop against it (the chained path does this on the NIC).
        uint64_t word = 0;
        if (payload != nullptr) std::memcpy(&word, payload, sizeof(word));
        if (transient != nullptr) nic_->DeregisterMemory(transient);
        if (op.staging_slot != UINT32_MAX) {
          conn.onesided_slot_busy[op.staging_slot] = false;
          op.staging_slot = UINT32_MAX;
        }
        consumed += options_.costs.response_handle_ns;
        if (op.issued) {
          VRegion& vr = cache.regions[op.vregion];
          REDY_CHECK(vr.inflight_subops > 0);
          vr.inflight_subops--;
          op.issued = false;
        }
        if (word + op.len > cache.region_bytes || word + op.len < word) {
          FinishSubOp(cache, thread, op,
                      Status::OutOfRange("indirect pointer out of range"));
          continue;
        }
        op.offset = word;
        op.chase_hop = 1;
        cache.ctr.chain_fallbacks->Inc();
        thread.replay.push_back(std::move(op));
        continue;
      }
      const bool read_kind =
          op.op == OpCode::kRead || op.op == OpCode::kReadPtr;
      if (st.ok() && read_kind) {
        // Copy from the staging slot (or transient buffer) to the app.
        if (payload != nullptr && op.dst != nullptr) {
          std::memcpy(op.dst, payload, op.len);
        }
        consumed += options_.costs.response_handle_ns +
                    static_cast<uint64_t>(
                        options_.costs.response_copy_ns_per_byte * op.len);
      } else {
        consumed += options_.costs.response_handle_ns;
      }
      if (transient != nullptr) nic_->DeregisterMemory(transient);
      if (op.staging_slot != UINT32_MAX) {
        conn.onesided_slot_busy[op.staging_slot] = false;
      }
      cache.ctr.one_sided_ops->Inc();
      if (st.ok() && op.op == OpCode::kReadPtr) {
        cache.ctr.indirect_reads->Inc();
        if (kind == kWrKindChain) cache.ctr.chained_reads->Inc();
      }
      FinishSubOp(cache, thread, op, st);
    } else if (kind == kWrKindBatch) {
      if (wc.status == StatusCode::kOk) continue;  // request delivered
      // The request batch never reached the server's ring. The server
      // consumes batches strictly in sequence order, so the hole a
      // dropped batch leaves makes every later batch on this
      // connection invisible to it — writing off just this batch would
      // strand the rest until their deadline expires. Poison the whole
      // connection instead: the resilience sweep tears it down, fails
      // all staged ops with a retryable status, and the next op
      // reconnects with a fresh sequence space.
      conn.poisoned = true;
    }
  }
  return consumed;
}

uint64_t CacheClient::DrainResponses(CacheEntry& cache, ClientThread& thread,
                                     Connection& conn) {
  if (conn.resp_ring == nullptr) return 0;
  uint64_t consumed = 0;
  const uint32_t q = cache.cfg.q;
  while (true) {
    const uint32_t slot = static_cast<uint32_t>((conn.next_resp - 1) % q);
    uint8_t* base = conn.resp_ring->data() + slot * conn.resp_slot_bytes;
    // Acquire-gate on the seq word: over the socket backend the
    // responder worker release-publishes it after the batch body.
    if (LoadBatchSeqAcquire(base) != conn.next_resp) break;
    BatchHeader hdr;
    std::memcpy(&hdr, base, sizeof(hdr));

    // Credit grant (DESIGN.md §12): the server sizes our send window to
    // its current backlog. 0 carries no grant (legacy servers); the
    // kDropCreditGrant buggify point models a grant lost in transit.
    if (options_.govern_overload && hdr.credits != 0 &&
        !BuggifyFires(options_.buggify,
                      static_cast<uint32_t>(
                          chaos::BuggifyPoint::kDropCreditGrant))) {
      conn.send_window = std::max(1u, std::min(hdr.credits, q));
    }

    // Stale-response guard: if the batch that carried this seq was
    // already written off (a NIC send error freed its queue depth, and
    // the slot may since have been restaged for seq + q), the server's
    // late response must be discarded without touching the arena or the
    // depth accounting — both were settled when the batch was failed.
    if (conn.slot_count[slot] == 0 || conn.slot_seq[slot] != hdr.seq) {
      consumed += options_.costs.response_handle_ns;
      BatchHeader zero;
      std::memcpy(base, &zero, sizeof(zero));
      conn.next_resp++;
      continue;
    }

    const uint32_t count = conn.slot_count[slot];
    SubOp* ops = conn.slot_arena.data() + slot * conn.slot_stride;
    // Structural validation before interpreting any entry: a truncated,
    // overrunning, or count-mismatched batch fails every op it carried
    // with a typed error and consumes the slot — never a misparse. The
    // connection stays up (tearing it down here would invalidate the
    // caller's iteration over thread.conns).
    const Status batch_st =
        ValidateResponseSlot(base, conn.resp_slot_bytes, count);
    if (!batch_st.ok()) {
      cache.ctr.checksum_mismatches->Inc();
      for (uint32_t i = 0; i < count; i++) {
        FinishSubOp(cache, thread, ops[i],
                    Status::DataCorruption("malformed response batch"));
      }
      consumed += options_.costs.response_handle_ns;
      conn.slot_count[slot] = 0;
      BatchHeader zero;
      std::memcpy(base, &zero, sizeof(zero));
      if (conn.inflight_batches > 0) conn.inflight_batches--;
      conn.next_resp++;
      continue;
    }
    const uint8_t* p = base + sizeof(BatchHeader);
    for (uint32_t i = 0; i < count; i++) {
      SubOp& op = ops[i];
      ResponseHeader rh;
      std::memcpy(&rh, p, sizeof(rh));
      p += sizeof(rh);
      Status st = rh.status == 0
                      ? Status::OK()
                      : Status(static_cast<StatusCode>(rh.status),
                               "server rejected request");
      // Content validation: checksum first (a flipped bit anywhere
      // reads as corruption), then the epoch echo for fenced writes.
      const Status entry_st = ValidateResponseEntry(
          rh, p, op.epoch, options_.epoch_fencing && op.op == OpCode::kWrite);
      if (!entry_st.ok()) {
        if (entry_st.IsDataCorruption()) {
          cache.ctr.checksum_mismatches->Inc();
        } else {
          cache.ctr.fence_stale_rejected->Inc();
        }
        st = entry_st;
      }
      VRegion& op_vr = cache.regions[op.vregion];
      if (st.ok() && !op.to_replica) {
        // Piggybacked renewal: a healthy two-sided response proves the
        // placement is still serving this client under this epoch.
        op_vr.lease_expires_at = sim_->Now() + kLeaseTtlNs;
      }
      if (op.op == OpCode::kLease) {
        // Header-only control op: no OpState to complete.
        op_vr.lease_pending = false;
        if (st.ok()) cache.ctr.lease_renewals->Inc();
        p += rh.len;
        consumed += options_.costs.response_handle_ns;
        continue;
      }
      if (st.ok() &&
          (op.op == OpCode::kRead || op.op == OpCode::kReadPtr)) {
        if (op.dst != nullptr) std::memcpy(op.dst, p, rh.len);
        consumed += static_cast<uint64_t>(
            options_.costs.response_copy_ns_per_byte * rh.len);
      }
      p += rh.len;
      consumed += options_.costs.response_handle_ns;
      cache.ctr.batched_ops->Inc();
      if (st.ok() && op.op == OpCode::kReadPtr) {
        cache.ctr.indirect_reads->Inc();
      }
      FinishSubOp(cache, thread, op, st);
    }
    conn.slot_count[slot] = 0;
    // Clear the header so a stale seq can never confuse a later lap.
    BatchHeader zero;
    std::memcpy(base, &zero, sizeof(zero));
    if (conn.inflight_batches > 0) conn.inflight_batches--;
    conn.next_resp++;
  }
  return consumed;
}

uint64_t CacheClient::DrainSubmissions(CacheEntry& cache,
                                       ClientThread& thread) {
  uint64_t consumed = 0;
  // Bounded per iteration so one sweep cannot starve the simulation.
  constexpr int kMaxPerPoll = 4096;
  for (int n = 0; n < kMaxPerPoll; n++) {
    // Replayed (previously parked) ops have priority over new arrivals.
    SubOp op;
    if (!thread.replay.empty()) {
      op = std::move(thread.replay.front());
      thread.replay.pop_front();
    } else {
      auto popped = thread.ring->TryPop();
      if (!popped.has_value()) break;
      op = std::move(*popped);
      consumed += options_.costs.batch_ring_pop_ns;
      if (!options_.costs.lockfree_rings) {
        consumed += options_.costs.lock_cost_ns;
        if (thread.rng.Bernoulli(options_.costs.lock_convoy_probability)) {
          consumed += static_cast<uint64_t>(thread.rng.Exponential(
              static_cast<double>(options_.costs.lock_convoy_mean_ns)));
        }
      }
    }
    if (!options_.costs.numa_affinitized) {
      consumed += options_.costs.numa_penalty_ns;
    }

    VRegion& vr = cache.regions[op.vregion];
    const bool read_kind =
        op.op == OpCode::kRead || op.op == OpCode::kReadPtr;
    const bool paused = (read_kind && vr.reads_paused) ||
                        (op.op == OpCode::kWrite && vr.writes_paused);
    if (paused) {
      cache.ctr.parked_ops->Inc();
      if (telemetry::SpanTracer* tr = ActiveTracer()) {
        tr->Instant(CacheTrack(cache, *tr), "park", "op", sim_->Now(),
                    {"vregion", op.vregion});
      }
      vr.parked.push_back(std::move(op));
      continue;
    }
    if (op.to_replica && !vr.replica.has_value()) {
      if (op.op == OpCode::kWrite) {
        // Degraded region (replica lost, repair pending): the primary
        // write carries the operation.
        CompleteSubOp(cache, op, Status::OK());
        continue;
      }
      // Hedged read whose replica vanished: fall back to the primary.
      op.to_replica = false;
    }
    // Lease freshness fence (two-sided configs, DESIGN.md §7): a write
    // against a region whose lease lapsed is deferred until a renewal
    // round trip confirms no revocation was missed. Bounded: past the
    // deferral budget the write fails with ProtectionError.
    if (options_.epoch_fencing && cache.cfg.s > 0 &&
        op.op == OpCode::kWrite && !op.to_replica &&
        op.len <= cache.record_bytes && vr.lease_expires_at != 0 &&
        sim_->Now() >= vr.lease_expires_at) {
      if (!vr.lease_pending) RequestLease(cache, thread, op.vregion);
      // Deferrals are tracked separately from op.attempts: waiting on a
      // lease renewal must not consume the retry budget of an op that
      // later hits a real fault.
      if (op.lease_defers < options_.max_retries + 4) {
        op.lease_defers++;
        cache.ctr.lease_expirations->Inc();
        thread.delayed.push_back(DelayedOp{
            sim_->Now() + options_.retry_backoff_ns, std::move(op)});
        continue;
      }
      // Renewal is slow or being dropped: issue anyway. Correctness
      // never rests on the lease — the server's epoch check and the
      // response epoch echo still fence a stale write; deferring only
      // avoids issuing writes that are already doomed.
    }
    // Health-based diversion: a read whose primary VM keeps losing its
    // connection goes to the replica instead of queueing up behind
    // another reset cycle.
    if (op.op == OpCode::kRead && !op.to_replica && vr.replica.has_value()) {
      const uint32_t* h = thread.vm_health.Find(vr.placement.vm_id);
      // Divert only when the replica actually looks healthier than the
      // primary (else the hedge piles load onto the sicker VM) and the
      // hedge budget grants it.
      if (h != nullptr && *h >= kUnhealthyAfter &&
          ReplicaHedgeUseful(cache, thread, vr) && TryWithdrawHedge(cache)) {
        op.to_replica = true;
        cache.ctr.hedged_to_replica->Inc();
        if (telemetry::SpanTracer* tr = ActiveTracer()) {
          tr->Instant(CacheTrack(cache, *tr), "hedge_to_replica", "op",
                      sim_->Now(), {"vregion", op.vregion});
        }
      }
    }
    // Circuit breaker (DESIGN.md §12): an open breaker means the target
    // VM keeps failing transport-level — don't queue more work behind
    // it. Reads divert to a breaker-clear replica; everything else
    // (primary writes, replica twins) sheds with Unavailable, which is
    // never acked, so a half-shed replicated write surfaces as an error
    // instead of silently diverging the copies.
    if (options_.govern_overload) {
      const cluster::VmId target_vm =
          op.to_replica ? vr.replica->vm_id : vr.placement.vm_id;
      if (!BreakerAllows(cache, target_vm)) {
        if (op.op == OpCode::kRead && !op.to_replica &&
            vr.replica.has_value() &&
            BreakerAllows(cache, vr.replica->vm_id)) {
          op.to_replica = true;
          cache.ctr.hedged_to_replica->Inc();
        } else {
          const Status st = Status::Unavailable("circuit breaker open");
          cache.ctr.shed_ops->Inc();
          cache.ctr.shed_bytes->Inc(op.len);
          // Straight to retry/completion: a breaker shed must not feed
          // the breaker's own failure window (FinishSubOp would).
          if (!MaybeRetry(cache, thread, op, st)) {
            CompleteSubOp(cache, op, st);
          }
          continue;
        }
      }
    }
    const CacheManager::RegionPlacement& placement =
        op.to_replica ? *vr.replica : vr.placement;

    auto conn_or =
        EnsureConnection(cache, thread, placement.vm_id, placement.server);
    if (!conn_or.ok()) {
      FinishSubOp(cache, thread, op, conn_or.status());
      continue;
    }
    Connection& conn = **conn_or;

    // One-sided path: pure one-sided configurations, and any operation
    // larger than the record size the rings were provisioned for (big
    // transfers never go through the message rings).
    if (cache.cfg.s == 0 || op.len > cache.record_bytes) {
      bool issued = false;
      consumed += IssueOneSided(cache, thread, conn, &op, &issued);
      if (!issued) {
        thread.replay.push_front(std::move(op));
        break;  // backpressure: stop draining to preserve order
      }
      continue;
    }

    // Never let the accumulating batch exceed b: if it is full and the
    // connection is backpressured, hold the op and stop draining.
    if (conn.current.size() >= cache.cfg.b) {
      bool flushed = false;
      consumed += Flush(cache, thread, conn, &flushed);
      if (!flushed) {
        thread.replay.push_front(std::move(op));
        break;
      }
    }
    conn.current.push_back(std::move(op));
    consumed += options_.costs.batch_append_ns;
    if (conn.current.size() >= cache.cfg.b) {
      bool flushed = false;
      consumed += Flush(cache, thread, conn, &flushed);
      if (!flushed) break;  // connection at queue depth
    }
  }
  return consumed;
}

uint64_t CacheClient::IssueOneSided(CacheEntry& cache, ClientThread& thread,
                                    Connection& conn, SubOp* op,
                                    bool* issued) {
  *issued = false;
  if (conn.qp == nullptr || conn.qp->broken()) {
    FinishSubOp(cache, thread, *op, Status::Unavailable("connection broken"));
    *issued = true;  // consumed here (failed or queued for retry)
    return 0;
  }
  if (conn.qp->outstanding() >= cache.cfg.q) return 0;  // backpressure

  uint64_t consumed = 0;
  const VRegion& vr = cache.regions[op->vregion];
  if (op->to_replica && !vr.replica.has_value()) {
    if (op->op == OpCode::kWrite) {
      CompleteSubOp(cache, *op, Status::OK());  // degraded region
      *issued = true;
      return 0;
    }
    // Hedged read whose replica vanished: re-route to the primary
    // (this connection is the replica VM's).
    op->to_replica = false;
    thread.replay.push_back(std::move(*op));
    *issued = true;
    return 0;
  }
  const rdma::RemoteKey key =
      op->to_replica ? vr.replica->key : vr.placement.key;
  op->epoch = key.epoch;
  const uint64_t wr = thread.next_wr_id++;

  rdma::MemoryRegion* staging = nullptr;
  uint64_t staging_off = 0;
  if (op->len <= kOneSidedSlotBytes) {
    if (conn.onesided_ring == nullptr) {
      conn.onesided_ring = nic_->RegisterMemory(
          kOneSidedSlotBytes * cache.cfg.q);
      conn.onesided_slot_busy.assign(cache.cfg.q, false);
    }
    uint32_t slot = UINT32_MAX;
    for (uint32_t i = 0; i < conn.onesided_slot_busy.size(); i++) {
      if (!conn.onesided_slot_busy[i]) {
        slot = i;
        break;
      }
    }
    if (slot == UINT32_MAX) return 0;  // all slots busy
    conn.onesided_slot_busy[slot] = true;
    op->staging_slot = slot;
    staging = conn.onesided_ring;
    staging_off = slot * kOneSidedSlotBytes;
  } else {
    staging = nic_->RegisterMemory(op->len);
    conn.transient_mrs.Insert(wr, staging);
  }

  Status st;
  if (op->op == OpCode::kWrite) {
    std::memcpy(staging->data() + staging_off, op->src, op->len);
    consumed += static_cast<uint64_t>(
        options_.costs.batch_stage_ns_per_byte * op->len);
    st = conn.qp->PostWrite(kWrKindOneSided | wr, staging, staging_off, key,
                            op->offset, op->len);
  } else if (op->op == OpCode::kReadPtr && options_.chain_reads &&
             !op->chain_disabled) {
    // NIC-offloaded pointer chase (DESIGN.md §15): hop 0 lands the
    // 8-byte pointer word, hop 1 dereferences it — one doorbell, one
    // completion, one poller wakeup for the whole chase.
    rdma::ChainHop hops[2];
    hops[0].key = key;
    hops[0].remote_offset = op->offset;
    hops[0].local_offset = staging_off;
    hops[0].len = 8;
    hops[1].key = key;
    hops[1].local_offset = staging_off;  // scatter in hop order: data last
    hops[1].len = op->len;
    hops[1].addr_from_prev = true;  // full-word pointer (mask ~0, shift 0)
    if (BuggifyFires(options_.buggify,
                     static_cast<uint32_t>(
                         chaos::BuggifyPoint::kChainMidFault))) {
      // Adversarial branch: the dependent hop races an epoch bump and
      // must abort at the responder with ONE poisoned completion and
      // zero bytes landed; the fence-redirect retry path recovers.
      hops[1].key.epoch = key.epoch - 1;
    }
    st = conn.qp->PostChain(kWrKindChain | wr, staging, hops, 2);
  } else if (op->op == OpCode::kReadPtr && op->chase_hop == 0) {
    // Chaining disabled: chase hop-by-hop. Fetch the pointer word
    // first; its completion requeues the data hop (two round trips,
    // two wakeups — the baseline chain_bench measures against).
    st = conn.qp->PostRead(kWrKindOneSided | wr, staging, staging_off, key,
                           op->offset, 8);
  } else {
    st = conn.qp->PostRead(kWrKindOneSided | wr, staging, staging_off, key,
                           op->offset, op->len);
  }
  consumed += conn.qp->PostCostNs(
      op->op == OpCode::kWrite &&
              op->len <= fabric_->params().inline_threshold_bytes
          ? op->len
          : 0);

  if (!st.ok()) {
    if (op->staging_slot != UINT32_MAX) {
      conn.onesided_slot_busy[op->staging_slot] = false;
      op->staging_slot = UINT32_MAX;
    }
    rdma::MemoryRegion* transient = nullptr;
    if (conn.transient_mrs.Take(wr, &transient)) {
      nic_->DeregisterMemory(transient);
    }
    if (st.IsResourceExhausted()) return consumed;  // retry later
    FinishSubOp(cache, thread, *op, st);
    *issued = true;
    return consumed;
  }
  cache.regions[op->vregion].inflight_subops++;
  op->issued = true;
  op->issued_at = sim_->Now();
  conn.onesided_ops.Insert(wr, *op);
  op->state = nullptr;  // ownership moved to the in-flight table
  *issued = true;
  return consumed;
}

uint64_t CacheClient::Flush(CacheEntry& cache, ClientThread& thread,
                            Connection& conn, bool* flushed) {
  *flushed = false;
  if (conn.current.empty()) {
    *flushed = true;
    return 0;
  }
  uint64_t consumed = 0;

  // Single-request batches translate to one-sided verbs (Section 4.3).
  // Lease round trips are message-ring control ops and never convert.
  if (conn.current.size() == 1 && options_.costs.one_sided_singletons &&
      conn.current[0].op != OpCode::kLease &&
      conn.current[0].len <= kOneSidedSlotBytes) {
    bool issued = false;
    consumed = IssueOneSided(cache, thread, conn, &conn.current[0], &issued);
    if (issued) {
      conn.current.clear();
      *flushed = true;
    }
    // On backpressure conn.current[0] is untouched and retried later.
    return consumed;
  }

  if (conn.qp == nullptr || conn.qp->broken()) {
    std::vector<SubOp> ops = std::move(conn.current);
    conn.current.clear();
    for (SubOp& op : ops) {
      FinishSubOp(cache, thread, op, Status::Unavailable("connection broken"));
    }
    *flushed = true;
    return consumed;
  }
  // Backpressure. Depth alone is not enough: a batch written off early
  // (NIC send error) frees its depth while its arena slot still holds
  // the staged ops of a batch the server may yet answer — so the slot
  // for next_seq must itself be free, or staging into it would destroy
  // a live batch's ops (they would never complete).
  const uint32_t next_slot =
      static_cast<uint32_t>((conn.next_seq - 1) % cache.cfg.q);
  // Credit flow shrinks the effective window below q when the server
  // granted fewer credits (clamped to [1, q] so progress never stops).
  const uint32_t window =
      options_.govern_overload && conn.send_window != 0
          ? std::min(cache.cfg.q, std::max(1u, conn.send_window))
          : cache.cfg.q;
  if (conn.inflight_batches >= window ||
      conn.slot_count[next_slot] != 0 ||
      conn.qp->outstanding() >= conn.qp->max_depth()) {
    return consumed;  // backpressure
  }

  // Sub-ops whose replica vanished while queued: write twins complete
  // as no-ops (the primary write carries the operation); hedged reads
  // re-route to the primary through the replay queue.
  for (size_t i = 0; i < conn.current.size();) {
    SubOp& op = conn.current[i];
    if (op.to_replica && !cache.regions[op.vregion].replica.has_value()) {
      if (op.op == OpCode::kWrite) {
        CompleteSubOp(cache, op, Status::OK());
      } else {
        op.to_replica = false;
        thread.replay.push_back(std::move(op));
      }
      conn.current.erase(conn.current.begin() + static_cast<long>(i));
    } else {
      i++;
    }
  }
  if (conn.current.empty()) {
    *flushed = true;
    return consumed;
  }

  const uint32_t q = cache.cfg.q;
  const uint64_t seq = conn.next_seq;
  const uint32_t slot = static_cast<uint32_t>((seq - 1) % q);
  uint8_t* base = conn.req_staging->data() + slot * conn.req_slot_bytes;

  uint64_t off = sizeof(BatchHeader);
  for (SubOp& op : conn.current) {
    const VRegion& vr = cache.regions[op.vregion];
    const rdma::RemoteKey rkey =
        op.to_replica ? vr.replica->key : vr.placement.key;
    RequestHeader rh;
    rh.op = op.op;
    rh.priority = cache.priority;
    rh.len = op.len;
    rh.region = op.to_replica ? vr.replica->region_index
                              : vr.placement.region_index;
    rh.epoch = rkey.epoch;
    rh.offset = op.offset;
    rh.checksum = RequestChecksum(rh, op.src);
    op.epoch = rkey.epoch;
    std::memcpy(base + off, &rh, sizeof(rh));
    off += sizeof(rh);
    if (op.op == OpCode::kWrite) {
      std::memcpy(base + off, op.src, op.len);
      off += op.len;
      consumed += static_cast<uint64_t>(
          options_.costs.batch_stage_ns_per_byte * op.len);
    }
  }
  BatchHeader hdr;
  hdr.seq = seq;
  hdr.count = static_cast<uint32_t>(conn.current.size());
  hdr.bytes = static_cast<uint32_t>(off);
  std::memcpy(base, &hdr, sizeof(hdr));
  consumed += options_.costs.batch_stage_ns;

  Status st = conn.qp->PostWrite(kWrKindBatch | seq, conn.req_staging,
                                 slot * conn.req_slot_bytes,
                                 conn.req_ring_key,
                                 slot * conn.req_slot_bytes, off);
  consumed += conn.qp->PostCostNs(
      off <= fabric_->params().inline_threshold_bytes ? off : 0);
  if (!st.ok()) {
    if (st.IsResourceExhausted()) return consumed;  // retry later
    std::vector<SubOp> ops = std::move(conn.current);
    conn.current.clear();
    for (SubOp& op : ops) FinishSubOp(cache, thread, op, st);
    *flushed = true;
    return consumed;
  }

  for (SubOp& op : conn.current) {
    // Lease round trips are control ops: they carry no OpState and are
    // not counted against their region's in-flight window (a pending
    // lease must not hold up a migration drain gate).
    if (op.op != OpCode::kLease) {
      cache.regions[op.vregion].inflight_subops++;
      op.issued = true;
    }
    op.issued_at = sim_->Now();
  }
  // Bump-copy the batch into its fixed-stride arena slot: SubOps are
  // trivially copyable, so this is one memcpy-class move with no
  // per-flush vector churn.
  REDY_CHECK(conn.current.size() <= conn.slot_stride);
  conn.slot_count[slot] = static_cast<uint32_t>(conn.current.size());
  conn.slot_seq[slot] = seq;
  std::copy(conn.current.begin(), conn.current.end(),
            conn.slot_arena.data() + slot * conn.slot_stride);
  conn.current.clear();
  conn.inflight_batches++;
  conn.next_seq++;
  if (telemetry::SpanTracer* tr = ActiveTracer()) {
    tr->Instant(CacheTrack(cache, *tr), "batch_flush", "op", sim_->Now(),
                {"ops", conn.slot_count[slot]}, {"bytes", off});
  }
  *flushed = true;
  return consumed;
}

Result<CacheClient::Connection*> CacheClient::EnsureConnection(
    CacheEntry& cache, ClientThread& thread, cluster::VmId vm,
    CacheServer* server) {
  auto it = thread.conns.find(vm);
  if (it != thread.conns.end()) return it->second.get();

  if (server == nullptr) return Status::Unavailable("no server for VM");
  auto info_or = server->Connect(cache.cfg, cache.record_bytes);
  if (!info_or.ok()) return info_or.status();
  const auto& info = *info_or;

  auto conn = std::make_unique<Connection>();
  conn->vm = vm;
  conn->server = server;
  conn->conn_index = info.conn_index;
  conn->qp = nic_->CreateQueuePair(
      std::max<uint32_t>(cache.cfg.q, 2));  // room for response writes
  REDY_RETURN_IF_ERROR(conn->qp->Connect(info.server_qp));
  // Data-path convention (DESIGN.md §10): in-flight tables are reserved
  // at several times the connection's depth bound, so steady-state
  // occupancy stays low, probe loops exit on their first predictable
  // branch, and the tables never rehash on the data path.
  conn->onesided_ops.Reserve(4 * cache.cfg.q);
  conn->transient_mrs.Reserve(4 * cache.cfg.q);
  conn->current.reserve(cache.cfg.b);
  conn->send_window = cache.cfg.q;  // full window until a grant shrinks it

  // Completions and landed responses are what this busy-polling thread
  // snoops for; have them wake its poller if parked. Captures ids, not
  // pointers: the lambdas outlive any one connection or cache.
  const CacheId wake_id = cache.id;
  const uint32_t wake_thread = thread.index;
  auto wake = [this, wake_id, wake_thread] { WakeThread(wake_id, wake_thread); };
  static_assert(sim::Simulation::Callback::fits_inline<decltype(wake)>(),
                "poller wake notifier must stay inline");
  conn->qp->send_cq().SetNotifier(wake);

  if (cache.cfg.s > 0) {
    // Preallocate the batch arena: q slots of stride b.
    conn->slot_stride = cache.cfg.b;
    conn->slot_arena.resize(static_cast<size_t>(cache.cfg.q) * cache.cfg.b);
    conn->slot_count.assign(cache.cfg.q, 0);
    conn->slot_seq.assign(cache.cfg.q, 0);
    conn->req_ring_key = info.request_ring_key;
    conn->req_slot_bytes = info.request_slot_bytes;
    conn->req_staging =
        nic_->RegisterMemory(conn->req_slot_bytes * cache.cfg.q);
    conn->resp_slot_bytes =
        ResponseSlotBytes(cache.cfg.b, cache.record_bytes);
    conn->resp_ring =
        nic_->RegisterMemory(conn->resp_slot_bytes * cache.cfg.q);
    conn->resp_ring->SetRemoteWriteNotifier(wake);
    REDY_RETURN_IF_ERROR(server->SetResponseRing(
        conn->conn_index, conn->resp_ring->remote_key(),
        conn->resp_slot_bytes));
  }

  Connection* out = conn.get();
  thread.conns.emplace(vm, std::move(conn));
  return out;
}

void CacheClient::CompleteSubOp(CacheEntry& cache, SubOp& op,
                                const Status& status) {
  if (op.op == OpCode::kLease) {
    // Control op: no OpState. A lease round trip that dies with its
    // connection just clears the pending flag so the next deferred
    // write re-requests one.
    if (op.vregion < cache.regions.size()) {
      cache.regions[op.vregion].lease_pending = false;
    }
    return;
  }
  if (op.state == nullptr) return;
  OpState& state = *op.state;
  if (state.gen != op.state_gen) {
    // Stale copy: the op this SubOp belonged to already completed and
    // its record was recycled. Nothing to do.
    op.state = nullptr;
    return;
  }
  if (!status.ok() && state.error.ok()) state.error = status;
  // Sub-ops counted against their region at issue time are released
  // here; ops that failed before issue (e.g. a broken connection at
  // submit) were never counted.
  if (op.issued) {
    VRegion& vr = cache.regions[op.vregion];
    REDY_CHECK(vr.inflight_subops > 0);
    vr.inflight_subops--;
    op.issued = false;
  }
  REDY_CHECK(state.remaining > 0);
  state.remaining--;
  if (state.remaining == 0) {
    const uint64_t latency = sim_->Now() - state.start;
    if (state.error.ok()) {
      if (state.is_read) {
        cache.ctr.reads_completed->Inc();
        cache.ctr.read_bytes->Inc(state.bytes);
        cache.ctr.read_latency->Add(latency);
      } else {
        cache.ctr.writes_completed->Inc();
        cache.ctr.write_bytes->Inc(state.bytes);
        cache.ctr.write_latency->Add(latency);
      }
    } else {
      cache.ctr.errors->Inc();
    }
    if (state.span != 0) {
      if (telemetry::SpanTracer* tr = ActiveTracer()) {
        tr->AsyncEnd(CacheTrack(cache, *tr),
                     state.is_read ? "read" : "write", "op", state.span,
                     sim_->Now(), {"ok", state.error.ok() ? 1u : 0u});
      }
    }
    REDY_CHECK(cache.inflight_ops > 0);
    cache.inflight_ops--;
    cache.ctr.inflight->Set(static_cast<int64_t>(cache.inflight_ops));
    // Release the record before firing the callback: the callback may
    // re-enter Submit (and reuse the slot) or delete the cache. The
    // generation bump invalidates any stale SubOp copies first.
    Callback cb = std::move(state.cb);
    const Status err = state.error;
    state.cb = Callback();
    state.gen++;
    op_pool_.Release(op.state);
    op.state = nullptr;
    if (cb) cb(err);
    return;
  }
  op.state = nullptr;
}

void CacheClient::FinishSubOp(CacheEntry& cache, ClientThread& thread,
                              SubOp& op, const Status& status) {
  const bool live = op.state != nullptr && op.state->gen == op.state_gen;
  if (live && op.vregion < cache.regions.size()) {
    const VRegion& vr = cache.regions[op.vregion];
    const cluster::VmId vm = op.to_replica && vr.replica.has_value()
                                 ? vr.replica->vm_id
                                 : vr.placement.vm_id;
    if (status.ok()) {
      // A success clears the target VM's health record.
      thread.vm_health.Erase(vm);
      RecordBreakerResult(cache, vm, true);
    } else if (status.IsUnavailable() || status.IsDeadlineExceeded() ||
               status.IsBusy()) {
      // Transport-ish failures (and explicit pushback) feed the VM's
      // breaker; deterministic rejections (bounds, protocol) do not.
      RecordBreakerResult(cache, vm, false);
    }
  }
  if (live && status.IsBusy()) {
    cache.ctr.busy_pushbacks->Inc();
    NoteOverloadSignal(cache);
  }
  if (MaybeRetry(cache, thread, op, status)) return;
  CompleteSubOp(cache, op, status);
}

bool CacheClient::MaybeRetry(CacheEntry& cache, ClientThread& thread,
                             SubOp& op, const Status& status) {
  if (status.ok() || cache.deleted || op.state == nullptr ||
      op.state->gen != op.state_gen) {
    return false;
  }
  // A fenced-off op (revoked epoch at a migration cutover) re-routes to
  // the post-cutover placement: re-submission parks it behind the
  // region's pause and it replays against the new placement with a
  // fresh key. Gets a retry floor even when retries are disabled —
  // fence redirects are the designed cutover path, not a failure.
  const bool fence_redirect =
      options_.epoch_fencing && status.IsProtectionError();
  if (fence_redirect) {
    if (op.attempts >= std::max(options_.max_retries, 4u)) return false;
  } else {
    if (op.attempts >= options_.max_retries) return false;
    // Only transport-level failures are retryable: the op may simply
    // not have reached (or returned from) the server. Server
    // rejections (bounds, protocol) are deterministic and surface
    // immediately. Corruption is transport-level: the bytes (not the
    // op) were bad, and a fresh attempt restages them. Busy is the
    // server's explicit pushback: retryable, with a longer backoff.
    if (!status.IsUnavailable() && !status.IsDeadlineExceeded() &&
        !status.IsDataCorruption() && !status.IsBusy()) {
      return false;
    }
    // Global retry budget (DESIGN.md §12): retries are capped at a
    // fraction of fresh traffic, so a correlated failure burst decays
    // instead of metastasizing. Fence redirects above are exempt —
    // they are the designed migration cutover path, not a failure.
    if (retry_budget_.enabled() && !retry_budget_.TryWithdraw()) {
      cache.ctr.retry_budget_exhausted->Inc();
      return false;
    }
  }

  if (op.issued) {
    VRegion& vr = cache.regions[op.vregion];
    REDY_CHECK(vr.inflight_subops > 0);
    vr.inflight_subops--;
    op.issued = false;
  }
  op.staging_slot = UINT32_MAX;  // the old slot/ring is gone or freed
  op.attempts++;
  cache.ctr.retries->Inc();
  if (fence_redirect) cache.ctr.fence_redirects->Inc();
  if (fence_redirect && options_.chain_reads &&
      op.op == OpCode::kReadPtr && !op.chain_disabled) {
    // Poisoned chain at an epoch fence: chains are epoch-checked on
    // every hop, but plain READs are unfenced, so the hop-by-hop chase
    // still serves against a revoked-but-readable region mid-cutover.
    // Fall back for this op's remaining attempts. (Counted as a
    // chain_fallback when the pointer-word hop completes.)
    op.chain_disabled = 1;
  }
  if (telemetry::SpanTracer* tr = ActiveTracer()) {
    tr->Instant(CacheTrack(cache, *tr), "retry", "op", sim_->Now(),
                {"vregion", op.vregion}, {"attempt", op.attempts});
  }

  // Hedge retried reads to the replica: the primary just failed, the
  // replica holds the same bytes — unless the replica looks even less
  // healthy, or the hedge budget is spent.
  if (op.op == OpCode::kRead && !op.to_replica &&
      cache.regions[op.vregion].replica.has_value() &&
      ReplicaHedgeUseful(cache, thread, cache.regions[op.vregion]) &&
      TryWithdrawHedge(cache)) {
    op.to_replica = true;
    cache.ctr.hedged_to_replica->Inc();
  }

  // Exponential backoff with +-50% jitter (decorrelates retry storms
  // across threads; all randomness is the thread's seeded rng).
  uint64_t base = options_.retry_backoff_ns;
  // Explicit kBusy pushback asked for air, not a fast retry; the
  // kIgnoreBusyPushback buggify point models a client that retries a
  // busy server as eagerly as a crashed one.
  if (status.IsBusy() &&
      !BuggifyFires(options_.buggify,
                    static_cast<uint32_t>(
                        chaos::BuggifyPoint::kIgnoreBusyPushback))) {
    base *= kBusyBackoffMultiplier;
  }
  for (uint32_t i = 1; i < op.attempts && base < options_.retry_backoff_max_ns;
       i++) {
    base <<= 1;
  }
  base = std::min(base, options_.retry_backoff_max_ns);
  const uint64_t backoff = base / 2 + thread.rng.Uniform(base + 1);
  thread.delayed.push_back(DelayedOp{sim_->Now() + backoff, std::move(op)});
  return true;
}

uint64_t CacheClient::ResetConnection(CacheEntry& cache, ClientThread& thread,
                                      cluster::VmId vm,
                                      const Status& status) {
  auto it = thread.conns.find(vm);
  if (it == thread.conns.end()) return 0;
  Connection& conn = *it->second;

  // Strip every sub-op the connection carries, then release it. The QP
  // break cancels in-flight remote effects (their landed handlers
  // observe broken_), so a retried write can never race its own ghost.
  std::vector<SubOp> inflight;
  {
    // FlatMap iteration order depends on table history; sort by wr-id so
    // the failure callbacks fire in post order (determinism).
    std::vector<std::pair<uint64_t, SubOp>> onesided;
    conn.onesided_ops.ForEach([&](uint64_t wr, const SubOp& op) {
      onesided.emplace_back(wr, op);
    });
    std::sort(onesided.begin(), onesided.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    conn.onesided_ops.Clear();
    for (auto& [wr, op] : onesided) inflight.push_back(op);
  }
  for (size_t s = 0; s < conn.slot_count.size(); s++) {
    SubOp* ops = conn.slot_arena.data() + s * conn.slot_stride;
    for (uint32_t i = 0; i < conn.slot_count[s]; i++) {
      inflight.push_back(ops[i]);
    }
    conn.slot_count[s] = 0;
  }
  for (SubOp& op : conn.current) inflight.push_back(op);
  conn.current.clear();
  conn.inflight_batches = 0;
  ReleaseConnection(conn);
  thread.conns.erase(it);

  cache.ctr.reconnects->Inc();
  if (telemetry::SpanTracer* tr = ActiveTracer()) {
    tr->Instant(CacheTrack(cache, *tr), "conn_reset", "op", sim_->Now(),
                {"vm", vm});
  }
  thread.vm_health[vm]++;

  uint64_t consumed = options_.costs.response_handle_ns;
  for (SubOp& op : inflight) {
    FinishSubOp(cache, thread, op, status);
    consumed += options_.costs.response_handle_ns;
  }
  return consumed;
}

void CacheClient::FailAllPending(CacheEntry& cache, const Status& status) {
  for (auto& t : cache.threads) {
    while (true) {
      auto op = t->ring->TryPop();
      if (!op.has_value()) break;
      CompleteSubOp(cache, *op, status);
    }
    for (size_t i = 0; i < t->replay.size(); i++) {
      CompleteSubOp(cache, t->replay[i], status);
    }
    t->replay.clear();
    for (DelayedOp& d : t->delayed) CompleteSubOp(cache, d.op, status);
    t->delayed.clear();
    for (auto& [vm, conn] : t->conns) {
      for (SubOp& op : conn->current) CompleteSubOp(cache, op, status);
      conn->current.clear();
      for (size_t s = 0; s < conn->slot_count.size(); s++) {
        SubOp* ops = conn->slot_arena.data() + s * conn->slot_stride;
        const uint32_t n = conn->slot_count[s];
        conn->slot_count[s] = 0;
        for (uint32_t i = 0; i < n; i++) CompleteSubOp(cache, ops[i], status);
      }
      conn->inflight_batches = 0;
      // Sort by wr-id: FlatMap iteration order is not the insertion
      // order, and callback firing order must be deterministic.
      std::vector<std::pair<uint64_t, SubOp>> onesided;
      conn->onesided_ops.ForEach([&](uint64_t wr, const SubOp& op) {
        onesided.emplace_back(wr, op);
      });
      std::sort(onesided.begin(), onesided.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      conn->onesided_ops.Clear();
      for (auto& [wr, op] : onesided) CompleteSubOp(cache, op, status);
    }
  }
  for (VRegion& vr : cache.regions) {
    for (SubOp& op : vr.parked) CompleteSubOp(cache, op, status);
    vr.parked.clear();
  }
}

void CacheClient::ParkOp(CacheEntry& cache, SubOp op) {
  cache.ctr.parked_ops->Inc();
  cache.regions[op.vregion].parked.push_back(std::move(op));
}

void CacheClient::ReplayParked(CacheEntry& cache, uint32_t vregion) {
  VRegion& vr = cache.regions[vregion];
  for (SubOp& op : vr.parked) {
    const uint32_t t = op.thread % cache.threads.size();
    cache.threads[t]->replay.push_back(std::move(op));
    if (cache.threads[t]->poller) cache.threads[t]->poller->Wake();
  }
  vr.parked.clear();
}

bool CacheClient::BuggifyFires(chaos::Buggify* b, uint32_t point) const {
  return b != nullptr && b->Decide(static_cast<chaos::BuggifyPoint>(point));
}

// ---------------------------------------------------------------------------
// Overload resilience (DESIGN.md §12)
// ---------------------------------------------------------------------------

Status CacheClient::SetTenantQuota(CacheId id, double ops_per_sec,
                                   double burst, uint8_t priority) {
  CacheEntry* cache = FindCache(id);
  if (cache == nullptr || cache->deleted) {
    return Status::NotFound("unknown cache");
  }
  cache->quota.Configure(ops_per_sec, burst, sim_->Now());
  cache->priority = priority;
  return Status::OK();
}

void CacheClient::NoteOverloadSignal(CacheEntry& cache, uint64_t count) {
  if (!options_.govern_overload) return;
  const sim::SimTime now = sim_->Now();
  if (now - brownout_.window_start > kBrownoutWindowNs) {
    brownout_.window_start = now;
    brownout_.signals = 0;
  }
  brownout_.signals += count;
  if (brownout_.signals < kBrownoutTripSignals) return;
  brownout_.signals = 0;
  brownout_.window_start = now;
  // Tripping again while a shedding window is already active means the
  // current level is not enough: escalate to the next priority class.
  brownout_.level =
      now < brownout_.until ? std::min(brownout_.level + 1, 2u) : 1;
  brownout_.until = now + kBrownoutDurationNs;
  cache.ctr.brownout_trips->Inc();
  if (telemetry::SpanTracer* tr = ActiveTracer()) {
    tr->Instant(CacheTrack(cache, *tr), "brownout_trip", "op", now,
                {"level", brownout_.level});
  }
}

bool CacheClient::BrownoutSheds(uint8_t priority) const {
  if (priority == 0) return false;  // highest class is never shed
  if (brownout_.level == 0 || sim_->Now() >= brownout_.until) return false;
  const uint8_t floor = brownout_.level >= 2 ? 1 : 2;
  return priority >= floor;
}

bool CacheClient::BreakerAllows(CacheEntry& cache, cluster::VmId vm) {
  if (!options_.govern_overload) return true;
  overload::CircuitBreaker* b = breakers_.Find(vm);
  if (b == nullptr) return true;  // no failure history: closed
  const bool was_open = b->state == overload::CircuitBreaker::kOpen;
  if (!b->Allow(sim_->Now())) return false;
  if (was_open) {
    // This admission is the half-open probe.
    cache.ctr.breaker_probes->Inc();
  }
  return true;
}

void CacheClient::RecordBreakerResult(CacheEntry& cache, cluster::VmId vm,
                                      bool success) {
  if (!options_.govern_overload || vm == cluster::kInvalidVm) return;
  if (success) {
    overload::CircuitBreaker* b = breakers_.Find(vm);
    if (b != nullptr) b->RecordSuccess();
    return;
  }
  overload::CircuitBreaker& b = breakers_[vm];
  if (b.RecordFailure(sim_->Now(), kBreakerTripFailures, kBreakerOpenNs)) {
    cache.ctr.breaker_trips->Inc();
    if (telemetry::SpanTracer* tr = ActiveTracer()) {
      tr->Instant(CacheTrack(cache, *tr), "breaker_trip", "op", sim_->Now(),
                  {"vm", vm});
    }
  }
}

bool CacheClient::TryWithdrawHedge(CacheEntry& cache) {
  if (hedge_budget_.TryWithdraw()) return true;
  cache.ctr.hedge_budget_exhausted->Inc();
  return false;
}

bool CacheClient::ReplicaHedgeUseful(CacheEntry& cache,
                                     const ClientThread& thread,
                                     const VRegion& vr) {
  if (!vr.replica.has_value()) return false;
  const uint32_t* ph = thread.vm_health.Find(vr.placement.vm_id);
  const uint32_t* rh = thread.vm_health.Find(vr.replica->vm_id);
  const uint32_t primary = ph == nullptr ? 0 : *ph;
  const uint32_t replica = rh == nullptr ? 0 : *rh;
  if (replica > primary) {
    cache.ctr.hedge_suppressed->Inc();
    return false;
  }
  return true;
}

void CacheClient::RequestLease(CacheEntry& cache, ClientThread& thread,
                               uint32_t vregion) {
  VRegion& vr = cache.regions[vregion];
  if (BuggifyFires(options_.buggify,
                   static_cast<uint32_t>(
                       chaos::BuggifyPoint::kDropLeaseRenewal))) {
    // Modeled message loss: the renewal never leaves the client. The
    // next deferred write re-requests one.
    return;
  }
  vr.lease_pending = true;
  SubOp lease;
  lease.op = OpCode::kLease;
  lease.vregion = vregion;
  lease.thread = thread.index;
  thread.replay.push_back(std::move(lease));
  if (thread.poller) thread.poller->Wake();
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

CacheClient::CacheEntry* CacheClient::FindCache(CacheId id) {
  auto it = caches_.find(id);
  return it == caches_.end() ? nullptr : it->second.get();
}

const CacheClient::CacheEntry* CacheClient::FindCache(CacheId id) const {
  auto it = caches_.find(id);
  return it == caches_.end() ? nullptr : it->second.get();
}

uint64_t CacheClient::capacity(CacheId id) const {
  const CacheEntry* c = FindCache(id);
  return c == nullptr ? 0 : c->capacity;
}

Result<RdmaConfig> CacheClient::config(CacheId id) const {
  const CacheEntry* c = FindCache(id);
  if (c == nullptr) return Status::NotFound("unknown cache");
  return c->cfg;
}

const CacheClient::CounterField CacheClient::kCounterFields[] = {
    {"redy.client.reads_completed", &Stats::reads_completed,
     &CacheCounters::reads_completed},
    {"redy.client.writes_completed", &Stats::writes_completed,
     &CacheCounters::writes_completed},
    {"redy.client.read_bytes", &Stats::read_bytes, &CacheCounters::read_bytes},
    {"redy.client.write_bytes", &Stats::write_bytes,
     &CacheCounters::write_bytes},
    {"redy.client.errors", &Stats::errors, &CacheCounters::errors},
    {"redy.client.one_sided_ops", &Stats::one_sided_ops,
     &CacheCounters::one_sided_ops},
    {"redy.client.batched_ops", &Stats::batched_ops,
     &CacheCounters::batched_ops},
    {"redy.client.parked_ops", &Stats::parked_ops, &CacheCounters::parked_ops},
    {"redy.client.retries", &Stats::retries, &CacheCounters::retries},
    {"redy.client.timeouts", &Stats::timeouts, &CacheCounters::timeouts},
    {"redy.client.reconnects", &Stats::reconnects, &CacheCounters::reconnects},
    {"redy.client.hedged_to_replica", &Stats::hedged_to_replica,
     &CacheCounters::hedged_to_replica},
    {"redy.recovery.migration_resumes", &Stats::migration_resumes,
     &CacheCounters::migration_resumes},
    {"redy.recovery.migration_retargets", &Stats::migration_retargets,
     &CacheCounters::migration_retargets},
    {"redy.recovery.repairs_started", &Stats::repairs_started,
     &CacheCounters::repairs_started},
    {"redy.recovery.repairs_completed", &Stats::repairs_completed,
     &CacheCounters::repairs_completed},
    {"redy.recovery.storm_regions_lost", &Stats::storm_regions_lost,
     &CacheCounters::storm_regions_lost},
    {"fence.revocations", &Stats::fence_revocations,
     &CacheCounters::fence_revocations},
    {"fence.stale_rejected", &Stats::fence_stale_rejected,
     &CacheCounters::fence_stale_rejected},
    {"fence.redirects", &Stats::fence_redirects,
     &CacheCounters::fence_redirects},
    {"fence.lease_renewals", &Stats::lease_renewals,
     &CacheCounters::lease_renewals},
    {"fence.lease_expirations", &Stats::lease_expirations,
     &CacheCounters::lease_expirations},
    {"integrity.checksum_mismatches", &Stats::checksum_mismatches,
     &CacheCounters::checksum_mismatches},
    {"integrity.chunks_verified", &Stats::chunks_verified,
     &CacheCounters::chunks_verified},
    {"overload.admission_rejected", &Stats::admission_rejected,
     &CacheCounters::admission_rejected},
    {"overload.shed_ops", &Stats::shed_ops, &CacheCounters::shed_ops},
    {"overload.shed_bytes", &Stats::shed_bytes, &CacheCounters::shed_bytes},
    {"overload.busy_pushbacks", &Stats::busy_pushbacks,
     &CacheCounters::busy_pushbacks},
    {"overload.retry_budget_exhausted", &Stats::retry_budget_exhausted,
     &CacheCounters::retry_budget_exhausted},
    {"overload.hedge_budget_exhausted", &Stats::hedge_budget_exhausted,
     &CacheCounters::hedge_budget_exhausted},
    {"overload.hedge_suppressed", &Stats::hedge_suppressed,
     &CacheCounters::hedge_suppressed},
    {"overload.breaker_trips", &Stats::breaker_trips,
     &CacheCounters::breaker_trips},
    {"overload.breaker_probes", &Stats::breaker_probes,
     &CacheCounters::breaker_probes},
    {"overload.brownout_trips", &Stats::brownout_trips,
     &CacheCounters::brownout_trips},
    {"redy.client.indirect_reads", &Stats::indirect_reads,
     &CacheCounters::indirect_reads},
    {"redy.client.chained_reads", &Stats::chained_reads,
     &CacheCounters::chained_reads},
    {"redy.client.chain_fallbacks", &Stats::chain_fallbacks,
     &CacheCounters::chain_fallbacks},
};

void CacheClient::RegisterCacheMetrics(CacheEntry* cache) {
  telemetry::MetricsRegistry& m = tel_->metrics();
  const telemetry::Labels labels{{"cache", std::to_string(cache->id)}};
  CacheCounters& k = cache->ctr;
  for (const CounterField& f : kCounterFields) {
    k.*f.live = m.GetCounter(f.name, labels);
  }
  k.read_latency = m.GetHistogram("redy.client.read_latency_ns", labels);
  k.write_latency = m.GetHistogram("redy.client.write_latency_ns", labels);
  k.inflight = m.GetGauge("redy.client.inflight_ops", labels);
}

void CacheClient::RefreshStatsView(CacheEntry& cache) {
  for (const CounterField& f : kCounterFields) {
    cache.stats_view.*f.stat =
        (cache.ctr.*f.live)->Value() - cache.baseline.*f.stat;
  }
  // Latency histograms reset with ResetStats (quantiles are
  // per-interval), so the cumulative view is the since-reset view.
  cache.stats_view.read_latency_ns = cache.ctr.read_latency->cumulative();
  cache.stats_view.write_latency_ns = cache.ctr.write_latency->cumulative();
}

CacheClient::Stats* CacheClient::stats(CacheId id) {
  CacheEntry* c = FindCache(id);
  if (c == nullptr) return nullptr;
  RefreshStatsView(*c);
  return &c->stats_view;
}

void CacheClient::ResetStats(CacheId id) {
  CacheEntry* c = FindCache(id);
  if (c == nullptr) return;
  // Re-base the view on the current counter values. The registry
  // counters themselves are monotonic and keep counting — a repair or
  // migration poller incrementing mid-reset loses nothing.
  for (const CounterField& f : kCounterFields) {
    c->baseline.*f.stat = (c->ctr.*f.live)->Value();
  }
  c->ctr.read_latency->Reset();
  c->ctr.write_latency->Reset();
  RefreshStatsView(*c);
}

telemetry::TrackId CacheClient::CacheTrack(CacheEntry& cache,
                                           telemetry::SpanTracer& tracer) {
  if (cache.trace_track == 0) {
    cache.trace_track =
        tracer.NewTrack("client", "cache " + std::to_string(cache.id));
  }
  return cache.trace_track;
}

telemetry::TrackId CacheClient::RecoveryTrack(telemetry::SpanTracer& tracer) {
  if (recovery_track_ == 0) {
    recovery_track_ = tracer.NewTrack("client", "recovery");
  }
  return recovery_track_;
}

uint64_t CacheClient::InFlight(CacheId id) const {
  const CacheEntry* c = FindCache(id);
  return c == nullptr ? 0 : c->inflight_ops;
}

Status CacheClient::Poke(CacheId id, uint64_t addr, const void* src,
                         uint64_t size) {
  CacheEntry* cache = FindCache(id);
  if (cache == nullptr) return Status::NotFound("unknown cache");
  if (addr + size > cache->capacity || addr + size < addr) {
    return Status::OutOfRange("poke beyond capacity");
  }
  const uint8_t* s = static_cast<const uint8_t*>(src);
  while (size > 0) {
    const uint32_t vr = static_cast<uint32_t>(addr / cache->region_bytes);
    const uint64_t roff = addr % cache->region_bytes;
    const uint64_t chunk = std::min(size, cache->region_bytes - roff);
    const auto& p = cache->regions[vr].placement;
    rdma::MemoryRegion* mr = p.server->region(p.region_index);
    if (mr == nullptr) {
      return Status::Unimplemented("poke: server agent is remote");
    }
    std::memcpy(mr->data() + roff, s, chunk);
    addr += chunk;
    s += chunk;
    size -= chunk;
  }
  return Status::OK();
}

Status CacheClient::Peek(CacheId id, uint64_t addr, void* dst,
                         uint64_t size) const {
  const CacheEntry* cache = FindCache(id);
  if (cache == nullptr) return Status::NotFound("unknown cache");
  if (addr + size > cache->capacity || addr + size < addr) {
    return Status::OutOfRange("peek beyond capacity");
  }
  uint8_t* d = static_cast<uint8_t*>(dst);
  while (size > 0) {
    const uint32_t vr = static_cast<uint32_t>(addr / cache->region_bytes);
    const uint64_t roff = addr % cache->region_bytes;
    const uint64_t chunk = std::min(size, cache->region_bytes - roff);
    const auto& p = cache->regions[vr].placement;
    rdma::MemoryRegion* mr = p.server->region(p.region_index);
    if (mr == nullptr) {
      return Status::Unimplemented("peek: server agent is remote");
    }
    std::memcpy(d, mr->data() + roff, chunk);
    addr += chunk;
    d += chunk;
    size -= chunk;
  }
  return Status::OK();
}

Result<cluster::VmId> CacheClient::RegionVm(CacheId id,
                                            uint32_t vregion) const {
  const CacheEntry* c = FindCache(id);
  if (c == nullptr) return Status::NotFound("unknown cache");
  if (vregion >= c->regions.size()) {
    return Status::OutOfRange("no such region");
  }
  return c->regions[vregion].placement.vm_id;
}

Result<uint64_t> CacheClient::RegionSize(CacheId id) const {
  const CacheEntry* c = FindCache(id);
  if (c == nullptr) return Status::NotFound("unknown cache");
  return c->region_bytes;
}

}  // namespace redy
