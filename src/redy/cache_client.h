#ifndef REDY_REDY_CACHE_CLIENT_H_
#define REDY_REDY_CACHE_CLIENT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_map.h"
#include "common/histogram.h"
#include "common/inline_callable.h"
#include "common/random.h"
#include "common/result.h"
#include "common/slab_pool.h"
#include "common/units.h"
#include "common/vec_deque.h"
#include "redy/cache_manager.h"
#include "redy/cache_server.h"
#include "redy/config.h"
#include "redy/cost_model.h"
#include "redy/overload.h"
#include "redy/protocol.h"
#include "redy/slo.h"
#include "ringbuf/spsc_ring.h"
#include "sim/poller.h"
#include "telemetry/telemetry.h"

namespace redy {

namespace chaos {
class Buggify;
}  // namespace chaos

/// The Redy cache client (front end, Section 3.3). Lives with the
/// application, exposes the Table 1 API (Create / Read / Write /
/// Reshape / Delete), maps each cache's contiguous virtual address
/// space onto physical regions on cache VMs through a region table,
/// runs the client threads of the Section 4 data path, and carries out
/// region migration when VMs are reclaimed or fail (Section 6.2).
class CacheClient {
 public:
  using CacheId = uint64_t;
  /// Completion callback of one Read/Write. A small-buffer callable
  /// instead of std::function: the data path runs one per op, and the
  /// hot callers' captures (a pointer and a few scalars) fit inline, so
  /// steady state allocates nothing (DESIGN.md §10). Move-only.
  using Callback = common::InlineCallable<void(Status), 64>;

  struct Options {
    /// Physical region size (1 GB in the paper; smaller by default here
    /// so simulations stay light — regions are real memory).
    uint64_t region_bytes = 64 * kMiB;
    /// Cap on regions per cache VM (0 = unlimited). A nonzero cap makes
    /// region fan-out across VMs deterministic and bounds how many
    /// regions one VM loss takes down.
    uint32_t max_regions_per_vm = 0;

    // --- Migration and repair (Section 6.2) ---
    /// Serve reads from the old VM while a region migrates.
    bool unpaused_reads = true;
    /// Pause writes only to the region currently being migrated
    /// (instead of all migrating regions for the whole migration).
    bool pause_per_region_writes = true;
    /// Chunk size of a region copy (migration or replica repair).
    uint64_t migration_chunk_bytes = 256 * kKiB;
    /// Schedule overlapping migrations earliest-deadline-first, one
    /// copy at a time, instead of racing every transfer at once. Under
    /// a storm EDF finishes whole regions before their force-free;
    /// naive racing splits the bandwidth and tends to lose a little of
    /// everything.
    bool edf_migration = true;

    // --- Resilience (fault tolerance) ---
    /// Retries for sub-ops failing with a retryable status (Unavailable
    /// or DeadlineExceeded). 0 disables retries: failures surface to
    /// the caller immediately (the historical behavior).
    uint32_t max_retries = 0;
    /// Per-sub-op deadline measured from issue. When any in-flight
    /// sub-op exceeds it, the owning connection is torn down and lazily
    /// re-established, and every sub-op it carried completes with
    /// DeadlineExceeded (then retries, if enabled). 0 disables
    /// deadlines — a stalled NIC then blocks its ops forever.
    uint64_t sub_op_timeout_ns = 0;
    /// Exponential backoff between retries (doubles per attempt, with
    /// +-50% jitter to avoid synchronized retry storms), capped below.
    uint64_t retry_backoff_ns = 5 * kMicrosecond;
    uint64_t retry_backoff_max_ns = 1 * kMillisecond;
    // Fixed (DESIGN.md §7): retried reads, and reads whose primary VM
    // took two consecutive connection resets, hedge to the replica;
    // kBusy retries back off 4x longer than transport-fault retries.

    // --- Overload resilience (DESIGN.md §12) ---
    /// Govern overload end to end, with fixed tuning (DESIGN.md §12):
    /// retry/hedge budgets, per-VM circuit breakers, brownout and
    /// honored credit grants here, kBusy pushback and credit grants on
    /// the cache servers (the Testbed/LoopbackRig manager sets those).
    bool govern_overload = false;

    // --- Fencing & integrity (DESIGN.md §7) ---
    /// Epoch-fence remote access: revoke a region's rkeys at migration
    /// cutover (drain -> revoke -> redirect), gate two-sided writes on
    /// a fresh lease, and redirect kProtectionError completions to the
    /// post-migration placement. Disabling this is the ablation knob:
    /// stale keys then stay valid forever and a zombie write can land
    /// on a migrated (reassignable) region silently.
    bool epoch_fencing = true;
    // End-to-end payload and copy-chunk checksums are always verified;
    // two-sided writes are lease-gated with a fixed 1 ms TTL.

    // --- NIC-offloaded op chains (DESIGN.md §15) ---
    /// Issue indirect (pointer-chase) reads as ONE chained doorbell
    /// (rdma::QueuePair::PostChain): the responder NIC resolves the
    /// pointer word and fetches the data it names, so the dependent
    /// read costs one RTT and one poller wakeup instead of two.
    /// Default off so every existing same-seed run stays byte-identical;
    /// when off, ReadIndirect falls back to two dependent one-sided
    /// READs (or the server-side kReadPtr chase on two-sided configs).
    bool chain_reads = false;
    /// Buggify decision points for the chaos-schedule explorer (not
    /// owned; nullptr = no fault injection at decision points).
    chaos::Buggify* buggify = nullptr;

    /// Telemetry domain (metrics registry + span tracer) the client
    /// instruments itself with. Not owned; the Testbed wires its own.
    /// nullptr makes the client construct a private domain so the
    /// registry-backed Stats always work.
    telemetry::Telemetry* telemetry = nullptr;

    CostModel costs;
  };

  /// Per-cache counters and latency histograms. This is a *snapshot
  /// view*: the live values are monotonic atomic counters in the
  /// telemetry registry (safe against background pollers incrementing
  /// concurrently with ResetStats), and stats() materializes them here
  /// relative to the last ResetStats baseline.
  struct Stats {
    Histogram read_latency_ns;
    Histogram write_latency_ns;
    uint64_t reads_completed = 0;
    uint64_t writes_completed = 0;
    uint64_t read_bytes = 0;
    uint64_t write_bytes = 0;
    uint64_t errors = 0;
    uint64_t one_sided_ops = 0;
    uint64_t batched_ops = 0;
    uint64_t parked_ops = 0;
    uint64_t retries = 0;
    uint64_t timeouts = 0;
    uint64_t reconnects = 0;
    uint64_t hedged_to_replica = 0;
    // Recovery supervisor (reclamation storms, Section 6.2).
    uint64_t migration_resumes = 0;    // region copies resumed mid-flight
    uint64_t migration_retargets = 0;  // copies re-pointed at a fresh VM
    uint64_t repairs_started = 0;      // re-replication jobs started
    uint64_t repairs_completed = 0;    // replicas restored
    uint64_t storm_regions_lost = 0;   // regions force-freed mid-copy
    // Fencing & integrity (DESIGN.md §7).
    uint64_t fence_revocations = 0;    // epoch bumps at migration cutover
    uint64_t fence_stale_rejected = 0; // ops fenced off with ProtectionError
    uint64_t fence_redirects = 0;      // fenced ops re-routed post-cutover
    uint64_t lease_renewals = 0;       // explicit kLease grants
    uint64_t lease_expirations = 0;    // writes deferred on a lapsed lease
    uint64_t checksum_mismatches = 0;  // end-to-end integrity failures
    uint64_t chunks_verified = 0;      // migration/repair chunks checked
    // Overload resilience (DESIGN.md §12).
    uint64_t admission_rejected = 0;   // submissions over the tenant quota
    uint64_t shed_ops = 0;             // brownout/breaker sheds (ops)
    uint64_t shed_bytes = 0;           // bytes of those sheds (byte-exact)
    uint64_t busy_pushbacks = 0;       // kBusy responses received
    uint64_t retry_budget_exhausted = 0;  // retries denied by the budget
    uint64_t hedge_budget_exhausted = 0;  // hedges denied by the budget
    uint64_t hedge_suppressed = 0;     // hedges skipped: replica unhealthier
    uint64_t breaker_trips = 0;        // closed/half-open -> open
    uint64_t breaker_probes = 0;       // half-open probes admitted
    uint64_t brownout_trips = 0;       // shedding windows entered
    // NIC-offloaded op chains (DESIGN.md §15).
    uint64_t indirect_reads = 0;       // ReadIndirect ops completed
    uint64_t chained_reads = 0;        // served by one chained doorbell
    uint64_t chain_fallbacks = 0;      // served hop-by-hop (chaining off)

    void Reset() { *this = Stats{}; }
    uint64_t ops_completed() const {
      return reads_completed + writes_completed;
    }
  };

  /// Record of one completed VM migration (for the Fig. 15/16 benches).
  struct MigrationEvent {
    CacheId cache = 0;
    cluster::VmId from = cluster::kInvalidVm;
    cluster::VmId to = cluster::kInvalidVm;
    sim::SimTime started = 0;
    sim::SimTime finished = 0;
    uint32_t regions = 0;
    /// Bytes that made it to the new placement: the full region for a
    /// clean copy, the acknowledged prefix for a lost one.
    uint64_t bytes = 0;
    bool data_lost = false;  // deadline hit before the copy finished
    uint32_t regions_lost = 0;    // regions whose source died mid-copy
    uint64_t bytes_lost = 0;      // unacked bytes of those regions
    uint32_t resumes = 0;         // copies resumed from the acked prefix
    uint32_t retargets = 0;       // copies re-pointed at a fresh VM
    /// Virtual-region indices that lost data (exact loss accounting for
    /// the storm soak and the Testbed invariant checker).
    std::vector<uint32_t> lost_vregions;
  };

  CacheClient(sim::Simulation* sim, rdma::Fabric* fabric,
              CacheManager* manager, net::ServerId node, Options options);
  ~CacheClient();

  CacheClient(const CacheClient&) = delete;
  CacheClient& operator=(const CacheClient&) = delete;

  /// Table 1 Create: allocates a cache with the given capacity,
  /// performance SLO and duration; optionally populates it with the
  /// prefix of `file`. Fails with no effect if the SLO or capacity
  /// cannot be satisfied.
  Result<CacheId> Create(uint64_t capacity, const Slo& slo,
                         sim::SimTime duration,
                         const std::vector<uint8_t>* file = nullptr);

  /// Creates a cache with an explicit RDMA configuration, bypassing the
  /// SLO search (used by benchmarks and the measurement application).
  Result<CacheId> CreateWithConfig(uint64_t capacity, const RdmaConfig& cfg,
                                   uint32_t record_bytes, bool spot = false);

  /// Creates a *replicated* cache: every region has a replica on a
  /// different VM, writes are applied to both, reads go to the primary.
  /// When a VM is lost, affected regions fail over to their replica
  /// instantly (no copy, no data loss) and re-replicate in the
  /// background — the Section 6.2 alternative to migration for
  /// workloads that cannot tolerate a migration pause.
  Result<CacheId> CreateReplicated(uint64_t capacity, const RdmaConfig& cfg,
                                   uint32_t record_bytes, bool spot = false);

  /// Whether a region currently has a live replica (replicated caches).
  Result<bool> RegionReplicated(CacheId id, uint32_t vregion) const;

  /// Table 1 Read/Write: asynchronous; `cb` runs when the operation
  /// completes. `app_thread` selects the submitting application thread
  /// (its requests are executed in order; threads map 1:1 onto client
  /// threads modulo c). Returns ResourceExhausted when the batch ring
  /// is full — the caller retries after completions drain.
  Status Read(CacheId id, uint64_t addr, void* dst, uint64_t size,
              Callback cb, uint32_t app_thread = 0);
  Status Write(CacheId id, uint64_t addr, const void* src, uint64_t size,
               Callback cb, uint32_t app_thread = 0);

  /// Indirect (pointer-chase) read: the 8-byte little-endian word at
  /// `ptr_addr` holds the cache-relative offset of the data; reads
  /// `size` bytes from wherever it points into `dst`. The pointer and
  /// the data it names must live in the same virtual region (one QP
  /// executes the chase). With Options::chain_reads the whole chase is
  /// ONE chained doorbell / one poller wakeup (DESIGN.md §15);
  /// otherwise it decomposes into two dependent round trips one-sided,
  /// or a single server-side kReadPtr on two-sided configs.
  Status ReadIndirect(CacheId id, uint64_t ptr_addr, void* dst,
                      uint64_t size, Callback cb, uint32_t app_thread = 0);

  /// Table 1 Reshape. Changing the SLO reallocates under the new
  /// configuration and moves the data; changing only the capacity grows
  /// or truncates in place. The cache must be quiescent (no in-flight
  /// operations).
  Status Reshape(CacheId id, uint64_t new_capacity, const Slo& new_slo);
  Status ReshapeCapacity(CacheId id, uint64_t new_capacity);

  /// Table 1 Delete.
  Status Delete(CacheId id);

  /// Per-tenant admission control (DESIGN.md §12): caps the cache's
  /// fresh submissions at `ops_per_sec` (token bucket with `burst`
  /// depth; over-quota submissions fail fast with ResourceExhausted)
  /// and assigns its priority class — 0 is highest and is never shed
  /// by brownout or the server; 2 and up shed first. `ops_per_sec` of
  /// 0 removes the quota but keeps the priority.
  Status SetTenantQuota(CacheId id, double ops_per_sec, double burst,
                        uint8_t priority = 1);

  /// Migrates all of `cache`'s regions off `victim` (reclaimed or
  /// failing VM) onto freshly allocated VMs. Runs asynchronously in
  /// simulated time; `done` (optional) fires when migration completes.
  Status MigrateVm(CacheId cache, cluster::VmId victim, sim::SimTime deadline,
                   std::function<void(const MigrationEvent&)> done = nullptr);

  /// Migrates an explicit set of virtual regions to freshly allocated
  /// VMs (the Fig. 15/16 experiment migrates 1, 2, and 4 of a cache's
  /// regions). Source VMs are not released (they may still hold other
  /// regions).
  Status MigrateRegions(CacheId cache, std::vector<uint32_t> vregions,
                        sim::SimTime deadline,
                        std::function<void(const MigrationEvent&)> done =
                            nullptr);

  // --- Introspection ---
  uint64_t capacity(CacheId id) const;
  Result<RdmaConfig> config(CacheId id) const;
  /// Refreshes and returns the cache's Stats snapshot (values since
  /// the last ResetStats). The pointer stays valid and is refreshed in
  /// place on every stats()/ResetStats() call for this cache.
  Stats* stats(CacheId id);
  /// Zeroes the per-cache snapshot by re-basing it on the current
  /// registry counters. Safe while background pollers (repair,
  /// migration, data path) are incrementing: the monotonic counters
  /// are never written, so no concurrent increment can be lost.
  void ResetStats(CacheId id);
  /// The telemetry domain this client records into (the Options one,
  /// or the private fallback).
  telemetry::Telemetry& telemetry() { return *tel_; }
  /// In-flight operations (accepted, not yet completed).
  uint64_t InFlight(CacheId id) const;
  /// CPU cost an application actor should charge per Read/Write call.
  uint64_t ApiCallCostNs() const;
  const std::vector<MigrationEvent>& migrations() const {
    return migration_log_;
  }
  /// The physical node (VM id) a virtual region currently lives on.
  Result<cluster::VmId> RegionVm(CacheId id, uint32_t vregion) const;
  /// Physical region size of a cache (set at allocation time).
  Result<uint64_t> RegionSize(CacheId id) const;

  // --- Recovery supervisor introspection ---
  /// Migration jobs queued or running plus repair jobs in flight.
  uint64_t PendingRecoveries() const;
  /// Structural invariant sweep (used by the Testbed checker after
  /// every recovery): no region placed on a dead VM, no replica
  /// sharing a node with its primary, pause/ownership flags
  /// consistent. Returns human-readable violations (empty = clean).
  std::vector<std::string> CheckInvariants() const;
  /// Called after every completed recovery action ("migration",
  /// "failover", "repair") — the Testbed invariant checker hooks here.
  void SetRecoveryListener(std::function<void(const char*)> listener) {
    recovery_listener_ = std::move(listener);
  }

  /// Zero-time backdoor accessors used by experiment setup (bulk load)
  /// and test verification: apply bytes directly to region memory
  /// without consuming simulated time. Not part of the Table 1 API.
  Status Poke(CacheId id, uint64_t addr, const void* src, uint64_t size);
  Status Peek(CacheId id, uint64_t addr, void* dst, uint64_t size) const;
  net::ServerId node() const { return node_; }
  const Options& options() const { return options_; }

 private:
  struct CacheEntry;
  struct ClientThread;

  /// Aggregated state of one user-level Read/Write (may fan out into
  /// several sub-operations across region boundaries). Records live in
  /// the client's slab pool and are recycled, not freed: Submit borrows
  /// one, the last completing sub-op returns it. The generation counter
  /// survives recycling and stamps every SubOp referencing the record,
  /// so a stale sub-op copy can never act on a recycled op.
  struct OpState {
    Callback cb;
    uint32_t remaining = 0;
    uint32_t gen = 0;
    Status error;  // first failure, if any
    sim::SimTime start = 0;
    bool is_read = false;
    uint64_t bytes = 0;
    CacheEntry* cache = nullptr;
    /// Trace span covering the whole op (0 when tracing was off at
    /// submit).
    telemetry::SpanId span = 0;
  };

  /// One sub-operation confined to a single virtual region.
  struct SubOp {
    OpCode op = OpCode::kRead;
    uint32_t vregion = 0;
    uint64_t offset = 0;  // offset within the region
    uint32_t len = 0;
    uint8_t* dst = nullptr;        // reads
    const uint8_t* src = nullptr;  // writes
    /// Pooled parent op + the generation it was borrowed under. A
    /// mismatch marks this SubOp as a stale copy of an op that already
    /// completed; CompleteSubOp ignores it.
    OpState* state = nullptr;
    uint32_t state_gen = 0;
    uint32_t thread = 0;                 // owning client thread
    uint32_t staging_slot = UINT32_MAX;  // one-sided staging slot in use
    bool issued = false;  // counted in its region's inflight_subops
    bool to_replica = false;  // write twin / hedged read to the replica
    uint32_t attempts = 0;        // completed (failed) issue attempts
    /// Times this op was parked waiting on a lease renewal. Kept apart
    /// from `attempts` so lease hiccups never eat the retry budget.
    uint32_t lease_defers = 0;
    sim::SimTime issued_at = 0;   // deadline base, set at issue
    /// Access epoch the op was issued under (stamped at flush/issue
    /// from the placement key; echoed back in two-sided responses).
    uint32_t epoch = 0;
    /// Pointer-chase progress for kReadPtr without NIC chaining: 0 =
    /// the 8-byte pointer word is still being fetched, 1 = `offset`
    /// already holds the resolved data offset (DESIGN.md §15).
    uint8_t chase_hop = 0;
    /// Set when a chained kReadPtr took a poisoned mid-chain
    /// completion at an epoch fence: retries re-issue as the unchained
    /// hop-by-hop chase, which rides plain (unfenced) READs and stays
    /// serviceable against a revoked-but-readable region through a
    /// migration cutover.
    uint8_t chain_disabled = 0;
  };
  // SubOps are staged in rings, arenas and flat maps by value; keeping
  // them trivially copyable makes every such move a memcpy and lets the
  // batch arena live as one contiguous allocation.
  static_assert(std::is_trivially_copyable_v<SubOp>,
                "SubOp must stay trivially copyable (data-path arenas)");

  /// A virtual region and its current placement + pause state.
  struct VRegion {
    CacheManager::RegionPlacement placement;
    /// Live replica placement, if the cache is replicated.
    std::optional<CacheManager::RegionPlacement> replica;
    bool reads_paused = false;
    bool writes_paused = false;
    bool repairing = false;  // re-replication in progress
    bool migrating = false;  // owned by an active migration copy
    uint32_t inflight_subops = 0;
    std::vector<SubOp> parked;
    /// Lease state for two-sided configs (DESIGN.md §7). 0 = no lease
    /// held yet (bootstrap: the first ops run unfenced client-side; the
    /// server epoch check is the hard fence). Renewed by every
    /// successful two-sided response against this region.
    sim::SimTime lease_expires_at = 0;
    bool lease_pending = false;  // an explicit kLease round trip in flight
    /// Trace span of the in-flight repair (0 = none / tracing off).
    telemetry::SpanId repair_span = 0;
  };

  struct Connection {
    cluster::VmId vm = cluster::kInvalidVm;
    CacheServer* server = nullptr;
    rdma::QueuePair* qp = nullptr;
    uint32_t conn_index = 0;  // index on the server
    // Two-sided state.
    rdma::RemoteKey req_ring_key;
    uint64_t req_slot_bytes = 0;
    rdma::MemoryRegion* req_staging = nullptr;
    rdma::MemoryRegion* resp_ring = nullptr;
    uint64_t resp_slot_bytes = 0;
    uint64_t next_seq = 1;
    uint64_t next_resp = 1;
    uint32_t inflight_batches = 0;
    /// The q outstanding batches, staged in one preallocated arena of
    /// fixed stride b (slot i's ops live at [i*b, i*b + slot_count[i])).
    /// Flushing bump-copies the accumulated batch in; completion walks
    /// the slot in place. Replaces a vector-of-vectors whose inner
    /// vectors reallocated on every flush.
    std::vector<SubOp> slot_arena;
    std::vector<uint32_t> slot_count;
    /// Sequence number of the batch currently staged in each slot,
    /// cross-checked against the response header's seq so a reordered
    /// or duplicated response write can never be charged against a
    /// slot's newer occupant (defense in depth — see DrainResponses).
    std::vector<uint64_t> slot_seq;
    uint32_t slot_stride = 0;
    /// Set when a request batch is reported lost at send time. The
    /// server consumes batches strictly in sequence order, so a hole
    /// in the sequence strands every later batch; the resilience sweep
    /// tears a poisoned connection down and retries its staged ops.
    bool poisoned = false;
    /// Credit-granted cap on inflight_batches (<= q). Starts at q;
    /// server response headers shrink/regrow it when credit flow is on
    /// (a header with credits == 0 carries no grant and leaves it).
    uint32_t send_window = 0;
    // One-sided state.
    rdma::MemoryRegion* onesided_ring = nullptr;
    std::vector<bool> onesided_slot_busy;
    /// In-flight one-sided ops by wr-id. Reserved at several times the
    /// queue depth so steady-state occupancy stays low and probe loops
    /// exit on their first, predictable branch (DESIGN.md §10). Not
    /// iterated in any rng- or event-ordering-sensitive way: teardown
    /// paths collect and sort by wr-id first.
    common::FlatMap<SubOp> onesided_ops;
    common::FlatMap<rdma::MemoryRegion*> transient_mrs;
    // Batch being accumulated.
    std::vector<SubOp> current;
  };

  /// A retryable sub-op waiting out its backoff before re-submission.
  struct DelayedOp {
    sim::SimTime due = 0;
    SubOp op;
  };

  struct ClientThread {
    uint32_t index = 0;
    CacheEntry* cache = nullptr;
    std::unique_ptr<ringbuf::SpscRing<SubOp>> ring;
    /// Unparked ops, drained before the ring. Ring-buffer deque: the
    /// queue oscillates around empty under backpressure, and
    /// std::deque's block churn at that boundary was the last
    /// steady-state allocation on the one-sided path.
    common::VecDeque<SubOp> replay;
    std::deque<DelayedOp> delayed;  // retries waiting out their backoff
    /// Consecutive connection resets per VM; cleared by any successful
    /// sub-op against the VM. Drives read diversion to replicas.
    /// Hashed flat (never iterated): the data path consults it once per
    /// submitted read.
    common::FlatMap<uint32_t> vm_health;
    std::unordered_map<cluster::VmId, std::unique_ptr<Connection>> conns;
    std::unique_ptr<sim::Poller> poller;
    Rng rng{1};
    uint64_t next_wr_id = 1;
    /// Consecutive empty polls; drives exponential poll back-off so an
    /// idle cache does not flood the event queue (busy-polling a quiet
    /// thread has no observable effect on results).
    uint32_t idle_streak = 0;
  };

  /// Registry-backed live counters of one cache: monotonic atomics
  /// owned by the telemetry registry (labels {"cache": id}), registered
  /// at Install and never reset — ResetStats re-bases the Stats view
  /// instead, so background pollers can keep incrementing concurrently.
  struct CacheCounters {
    telemetry::Counter* reads_completed = nullptr;
    telemetry::Counter* writes_completed = nullptr;
    telemetry::Counter* read_bytes = nullptr;
    telemetry::Counter* write_bytes = nullptr;
    telemetry::Counter* errors = nullptr;
    telemetry::Counter* one_sided_ops = nullptr;
    telemetry::Counter* batched_ops = nullptr;
    telemetry::Counter* parked_ops = nullptr;
    telemetry::Counter* retries = nullptr;
    telemetry::Counter* timeouts = nullptr;
    telemetry::Counter* reconnects = nullptr;
    telemetry::Counter* hedged_to_replica = nullptr;
    telemetry::Counter* migration_resumes = nullptr;
    telemetry::Counter* migration_retargets = nullptr;
    telemetry::Counter* repairs_started = nullptr;
    telemetry::Counter* repairs_completed = nullptr;
    telemetry::Counter* storm_regions_lost = nullptr;
    telemetry::Counter* fence_revocations = nullptr;
    telemetry::Counter* fence_stale_rejected = nullptr;
    telemetry::Counter* fence_redirects = nullptr;
    telemetry::Counter* lease_renewals = nullptr;
    telemetry::Counter* lease_expirations = nullptr;
    telemetry::Counter* checksum_mismatches = nullptr;
    telemetry::Counter* chunks_verified = nullptr;
    telemetry::Counter* admission_rejected = nullptr;
    telemetry::Counter* shed_ops = nullptr;
    telemetry::Counter* shed_bytes = nullptr;
    telemetry::Counter* busy_pushbacks = nullptr;
    telemetry::Counter* retry_budget_exhausted = nullptr;
    telemetry::Counter* hedge_budget_exhausted = nullptr;
    telemetry::Counter* hedge_suppressed = nullptr;
    telemetry::Counter* breaker_trips = nullptr;
    telemetry::Counter* breaker_probes = nullptr;
    telemetry::Counter* brownout_trips = nullptr;
    telemetry::Counter* indirect_reads = nullptr;
    telemetry::Counter* chained_reads = nullptr;
    telemetry::Counter* chain_fallbacks = nullptr;
    telemetry::WindowedHistogram* read_latency = nullptr;
    telemetry::WindowedHistogram* write_latency = nullptr;
    telemetry::Gauge* inflight = nullptr;
  };

  struct CacheEntry {
    CacheId id = 0;
    RdmaConfig cfg;
    uint32_t record_bytes = 8;
    uint64_t capacity = 0;
    uint64_t region_bytes = 0;
    Slo slo;
    bool spot = false;
    bool deleted = false;
    /// Outstanding recovery work (migration jobs queued or running).
    /// Nonzero blocks Reshape, exactly like the old `migrating` flag.
    uint32_t recovery_tasks = 0;
    std::vector<VRegion> regions;
    std::vector<std::unique_ptr<ClientThread>> threads;
    CacheCounters ctr;
    /// Snapshot handed out by stats(); stable address, refreshed in
    /// place (tests hold the pointer across ResetStats).
    Stats stats_view;
    /// Counter values captured at the last ResetStats.
    Stats baseline;
    uint64_t inflight_ops = 0;
    double price_per_hour = 0.0;
    bool replicated = false;
    /// Tenant admission control (DESIGN.md §12): token-bucket quota on
    /// fresh submissions (unconfigured = admit everything) and the
    /// tenant's priority class (0 = highest, never shed by brownout).
    overload::TokenBucket quota;
    uint8_t priority = 1;
    /// Per-cache trace lane in the "client" process (lazy).
    telemetry::TrackId trace_track = 0;
  };

  /// One per-cache counter: its registry name, its Stats view field
  /// and its live registry handle. kCounterFields lists them all; the
  /// registration, the Stats view and ResetStats loop over it.
  struct CounterField {
    const char* name;
    uint64_t Stats::*stat;
    telemetry::Counter* CacheCounters::*live;
  };
  static const CounterField kCounterFields[];

  Result<CacheId> Install(CacheManager::Allocation alloc, uint64_t capacity,
                          const Slo& slo, bool spot);
  /// Registers the cache's counters/histograms with the telemetry
  /// registry (labels {"cache": id}).
  void RegisterCacheMetrics(CacheEntry* cache);
  /// Rebuilds the Stats snapshot from the registry counters minus the
  /// cache's ResetStats baseline.
  void RefreshStatsView(CacheEntry& cache);
  /// The span tracer iff tracing is currently enabled.
  telemetry::SpanTracer* ActiveTracer() const {
    return tel_->tracer().enabled() ? &tel_->tracer() : nullptr;
  }
  /// Per-cache trace lane ("client" process), registered on first use.
  telemetry::TrackId CacheTrack(CacheEntry& cache,
                                telemetry::SpanTracer& tracer);
  /// Shared recovery-supervisor lane (migration/repair job spans).
  telemetry::TrackId RecoveryTrack(telemetry::SpanTracer& tracer);
  /// (Re)creates the cache's client threads for its current config.
  void StartThreads(CacheEntry* cache);
  /// Breaks and forgets all connections to `vm` across threads.
  void DropConnections(CacheEntry& cache, cluster::VmId vm);
  /// Breaks the QP and deregisters this connection's client-side
  /// memory (staging/response/one-sided rings).
  void ReleaseConnection(Connection& conn);
  /// Completes every queued/in-flight sub-op with `status` (teardown).
  void FailAllPending(CacheEntry& cache, const Status& status);
  Status Submit(CacheId id, OpCode op, uint64_t addr, void* dst,
                const void* src, uint64_t size, Callback cb,
                uint32_t app_thread);
  CacheEntry* FindCache(CacheId id);
  const CacheEntry* FindCache(CacheId id) const;

  // --- client-thread data path ---
  uint64_t PollThread(CacheEntry& cache, ClientThread& thread);
  /// Whether the thread has nothing queued and nothing in flight, so
  /// every way new work can reach it fires a Wake() (Submit, replay,
  /// retry expiry, response-ring write, CQ push) and its poller may
  /// park. In-flight work keeps it polling: deadline sweeps and broken-
  /// QP detection have no wake source.
  static bool ThreadFullyIdle(const ClientThread& thread);
  /// Whether the thread is quiescent apart from in-flight remote ops
  /// whose terminal events are all wired to Wake() it (send-CQ push,
  /// response-ring landing, QP error doorbell), so it may park for the
  /// rest of the RTT instead of sweeping through it. Requires sub-op
  /// timeouts to be disarmed: expiry is observed by the sweep itself.
  bool ThreadWaitingOnRemote(const ClientThread& thread) const;
  /// Wakes cache thread `thread_index`'s poller if parked. Safe to call
  /// from notifiers: looks the thread up by value, no-op after delete.
  void WakeThread(CacheId id, uint32_t thread_index);
  uint64_t DrainCompletions(CacheEntry& cache, ClientThread& thread,
                            Connection& conn);
  uint64_t DrainResponses(CacheEntry& cache, ClientThread& thread,
                          Connection& conn);
  uint64_t DrainSubmissions(CacheEntry& cache, ClientThread& thread);
  /// Flushes conn.current as either a one-sided op or a batch write.
  /// Returns consumed ns; sets *flushed=false if backpressured.
  uint64_t Flush(CacheEntry& cache, ClientThread& thread, Connection& conn,
                 bool* flushed);
  /// Issues one sub-op as a one-sided verb. Consumes *op only when
  /// *issued is set; on backpressure the op is left intact for retry.
  uint64_t IssueOneSided(CacheEntry& cache, ClientThread& thread,
                         Connection& conn, SubOp* op, bool* issued);
  Result<Connection*> EnsureConnection(CacheEntry& cache,
                                       ClientThread& thread,
                                       cluster::VmId vm, CacheServer* server);
  void CompleteSubOp(CacheEntry& cache, SubOp& op, const Status& status);
  /// Completion front door for the data path: retries retryable
  /// failures (when enabled) instead of surfacing them, tracks
  /// per-VM health, and falls through to CompleteSubOp otherwise.
  void FinishSubOp(CacheEntry& cache, ClientThread& thread, SubOp& op,
                   const Status& status);
  bool MaybeRetry(CacheEntry& cache, ClientThread& thread, SubOp& op,
                  const Status& status);
  /// Tears down the connection to `vm`: every in-flight sub-op it
  /// carries finishes with `status` (retrying when eligible) and the
  /// next op targeting the VM rebuilds the connection from scratch.
  uint64_t ResetConnection(CacheEntry& cache, ClientThread& thread,
                           cluster::VmId vm, const Status& status);
  void ParkOp(CacheEntry& cache, SubOp op);
  void ReplayParked(CacheEntry& cache, uint32_t vregion);
  /// Enqueues an explicit kLease round trip for the region (two-sided;
  /// re-arms the lease after an idle expiry). Consults the
  /// kDropLeaseRenewal buggify point.
  void RequestLease(CacheEntry& cache, ClientThread& thread,
                    uint32_t vregion);
  /// Consults a buggify decision point (false when none installed).
  bool BuggifyFires(chaos::Buggify* b, uint32_t point) const;

  // --- overload resilience (DESIGN.md §12) ---
  /// Records one overload signal (kBusy pushback or sub-op timeout)
  /// and trips/escalates the brownout shedding window when enough
  /// signals land within one brownout window (no-op when overload
  /// governance is off).
  void NoteOverloadSignal(CacheEntry& cache, uint64_t count = 1);
  /// Whether the active brownout level sheds this priority class
  /// (level 1 sheds >= 2, level 2 sheds >= 1; priority 0 never sheds).
  bool BrownoutSheds(uint8_t priority) const;
  /// Circuit-breaker gate for issuing against `vm`. True = proceed
  /// (closed, or half-open admitting this single probe).
  bool BreakerAllows(CacheEntry& cache, cluster::VmId vm);
  /// Feeds a sub-op outcome into `vm`'s breaker (no-op when breakers
  /// are off; only transport-ish failures count against it).
  void RecordBreakerResult(CacheEntry& cache, cluster::VmId vm,
                           bool success);
  /// Hedge-budget gate: withdraws one hedge or counts the exhaustion.
  bool TryWithdrawHedge(CacheEntry& cache);
  /// Whether hedging this region's read to its replica is worth it:
  /// false when the replica's VM looks *less* healthy than the primary
  /// (consecutive-reset counts in thread.vm_health), in which case the
  /// hedge would pile load onto the sicker VM.
  bool ReplicaHedgeUseful(CacheEntry& cache, const ClientThread& thread,
                          const VRegion& vr);

  // --- migration internals (recovery supervisor) ---
  struct MigrationJob;
  Status StartMigration(CacheId id, std::vector<uint32_t> vregions,
                        cluster::VmId release_vm, sim::SimTime deadline,
                        std::function<void(const MigrationEvent&)> done);
  /// Admits queued jobs: EDF order under the transfer-slot cap, or
  /// everything at once in naive mode.
  void PumpRecovery();
  void StartJob(MigrationJob* job);
  void MigrateNextRegion(MigrationJob* job);
  /// (Re)starts the copy of the job's current region: picks a live
  /// source (primary or replica), (re)allocates a target when needed,
  /// then launches the chunked transfer from the acked prefix.
  void StartRegionCopy(MigrationJob* job);
  /// The region copy ended: swap in the target, resume from the acked
  /// prefix, re-target, or count the region lost.
  void HandleCopyEnd(MigrationJob* job, bool failed);
  /// Both copies of the region are gone (or resumes exhausted):
  /// account the loss exactly and move on with the acked prefix.
  void RegionLost(MigrationJob* job);
  /// Commits the copied region to the region table and unpauses it.
  void SwapRegion(MigrationJob* job);
  /// Revokes remote access to a (drained, write-paused) placement by
  /// bumping its region's access epoch: every outstanding rkey goes
  /// stale and late WRITEs fence off with kProtectionError. Called at
  /// the drain-gate pass of a migration, before the first chunk is
  /// read, so the copy snapshots a write-frozen region.
  void RevokePlacement(CacheId cache_id,
                       const CacheManager::RegionPlacement& placement,
                       uint32_t vregion);
  /// Re-entry point for deferred continuations (alloc backoff,
  /// capacity wakeups); no-op if the job completed meanwhile.
  void ResumeRegion(uint64_t bg_id);
  void FinishMigration(MigrationJob* job);
  void FinalizeMigration(MigrationJob* job);
  /// Tears down every queued/running job of a deleted cache.
  void AbortCacheRecovery(CacheEntry& cache);
  /// A placement is usable as copy endpoint: VM alive, NIC up, and no
  /// passed reclamation deadline.
  bool VmUsable(const CacheManager::RegionPlacement& p) const;
  /// Background (repair) copies yield to deadline-driven migrations.
  bool CanStartBackgroundCopy() const;
  void NotifyRecovery(const char* kind);

  // --- region copier (migration and repair share it) ---
  struct RegionCopy;
  /// `failed` is set unless every byte landed verified; `acked_end` is
  /// the end of the contiguous verified prefix on the target.
  using CopyDone = std::function<void(bool failed, uint64_t acked_end)>;
  /// Copies `cache`'s region bytes [start_off, region_bytes) from `src`
  /// to `dst` with paced, chunked one-sided READs issued by the target
  /// NIC, checksumming every chunk. `done` fires from a fresh event
  /// once the last chunk completed. Returns the copy's id.
  uint64_t CopyRegion(CacheId cache,
                      const CacheManager::RegionPlacement& src,
                      const CacheManager::RegionPlacement& dst,
                      uint64_t start_off, CopyDone done);
  /// One poll of a running copy: reap and verify completions, post the
  /// next chunk, and schedule the finish once nothing is in flight.
  uint64_t PollCopy(RegionCopy& copy);
  /// Tears down a copy without running its `done` (cache deleted).
  void CancelCopy(uint64_t copy_id);
  /// Destroys the copy's QP and returns its share of the bandwidth.
  void ReleaseCopy(RegionCopy& copy);
  /// Pacing interval for one chunk: the copy bandwidth budget split
  /// evenly across the copies running now.
  uint64_t CopyPaceNs() const;

  // --- replication internals ---
  /// Instant failover of replicated regions off `vm`, then background
  /// re-replication. `deadline` is when the VM's memory vanishes:
  /// orphaned regions (both copies gone) migrate against it, copying
  /// out as much as the notice window allows.
  void FailoverReplicated(CacheEntry& cache, cluster::VmId vm,
                          sim::SimTime deadline);
  /// Allocates and fills a fresh replica for one degraded region
  /// (bounded retries with backoff + allocator capacity waitlist).
  void RepairReplica(CacheEntry* cache, uint32_t vregion);
  void ScheduleRepair(CacheId id, uint32_t vregion, uint32_t attempt,
                      uint64_t delay_ns);
  void RepairAttempt(CacheId id, uint32_t vregion, uint32_t attempt);
  /// Every exit of a repair job: closes its span (when `cache` is still
  /// live) and drops it from the pending-recovery count.
  void FinishRepair(CacheEntry* cache, uint32_t vregion);

  void OnVmLoss(cluster::VmId vm, sim::SimTime deadline);
  /// The recovery reaction to a VM-loss notice (failover / migrate).
  /// Split from OnVmLoss so the kDelayReclaimNotice buggify point can
  /// defer the reaction while the deadline clock runs.
  void HandleVmLoss(cluster::VmId vm, sim::SimTime deadline);

  sim::Simulation* sim_;
  rdma::Fabric* fabric_;
  CacheManager* manager_;
  net::ServerId node_;
  rdma::Nic* nic_;
  Options options_;
  /// Private fallback telemetry when Options carries none (declared
  /// before tel_ so tel_ can point at it).
  std::unique_ptr<telemetry::Telemetry> owned_telemetry_;
  telemetry::Telemetry* tel_ = nullptr;
  telemetry::TrackId recovery_track_ = 0;
  /// Recovery-supervisor gauges (client-wide, label-free).
  telemetry::Gauge* gauge_copies_active_ = nullptr;
  telemetry::Gauge* gauge_pending_recoveries_ = nullptr;
  CacheId next_id_ = 1;
  /// Slab of OpState records recycled across user ops (see OpState).
  common::SlabPool<OpState> op_pool_;
  std::unordered_map<CacheId, std::unique_ptr<CacheEntry>> caches_;
  std::vector<MigrationEvent> migration_log_;
  /// In-flight background activities (migration jobs, region transfers,
  /// quiesce pollers). Ownership lives here — their pollers capture raw
  /// pointers, never shared_ptrs, so there are no reference cycles —
  /// and entries erase themselves on completion; whatever teardown
  /// catches mid-flight is released by the destructor (pollers cancel
  /// their pending events safely).
  uint64_t next_bg_id_ = 1;
  std::unordered_map<uint64_t, std::shared_ptr<void>> background_;

  // --- recovery supervisor state ---
  /// Jobs admitted but waiting for a transfer slot, EDF-ordered on pop.
  std::vector<MigrationJob*> migration_queue_;
  /// Every live job (queued or running) by background id; async
  /// continuations look jobs up here instead of capturing pointers.
  std::unordered_map<uint64_t, MigrationJob*> migration_jobs_;
  uint32_t running_jobs_ = 0;
  /// Region copies currently moving bytes (split the copy bandwidth).
  uint32_t copies_active_ = 0;
  /// Reclamation deadlines by VM: a VM whose deadline passed is dead
  /// as a copy endpoint even if the manager still has its agent.
  /// Flat-hashed (never iterated): consulted per placement check.
  common::FlatMap<sim::SimTime> vm_deadlines_;
  std::function<void(const char*)> recovery_listener_;
  uint64_t pending_repairs_ = 0;

  // --- overload resilience state (DESIGN.md §12) ---
  /// Client-wide retry/hedge budgets: deposits accrue from fresh
  /// sub-op traffic, every retry (hedge) withdraws one.
  overload::RetryBudget retry_budget_;
  overload::RetryBudget hedge_budget_;
  /// Per-VM circuit breakers (trivially-copyable records, flat-hashed;
  /// never iterated — consulted per issue/completion).
  common::FlatMap<overload::CircuitBreaker> breakers_;
  /// Client-wide brownout: overload signals windowed into trip
  /// decisions; an active window sheds low-priority submissions.
  struct BrownoutState {
    sim::SimTime window_start = 0;
    uint64_t signals = 0;
    sim::SimTime until = 0;  // shedding active while now < until
    uint32_t level = 0;      // 1 sheds priority >= 2, 2 sheds >= 1
  };
  BrownoutState brownout_;
};

}  // namespace redy

#endif  // REDY_REDY_CACHE_CLIENT_H_
