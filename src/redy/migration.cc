// Region migration, the recovery supervisor, and Reshape: the
// dynamic-memory-management half of the cache client (Sections 3.3 and
// 6.2).
//
// Migration is built to survive adversarial schedules, not just the
// calm single-loss case:
//  - Overlapping reclamation notices (a "storm") queue as jobs and are
//    admitted earliest-deadline-first one at a time, so whole regions
//    complete before their force-free instead of every transfer racing
//    at a fraction of the rate and losing a little of everything.
//  - Each region copy tracks its acknowledged prefix (completions are
//    delivered in post order per QP, so the prefix is contiguous). A
//    copy that dies resumes from that prefix, re-targets to a freshly
//    allocated VM when the destination is gone, and falls back to the
//    replica as copy source when the primary dies first.
//  - When both copies of a region are gone, the loss is accounted
//    exactly (bytes_lost / lost_vregions) and the region re-homes to a
//    blank replacement so the cache stays structurally intact.
//
// Migration and replica repair move bytes with the same region copier
// (CopyRegion): paced, chunked, checksummed one-sided READs that share
// one bandwidth budget.

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "chaos/buggify.h"
#include "common/checksum.h"
#include "common/logging.h"
#include "redy/cache_client.h"

namespace redy {

namespace {

/// Copy bandwidth budget shared by every running copy. The paper's
/// tuned transfer moved 1 GB in 1.09 s (~8 Gb/s effective), leaving the
/// victim's NIC headroom to keep serving unpaused reads.
constexpr double kCopyBandwidthBps = 8e9;
/// Chunk READs in flight per copy.
constexpr uint32_t kCopyDepth = 8;
/// Resumes per region copy before the region counts as lost (gray
/// faults can make a transfer fail over and over).
constexpr uint32_t kMaxCopyResumes = 64;
/// Backoff base between target re-allocations (doubles per attempt up
/// to 64x; the allocator's capacity waitlist also wakes the copy).
constexpr uint64_t kTargetAllocBackoffNs = 50 * kMicrosecond;

}  // namespace

/// State of one queued or running migration job. Regions move one at a
/// time; the bandwidth-optimized transfer runs as chunked one-sided
/// reads issued by the *new* VM against the current source copy.
struct CacheClient::MigrationJob {
  CacheClient* client = nullptr;
  CacheId cache_id = 0;
  cluster::VmId victim = cluster::kInvalidVm;
  sim::SimTime deadline = 0;
  std::vector<uint32_t> vregions;
  size_t next = 0;
  bool running = false;
  MigrationEvent event;
  std::function<void(const MigrationEvent&)> done;
  uint64_t bg_id = 0;          // key in background_ / migration_jobs_
  uint64_t deadline_event = 0; // force-admit watcher (0 = none/fired)
  telemetry::SpanId trace_span = 0;  // open "migration_job" span (0 = none)

  // Per-region copy state, reset by MigrateNextRegion.
  std::optional<CacheManager::RegionPlacement> target;
  CacheManager::RegionPlacement source;
  bool from_replica = false;     // copying out of the replica
  bool alloc_waiting = false;    // parked on allocator backoff/waitlist
  uint32_t alloc_attempts = 0;
  uint64_t acked_off = 0;        // contiguous acknowledged prefix
  uint32_t region_resumes = 0;
  bool loss_accounted = false;
  uint64_t copy = 0;             // running CopyRegion id (0 = none)
  /// Quiesce/drain poller for the current phase. Reassigned per phase
  /// (never from inside its own body, so the replacement is safe).
  std::unique_ptr<sim::Poller> gate;
};

Status CacheClient::MigrateVm(
    CacheId id, cluster::VmId victim, sim::SimTime deadline,
    std::function<void(const MigrationEvent&)> done) {
  CacheEntry* cache = FindCache(id);
  if (cache == nullptr || cache->deleted) {
    return Status::NotFound("unknown cache");
  }
  std::vector<uint32_t> vregions;
  for (uint32_t i = 0; i < cache->regions.size(); i++) {
    if (cache->regions[i].placement.vm_id == victim) vregions.push_back(i);
  }
  if (vregions.empty()) return Status::OK();  // nothing to do
  return StartMigration(id, std::move(vregions), victim, deadline,
                        std::move(done));
}

Status CacheClient::MigrateRegions(
    CacheId id, std::vector<uint32_t> vregions, sim::SimTime deadline,
    std::function<void(const MigrationEvent&)> done) {
  CacheEntry* cache = FindCache(id);
  if (cache == nullptr || cache->deleted) {
    return Status::NotFound("unknown cache");
  }
  for (uint32_t vr : vregions) {
    if (vr >= cache->regions.size()) {
      return Status::OutOfRange("no such region");
    }
  }
  if (vregions.empty()) return Status::OK();
  return StartMigration(id, std::move(vregions), cluster::kInvalidVm,
                        deadline, std::move(done));
}

Status CacheClient::StartMigration(
    CacheId id, std::vector<uint32_t> vregions, cluster::VmId release_vm,
    sim::SimTime deadline,
    std::function<void(const MigrationEvent&)> done) {
  CacheEntry* cache = FindCache(id);

  // Regions already claimed by a queued or running job stay that job's
  // problem (overlapping notices can nominate the same region twice).
  auto claimed = [&](uint32_t vri) {
    for (const auto& [bg, j] : migration_jobs_) {
      if (j->cache_id != id) continue;
      for (size_t k = j->running ? j->next : 0; k < j->vregions.size();
           k++) {
        if (j->vregions[k] == vri) return true;
      }
    }
    return false;
  };
  std::vector<uint32_t> fresh;
  for (uint32_t vri : vregions) {
    if (!claimed(vri)) fresh.push_back(vri);
  }
  if (fresh.empty()) return Status::OK();

  auto job = std::make_shared<MigrationJob>();
  job->client = this;
  job->cache_id = id;
  job->victim = release_vm;
  job->deadline = deadline;
  job->vregions = std::move(fresh);
  job->done = std::move(done);
  job->event.cache = id;
  job->event.from = release_vm;
  job->event.started = sim_->Now();
  job->bg_id = next_bg_id_++;
  background_[job->bg_id] = job;
  migration_jobs_[job->bg_id] = job.get();
  cache->recovery_tasks++;
  gauge_pending_recoveries_->Set(static_cast<int64_t>(PendingRecoveries()));
  if (telemetry::SpanTracer* tr = ActiveTracer()) {
    job->trace_span = tr->NextId();
    tr->AsyncBegin(RecoveryTrack(*tr), "migration_job", "recovery",
                   job->trace_span, sim_->Now(), {"cache", id},
                   {"deadline", deadline});
  }

  // Pausing policy. The optimized scheme (Section 6.2) pauses writes
  // only to the region currently being copied and never pauses reads;
  // the baselines pause all affected regions for the whole migration —
  // from the notice, not from admission.
  for (uint32_t vri : job->vregions) {
    if (!options_.pause_per_region_writes) {
      cache->regions[vri].writes_paused = true;
    }
    if (!options_.unpaused_reads) {
      cache->regions[vri].reads_paused = true;
    }
  }

  // Backstop: a job still queued when its force-free arrives is
  // admitted regardless of the slot cap so its regions at least re-home
  // (salvaging from the replica when one exists).
  if (deadline > sim_->Now()) {
    job->deadline_event = sim_->At(deadline, [this, bg = job->bg_id] {
      auto it = migration_jobs_.find(bg);
      if (it == migration_jobs_.end()) return;
      MigrationJob* j = it->second;
      j->deadline_event = 0;
      if (j->running) return;
      auto qit = std::find(migration_queue_.begin(), migration_queue_.end(),
                           j);
      if (qit != migration_queue_.end()) migration_queue_.erase(qit);
      StartJob(j);
    });
  }

  migration_queue_.push_back(job.get());
  PumpRecovery();
  return Status::OK();
}

void CacheClient::PumpRecovery() {
  while (!migration_queue_.empty()) {
    if (options_.edf_migration && running_jobs_ > 0) break;
    // Earliest deadline first; admission order breaks ties.
    size_t best = 0;
    for (size_t i = 1; i < migration_queue_.size(); i++) {
      MigrationJob* a = migration_queue_[i];
      MigrationJob* b = migration_queue_[best];
      if (a->deadline < b->deadline ||
          (a->deadline == b->deadline && a->bg_id < b->bg_id)) {
        best = i;
      }
    }
    MigrationJob* job = migration_queue_[best];
    migration_queue_.erase(migration_queue_.begin() +
                           static_cast<ptrdiff_t>(best));
    StartJob(job);
  }
}

void CacheClient::StartJob(MigrationJob* job) {
  job->running = true;
  running_jobs_++;
  if (telemetry::SpanTracer* tr = ActiveTracer()) {
    tr->Instant(RecoveryTrack(*tr), "job_admitted", "recovery", sim_->Now(),
                {"cache", job->cache_id}, {"regions", job->vregions.size()});
  }
  MigrateNextRegion(job);
}

bool CacheClient::CanStartBackgroundCopy() const {
  if (!options_.edf_migration) return true;
  return migration_queue_.empty() && copies_active_ == 0;
}

bool CacheClient::VmUsable(const CacheManager::RegionPlacement& p) const {
  if (p.vm_id == cluster::kInvalidVm) return false;
  CacheServer* server = manager_->ServerFor(p.vm_id);
  if (server == nullptr || !server->alive()) return false;
  if (fabric_->NicAt(p.node)->failed()) return false;
  const sim::SimTime* deadline = vm_deadlines_.Find(p.vm_id);
  return deadline == nullptr || sim_->Now() < *deadline;
}

void CacheClient::NotifyRecovery(const char* kind) {
  if (recovery_listener_) recovery_listener_(kind);
}

uint64_t CacheClient::PendingRecoveries() const {
  return migration_jobs_.size() + pending_repairs_;
}

void CacheClient::MigrateNextRegion(MigrationJob* job) {
  CacheEntry& cache = *FindCache(job->cache_id);
  // Skip regions that no longer need this job: re-homed by a failover
  // meanwhile, or owned by another copy.
  while (job->next < job->vregions.size()) {
    const VRegion& vr = cache.regions[job->vregions[job->next]];
    bool stale = vr.migrating;
    if (job->victim != cluster::kInvalidVm &&
        vr.placement.vm_id != job->victim) {
      stale = true;
    }
    if (!stale) break;
    job->next++;
  }
  if (job->next >= job->vregions.size()) {
    FinishMigration(job);
    return;
  }
  const uint32_t vr_index = job->vregions[job->next];
  VRegion& vr = cache.regions[vr_index];
  vr.migrating = true;

  // Fresh per-region copy state.
  job->target.reset();
  job->from_replica = false;
  job->alloc_waiting = false;
  job->alloc_attempts = 0;
  job->acked_off = 0;
  job->region_resumes = 0;
  job->loss_accounted = false;

  // Writes to the region being copied must always pause (its bytes are
  // being snapshotted); reads keep flowing to the old VM when the
  // unpaused-reads optimization is on.
  vr.writes_paused = true;
  if (!options_.unpaused_reads) vr.reads_paused = true;

  // Wait until in-flight sub-ops on this region drain, then transfer.
  // (In-flight *reads* are harmless: the old region stays intact and
  // serves them until the placement swap.)
  //
  // Buggify can disable the drain barrier outright; the copy then races
  // whatever is still in flight, and only the epoch revocation below
  // keeps those zombie writes from landing silently behind the copy.
  const bool skip_drain = BuggifyFires(
      options_.buggify,
      static_cast<uint32_t>(chaos::BuggifyPoint::kSkipDrainGate));
  job->gate = std::make_unique<sim::Poller>(
      sim_, options_.costs.poll_interval_ns,
      [this, job, vr_index, skip_drain]() -> uint64_t {
        CacheEntry& cache = *FindCache(job->cache_id);
        VRegion& vr = cache.regions[vr_index];
        if (!skip_drain && vr.inflight_subops > 0) {
          return options_.costs.idle_poll_ns;
        }
        job->gate->Stop();
        // Fence before the first chunk is read: bump the old placement's
        // rkey epoch so in-flight one-sided writes (and any later op
        // issued against a stale cached key) complete with
        // ProtectionError instead of mutating bytes the copy already
        // snapshotted. Buggify can reorder the revoke after the copy
        // start; the placement is captured *now* so a delayed revoke
        // still fences the old region, never the post-swap one.
        if (options_.epoch_fencing) {
          const CacheManager::RegionPlacement old_placement = vr.placement;
          const CacheId cid = job->cache_id;
          if (BuggifyFires(options_.buggify,
                           static_cast<uint32_t>(
                               chaos::BuggifyPoint::kDelayRevoke))) {
            sim_->After(
                options_.buggify->DelayNs(chaos::BuggifyPoint::kDelayRevoke),
                [this, cid, old_placement, vr_index] {
                  RevokePlacement(cid, old_placement, vr_index);
                });
          } else {
            RevokePlacement(cid, old_placement, vr_index);
          }
        }
        sim_->After(0, [this, bg = job->bg_id] {
          auto it = migration_jobs_.find(bg);
          if (it != migration_jobs_.end()) StartRegionCopy(it->second);
        });
        return 200;
      });
  job->gate->Start();
}

void CacheClient::RevokePlacement(
    CacheId cache_id, const CacheManager::RegionPlacement& placement,
    uint32_t vregion) {
  CacheEntry* cache = FindCache(cache_id);
  if (cache == nullptr || cache->deleted) return;
  if (placement.server == nullptr) return;
  rdma::MemoryRegion* mr = placement.server->region(placement.region_index);
  if (mr == nullptr || !mr->valid()) return;
  mr->RevokeEpoch();
  cache->ctr.fence_revocations->Inc();
  if (telemetry::SpanTracer* tr = ActiveTracer()) {
    tr->Instant(RecoveryTrack(*tr), "revoke", "recovery", sim_->Now(),
                {"cache", cache_id}, {"vregion", vregion});
  }
}

void CacheClient::StartRegionCopy(MigrationJob* job) {
  CacheEntry& cache = *FindCache(job->cache_id);
  const uint32_t vr_index = job->vregions[job->next];
  VRegion& vr = cache.regions[vr_index];

  // A target that died under us is abandoned along with whatever
  // reached it; the copy re-targets and starts over.
  if (job->target.has_value() && !VmUsable(*job->target)) {
    job->target.reset();
    job->acked_off = 0;
    cache.ctr.migration_retargets->Inc();
    job->event.retargets++;
    if (telemetry::SpanTracer* tr = ActiveTracer()) {
      tr->Instant(RecoveryTrack(*tr), "retarget", "recovery", sim_->Now(),
                  {"cache", job->cache_id},
                  {"vregion", job->vregions[job->next]});
    }
  }

  // Ensure a target exists before probing sources, so a total source
  // loss still re-homes the region (blank) instead of stranding it.
  if (!job->target.has_value()) {
    std::vector<net::ServerId> avoid;
    if (vr.replica.has_value()) avoid.push_back(vr.replica->node);
    auto alloc_or = manager_->AllocateWithConfig(
        cache.region_bytes, cache.cfg, cache.record_bytes, cache.spot,
        node_, cache.region_bytes, /*max_hops=*/5,
        avoid.empty() ? nullptr : &avoid);
    if (!alloc_or.ok()) {
      // Out of capacity: exponential backoff, woken early by the
      // allocator's capacity waitlist. alloc_waiting dedupes the two
      // wakeups.
      job->alloc_waiting = true;
      const uint64_t delay = kTargetAllocBackoffNs
                             << std::min<uint32_t>(job->alloc_attempts, 6);
      job->alloc_attempts++;
      const uint64_t bg = job->bg_id;
      sim_->After(delay, [this, bg] { ResumeRegion(bg); });
      manager_->allocator()->WaitForCapacity(
          [this, bg] { ResumeRegion(bg); });
      return;
    }
    job->target = alloc_or->regions.front();
    job->acked_off = 0;
    if (job->event.to == cluster::kInvalidVm) {
      job->event.to = job->target->vm_id;
    }
  }

  // Pick a live copy source: the primary, unless it already died and
  // the replica holds every acknowledged byte; back to the primary if
  // the replica is the one that is gone.
  if (!job->from_replica && VmUsable(vr.placement)) {
    job->source = vr.placement;
  } else if (vr.replica.has_value() && VmUsable(*vr.replica)) {
    job->source = *vr.replica;
    job->from_replica = true;
  } else if (VmUsable(vr.placement)) {
    job->source = vr.placement;
    job->from_replica = false;
  } else {
    RegionLost(job);
    return;
  }
  job->copy = CopyRegion(
      job->cache_id, job->source, *job->target, job->acked_off,
      [this, bg = job->bg_id](bool failed, uint64_t acked_end) {
        auto it = migration_jobs_.find(bg);
        if (it == migration_jobs_.end()) return;
        it->second->copy = 0;
        it->second->acked_off = acked_end;
        HandleCopyEnd(it->second, failed);
      });
}

void CacheClient::ResumeRegion(uint64_t bg_id) {
  auto it = migration_jobs_.find(bg_id);
  if (it == migration_jobs_.end() || !it->second->alloc_waiting) return;
  it->second->alloc_waiting = false;
  StartRegionCopy(it->second);
}

void CacheClient::HandleCopyEnd(MigrationJob* job, bool failed) {
  CacheEntry& cache = *FindCache(job->cache_id);

  if (!VmUsable(*job->target)) {
    // Target died under the copy: StartRegionCopy drops it, allocates a
    // fresh one, and restarts from offset 0.
    StartRegionCopy(job);
    return;
  }
  if (!failed) {
    job->event.bytes += cache.region_bytes;
    SwapRegion(job);
    MigrateNextRegion(job);
    return;
  }
  // Transfer failed (gray fault, source loss, broken QP): resume from
  // the acknowledged prefix, bounded so a persistently failing copy
  // eventually counts as lost.
  if (job->region_resumes >= kMaxCopyResumes) {
    RegionLost(job);
    return;
  }
  job->region_resumes++;
  cache.ctr.migration_resumes->Inc();
  job->event.resumes++;
  if (telemetry::SpanTracer* tr = ActiveTracer()) {
    tr->Instant(RecoveryTrack(*tr), "resume", "recovery", sim_->Now(),
                {"cache", job->cache_id}, {"acked_off", job->acked_off});
  }
  StartRegionCopy(job);
}

void CacheClient::RegionLost(MigrationJob* job) {
  CacheEntry& cache = *FindCache(job->cache_id);
  const uint32_t vr_index = job->vregions[job->next];
  if (!job->loss_accounted) {
    job->loss_accounted = true;
    job->event.data_lost = true;
    job->event.regions_lost++;
    job->event.lost_vregions.push_back(vr_index);
    job->event.bytes_lost += cache.region_bytes - job->acked_off;
    job->event.bytes += job->acked_off;
    cache.ctr.storm_regions_lost->Inc();
    if (telemetry::SpanTracer* tr = ActiveTracer()) {
      tr->Instant(RecoveryTrack(*tr), "region_lost", "recovery", sim_->Now(),
                  {"cache", job->cache_id}, {"vregion", vr_index});
    }
  }
  // The acked prefix (possibly empty) already sits on the target; the
  // region re-homes there so the cache stays usable.
  SwapRegion(job);
  MigrateNextRegion(job);
}

void CacheClient::SwapRegion(MigrationJob* job) {
  CacheEntry& cache = *FindCache(job->cache_id);
  const uint32_t vr_index = job->vregions[job->next];
  VRegion& vr = cache.regions[vr_index];
  vr.placement = *job->target;
  // The lease followed the old placement; the first op against the new
  // one re-establishes it (piggybacked on its response).
  vr.lease_expires_at = 0;
  vr.lease_pending = false;
  vr.migrating = false;
  if (options_.pause_per_region_writes) {
    vr.writes_paused = false;
    if (options_.unpaused_reads) vr.reads_paused = false;
    ReplayParked(cache, vr_index);
  }
  job->event.regions++;
  job->target.reset();
  job->from_replica = false;
  job->next++;
}

void CacheClient::FinishMigration(MigrationJob* job) {
  CacheEntry& cache = *FindCache(job->cache_id);
  // Unpause everything the baseline policies held back, except regions
  // currently owned by another job's copy.
  for (uint32_t vri : job->vregions) {
    VRegion& vr = cache.regions[vri];
    if (vr.migrating) continue;
    vr.writes_paused = false;
    vr.reads_paused = false;
    ReplayParked(cache, vri);
  }
  if (job->deadline_event != 0) {
    sim_->Cancel(job->deadline_event);
    job->deadline_event = 0;
  }

  // Partial (per-region) migration: the source VMs still host other
  // regions, so nothing is released.
  if (job->victim == cluster::kInvalidVm) {
    FinalizeMigration(job);
    return;
  }

  // Wait for any in-flight ops against the old VM to drain, then drop
  // the connections and release the VM (safe after a force-free: the
  // manager's release path is idempotent).
  job->gate = std::make_unique<sim::Poller>(
      sim_, options_.costs.poll_interval_ns,
      [this, job]() -> uint64_t {
        CacheEntry& cache = *FindCache(job->cache_id);
        for (auto& t : cache.threads) {
          auto it = t->conns.find(job->victim);
          if (it == t->conns.end()) continue;
          Connection& c = *it->second;
          if (!c.onesided_ops.empty() || c.inflight_batches > 0 ||
              !c.current.empty()) {
            return options_.costs.idle_poll_ns;
          }
        }
        job->gate->Stop();
        sim_->After(0, [this, bg = job->bg_id] {
          auto jit = migration_jobs_.find(bg);
          if (jit == migration_jobs_.end()) return;
          MigrationJob* j = jit->second;
          DropConnections(*FindCache(j->cache_id), j->victim);
          manager_->ReleaseVm(j->victim);
          FinalizeMigration(j);
        });
        return 100;
      });
  job->gate->Start();
}

void CacheClient::FinalizeMigration(MigrationJob* job) {
  CacheEntry* cache = FindCache(job->cache_id);
  if (cache != nullptr) {
    REDY_CHECK(cache->recovery_tasks > 0);
    cache->recovery_tasks--;
  }
  REDY_CHECK(running_jobs_ > 0);
  running_jobs_--;
  job->event.finished = sim_->Now();
  migration_log_.push_back(job->event);
  if (job->trace_span != 0) {
    if (telemetry::SpanTracer* tr = ActiveTracer()) {
      tr->AsyncEnd(RecoveryTrack(*tr), "migration_job", "recovery",
                   job->trace_span, sim_->Now(), {"cache", job->cache_id},
                   {"bytes", job->event.bytes});
    }
  }
  auto done = std::move(job->done);
  const MigrationEvent ev = job->event;
  migration_jobs_.erase(job->bg_id);
  background_.erase(job->bg_id);  // destroys the job
  gauge_pending_recoveries_->Set(static_cast<int64_t>(PendingRecoveries()));
  NotifyRecovery("migration");
  if (done) done(ev);
  PumpRecovery();
}

void CacheClient::AbortCacheRecovery(CacheEntry& cache) {
  std::vector<MigrationJob*> jobs;
  for (const auto& [bg, j] : migration_jobs_) {
    if (j->cache_id == cache.id) jobs.push_back(j);
  }
  std::sort(jobs.begin(), jobs.end(),
            [](const MigrationJob* a, const MigrationJob* b) {
              return a->bg_id < b->bg_id;
            });
  for (MigrationJob* job : jobs) {
    auto qit = std::find(migration_queue_.begin(), migration_queue_.end(),
                         job);
    if (qit != migration_queue_.end()) {
      migration_queue_.erase(qit);
    } else if (job->running) {
      REDY_CHECK(running_jobs_ > 0);
      running_jobs_--;
    }
    if (job->deadline_event != 0) sim_->Cancel(job->deadline_event);
    if (job->trace_span != 0) {
      if (telemetry::SpanTracer* tr = ActiveTracer()) {
        tr->AsyncEnd(RecoveryTrack(*tr), "migration_job", "recovery",
                     job->trace_span, sim_->Now());
      }
    }
    job->gate.reset();
    if (job->copy != 0) CancelCopy(job->copy);
    if (job->target.has_value()) manager_->ReleaseVm(job->target->vm_id);
    REDY_CHECK(cache.recovery_tasks > 0);
    cache.recovery_tasks--;
    migration_jobs_.erase(job->bg_id);
    background_.erase(job->bg_id);  // destroys the job
  }
  if (!jobs.empty()) {
    gauge_pending_recoveries_->Set(static_cast<int64_t>(PendingRecoveries()));
    PumpRecovery();
  }
}

std::vector<std::string> CacheClient::CheckInvariants() const {
  std::vector<std::string> violations;
  char buf[192];
  // Region indices covered by queued/running jobs: their placement may
  // legitimately point at a dying VM until the copy lands.
  auto covered = [&](CacheId id, uint32_t vri) {
    for (const auto& [bg, j] : migration_jobs_) {
      if (j->cache_id != id) continue;
      for (size_t k = j->running ? j->next : 0; k < j->vregions.size();
           k++) {
        if (j->vregions[k] == vri) return true;
      }
    }
    return false;
  };
  for (const auto& [id, cache] : caches_) {
    if (cache->deleted) continue;
    for (uint32_t i = 0; i < cache->regions.size(); i++) {
      const VRegion& vr = cache->regions[i];
      if (!vr.migrating && !covered(id, i) && !VmUsable(vr.placement)) {
        std::snprintf(buf, sizeof(buf),
                      "cache %llu region %u placed on dead VM %llu",
                      static_cast<unsigned long long>(id), i,
                      static_cast<unsigned long long>(vr.placement.vm_id));
        violations.emplace_back(buf);
      }
      if (vr.replica.has_value()) {
        if (vr.replica->node == vr.placement.node) {
          std::snprintf(buf, sizeof(buf),
                        "cache %llu region %u replica shares node %u with "
                        "its primary",
                        static_cast<unsigned long long>(id), i,
                        static_cast<unsigned>(vr.placement.node));
          violations.emplace_back(buf);
        }
        if (!VmUsable(*vr.replica)) {
          std::snprintf(buf, sizeof(buf),
                        "cache %llu region %u replica on dead VM %llu",
                        static_cast<unsigned long long>(id), i,
                        static_cast<unsigned long long>(
                            vr.replica->vm_id));
          violations.emplace_back(buf);
        }
      }
    }
  }
  return violations;
}

// ---------------------------------------------------------------------------
// Region copier (migration and replica repair)
// ---------------------------------------------------------------------------

/// One running region copy. The target's NIC READs chunk after chunk
/// out of the source region; completions arrive in post order per QP,
/// so the verified chunks form a contiguous prefix.
struct CacheClient::RegionCopy {
  struct Chunk {
    uint32_t len = 0;
    uint64_t sum = 0;  // source-side checksum taken at post time
  };
  uint64_t id = 0;  // key in background_
  CacheId cache_id = 0;
  CacheManager::RegionPlacement source;
  rdma::MemoryRegion* src_mr = nullptr;
  rdma::MemoryRegion* dst_mr = nullptr;
  uint64_t region_bytes = 0;
  uint64_t next_off = 0;   // next chunk to post
  uint64_t acked_end = 0;  // end of the verified prefix
  std::deque<Chunk> inflight;  // posted chunks, in post order
  bool failed = false;
  rdma::QueuePair* qp = nullptr;  // on the target's NIC
  std::unique_ptr<sim::Poller> driver;
  CopyDone done;
};

uint64_t CacheClient::CopyRegion(CacheId cache_id,
                                 const CacheManager::RegionPlacement& src,
                                 const CacheManager::RegionPlacement& dst,
                                 uint64_t start_off, CopyDone done) {
  auto owned = std::make_shared<RegionCopy>();
  RegionCopy& c = *owned;
  c.id = next_bg_id_++;
  background_[c.id] = owned;
  c.cache_id = cache_id;
  c.source = src;
  c.src_mr = src.server->region(src.region_index);
  c.dst_mr = dst.server->region(dst.region_index);
  c.region_bytes = FindCache(cache_id)->region_bytes;
  c.next_off = start_off;
  c.acked_end = start_off;
  c.done = std::move(done);

  copies_active_++;
  gauge_copies_active_->Set(static_cast<int64_t>(copies_active_));
  c.qp = fabric_->NicAt(dst.node)->CreateQueuePair(kCopyDepth);
  rdma::QueuePair* peer =
      fabric_->NicAt(src.node)->CreateQueuePair(kCopyDepth);
  if (!c.qp->Connect(peer).ok()) c.failed = true;

  c.driver = std::make_unique<sim::Poller>(
      sim_, 250, [this, copy = &c]() -> uint64_t { return PollCopy(*copy); });
  c.driver->Start();
  return c.id;
}

uint64_t CacheClient::PollCopy(RegionCopy& c) {
  uint64_t consumed = 0;
  rdma::WorkCompletion wc;
  while (c.qp->send_cq().Poll(&wc, 1) == 1) {
    REDY_CHECK(!c.inflight.empty());
    const RegionCopy::Chunk chunk = c.inflight.front();
    c.inflight.pop_front();
    if (wc.status != StatusCode::kOk) {
      c.failed = true;
    } else if (!c.failed) {
      // Successes before the first failure extend the prefix: the chunk
      // sits at [acked_end, acked_end+len) on the target. Re-checksum it
      // against the source-side sum. A mismatch means the source mutated
      // under the read (a zombie write racing the copy): fail the copy
      // without advancing the prefix, so a resume re-reads the chunk.
      CacheEntry* cache = FindCache(c.cache_id);
      if (cache != nullptr) cache->ctr.chunks_verified->Inc();
      if (Checksum64(c.dst_mr->data() + c.acked_end, chunk.len) !=
          chunk.sum) {
        if (cache != nullptr) cache->ctr.checksum_mismatches->Inc();
        c.failed = true;
        if (telemetry::SpanTracer* tr = ActiveTracer()) {
          tr->Instant(RecoveryTrack(*tr), "chunk_corrupt", "recovery",
                      sim_->Now(), {"cache", c.cache_id},
                      {"off", c.acked_end});
        }
      } else {
        c.acked_end += chunk.len;
        if (telemetry::SpanTracer* tr = ActiveTracer()) {
          tr->Instant(RecoveryTrack(*tr), "chunk_acked", "recovery",
                      sim_->Now(), {"cache", c.cache_id},
                      {"acked_off", c.acked_end});
        }
      }
    }
    consumed += 100;
  }
  // A source past its deadline no longer holds the region: stop posting
  // against it.
  if (!c.failed && c.next_off < c.region_bytes && !VmUsable(c.source)) {
    c.failed = true;
  }
  // Pacing follows the number of running copies; at most one chunk goes
  // out per pace interval.
  const uint64_t pace_ns = CopyPaceNs();
  if (!c.failed && c.next_off < c.region_bytes &&
      c.qp->outstanding() < kCopyDepth) {
    const uint64_t len =
        std::min(options_.migration_chunk_bytes, c.region_bytes - c.next_off);
    if (c.qp->PostRead(c.next_off, c.dst_mr, c.next_off, c.source.key,
                       c.next_off, len)
            .ok()) {
      // Checksum the source now: the copy is only correct if the source
      // stays frozen until the read lands.
      c.inflight.push_back(RegionCopy::Chunk{
          static_cast<uint32_t>(len),
          Checksum64(c.src_mr->data() + c.next_off, len)});
      c.next_off += len;
      consumed += 200;
    } else {
      c.failed = true;
    }
  }
  if ((c.next_off >= c.region_bytes || c.failed) && c.inflight.empty()) {
    c.driver->Stop();
    // Finish outside the poller body: `done` may start the next copy.
    sim_->After(0, [this, id = c.id] {
      auto it = background_.find(id);
      if (it == background_.end()) return;  // cancelled meanwhile
      RegionCopy& copy = *static_cast<RegionCopy*>(it->second.get());
      ReleaseCopy(copy);
      CopyDone done = std::move(copy.done);
      const bool failed = copy.failed;
      const uint64_t acked_end = copy.acked_end;
      background_.erase(it);  // destroys the copy and its poller
      done(failed, acked_end);
    });
  }
  if (consumed == 0) return 50;
  return pace_ns > consumed ? pace_ns : consumed;
}

void CacheClient::CancelCopy(uint64_t copy_id) {
  auto it = background_.find(copy_id);
  if (it == background_.end()) return;
  RegionCopy& c = *static_cast<RegionCopy*>(it->second.get());
  c.driver->Stop();
  ReleaseCopy(c);
  background_.erase(it);
}

void CacheClient::ReleaseCopy(RegionCopy& c) {
  c.qp->nic()->DestroyQueuePair(c.qp);
  c.qp = nullptr;
  REDY_CHECK(copies_active_ > 0);
  copies_active_--;
  gauge_copies_active_->Set(static_cast<int64_t>(copies_active_));
}

uint64_t CacheClient::CopyPaceNs() const {
  const double rate = kCopyBandwidthBps / copies_active_;
  return static_cast<uint64_t>(
      static_cast<double>(options_.migration_chunk_bytes) * 8.0 / rate *
      1e9);
}

void CacheClient::OnVmLoss(cluster::VmId vm, sim::SimTime deadline) {
  // Record the death sentence first: the VM stops counting as a usable
  // copy endpoint at its deadline, whenever the reaction runs.
  vm_deadlines_[vm] = deadline;
  // Buggify may sit on the notice. The deadline clock above is already
  // running — only the reaction is late, exactly like a control-plane
  // message stuck in a slow queue.
  if (BuggifyFires(options_.buggify,
                   static_cast<uint32_t>(
                       chaos::BuggifyPoint::kDelayReclaimNotice))) {
    sim_->After(
        options_.buggify->DelayNs(chaos::BuggifyPoint::kDelayReclaimNotice),
        [this, vm, deadline] { HandleVmLoss(vm, deadline); });
    return;
  }
  HandleVmLoss(vm, deadline);
}

void CacheClient::HandleVmLoss(cluster::VmId vm, sim::SimTime deadline) {
  // Collect first: recovery mutates cache state.
  std::vector<CacheId> affected;
  for (auto& [id, cache] : caches_) {
    if (cache->deleted) continue;
    for (const auto& vr : cache->regions) {
      if (vr.placement.vm_id == vm ||
          (vr.replica.has_value() && vr.replica->vm_id == vm)) {
        affected.push_back(id);
        break;
      }
    }
  }
  std::sort(affected.begin(), affected.end());
  for (CacheId id : affected) {
    CacheEntry* cache = FindCache(id);
    if (cache->replicated) {
      // Replicated caches fail over instantly instead of migrating.
      FailoverReplicated(*cache, vm, deadline);
      NotifyRecovery("failover");
      continue;
    }
    Status st = MigrateVm(id, vm, deadline);
    if (!st.ok()) {
      REDY_LOG_ERROR("auto-migration of cache %llu off VM %llu failed: %s",
                     static_cast<unsigned long long>(id),
                     static_cast<unsigned long long>(vm),
                     st.ToString().c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// Reshape (Section 3.3)
// ---------------------------------------------------------------------------

Status CacheClient::Reshape(CacheId id, uint64_t new_capacity,
                            const Slo& new_slo) {
  CacheEntry* cache = FindCache(id);
  if (cache == nullptr || cache->deleted) {
    return Status::NotFound("unknown cache");
  }
  if (cache->inflight_ops > 0 || cache->recovery_tasks > 0) {
    return Status::FailedPrecondition(
        "Reshape requires a quiescent cache (I/O is stalled by the "
        "caller during resizing, Section 6.2)");
  }
  const bool slo_unchanged =
      new_slo.max_latency_us == cache->slo.max_latency_us &&
      new_slo.min_throughput_mops == cache->slo.min_throughput_mops &&
      new_slo.record_bytes == cache->slo.record_bytes;
  if (slo_unchanged) return ReshapeCapacity(id, new_capacity);

  // SLO changed: find new VMs satisfying it, move the data, then
  // deallocate the old cache. On failure the cache is unchanged.
  auto alloc_or =
      manager_->Allocate(new_capacity, new_slo,
                         cache->spot ? sim_->Now() + kHour : kDurationInfinite,
                         node_, cache->region_bytes);
  if (!alloc_or.ok()) return alloc_or.status();

  // Copy surviving contents region by region (truncating if shrunk).
  const size_t keep =
      std::min(cache->regions.size(), alloc_or->regions.size());
  for (size_t i = 0; i < keep; i++) {
    const auto& old_p = cache->regions[i].placement;
    const auto& new_p = alloc_or->regions[i];
    std::memcpy(new_p.server->region(new_p.region_index)->data(),
                old_p.server->region(old_p.region_index)->data(),
                cache->region_bytes);
  }

  // Tear down the old side.
  std::vector<cluster::VmId> old_vms;
  for (const auto& vr : cache->regions) old_vms.push_back(vr.placement.vm_id);
  std::sort(old_vms.begin(), old_vms.end());
  old_vms.erase(std::unique(old_vms.begin(), old_vms.end()), old_vms.end());
  for (cluster::VmId vm : old_vms) {
    DropConnections(*cache, vm);
    manager_->ReleaseVm(vm);
  }

  cache->regions.clear();
  for (const auto& rp : alloc_or->regions) {
    VRegion vr;
    vr.placement = rp;
    cache->regions.push_back(std::move(vr));
  }
  cache->cfg = alloc_or->config;
  cache->slo = new_slo;
  cache->record_bytes = new_slo.record_bytes;
  cache->capacity = new_capacity;
  cache->price_per_hour = alloc_or->price_per_hour;
  StartThreads(cache);
  return Status::OK();
}

Status CacheClient::ReshapeCapacity(CacheId id, uint64_t new_capacity) {
  CacheEntry* cache = FindCache(id);
  if (cache == nullptr || cache->deleted) {
    return Status::NotFound("unknown cache");
  }
  if (cache->inflight_ops > 0 || cache->recovery_tasks > 0) {
    return Status::FailedPrecondition("Reshape requires a quiescent cache");
  }
  if (new_capacity == 0) return Status::InvalidArgument("zero capacity");

  const uint32_t new_regions = static_cast<uint32_t>(
      (new_capacity + cache->region_bytes - 1) / cache->region_bytes);
  const uint32_t old_regions = static_cast<uint32_t>(cache->regions.size());

  if (new_regions > old_regions) {
    // Grow: allocate additional regions under the same configuration
    // (same memory-to-core ratio, batch size, and queue depth).
    auto alloc_or = manager_->AllocateWithConfig(
        static_cast<uint64_t>(new_regions - old_regions) *
            cache->region_bytes,
        cache->cfg, cache->record_bytes, cache->spot, node_,
        cache->region_bytes);
    if (!alloc_or.ok()) return alloc_or.status();
    for (const auto& rp : alloc_or->regions) {
      VRegion vr;
      vr.placement = rp;
      cache->regions.push_back(std::move(vr));
    }
  } else if (new_regions < old_regions) {
    // Shrink: truncate the tail and notify the manager of freed VMs
    // (the Reallocate path).
    std::vector<cluster::VmId> dropped;
    for (uint32_t i = new_regions; i < old_regions; i++) {
      dropped.push_back(cache->regions[i].placement.vm_id);
    }
    cache->regions.resize(new_regions);
    std::sort(dropped.begin(), dropped.end());
    dropped.erase(std::unique(dropped.begin(), dropped.end()),
                  dropped.end());
    for (cluster::VmId vm : dropped) {
      bool still_used = false;
      for (const auto& vr : cache->regions) {
        if (vr.placement.vm_id == vm) {
          still_used = true;
          break;
        }
      }
      if (!still_used) {
        DropConnections(*cache, vm);
        manager_->ReleaseVm(vm);
      }
    }
  }
  cache->capacity = new_capacity;
  return Status::OK();
}

}  // namespace redy
