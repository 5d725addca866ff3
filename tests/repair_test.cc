// Tests for the re-replication repair loop of the recovery supervisor:
// restoring the replication factor after failover (with anti-affinity),
// parking on the allocator's capacity waitlist when the cluster is
// full, bounded give-up, and leak-freedom of the target allocations.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "cluster/vm_allocator.h"
#include "redy/cache_client.h"
#include "redy/testbed.h"

namespace redy {
namespace {

class RepairTest : public ::testing::Test {
 protected:
  static TestbedOptions Opts() {
    TestbedOptions o;
    o.pods = 2;
    o.racks_per_pod = 2;
    o.servers_per_rack = 4;
    o.client.region_bytes = 2 * kMiB;
    return o;
  }

  template <typename Pred>
  static bool RunUntil(Testbed& tb, Pred pred, int max_steps = 20'000'000) {
    for (int i = 0; i < max_steps; i++) {
      if (pred()) return true;
      if (!tb.sim().Step()) return pred();
    }
    return pred();
  }

  static bool AllReplicated(Testbed& tb, CacheClient::CacheId id,
                            uint32_t regions) {
    for (uint32_t r = 0; r < regions; r++) {
      auto rep = tb.client().RegionReplicated(id, r);
      if (!rep.ok() || !*rep) return false;
    }
    return true;
  }
};

TEST_F(RepairTest, RepairRestoresReplicasWithAntiAffinity) {
  Testbed tb(Opts());
  tb.EnableInvariantChecks();
  auto id_or =
      tb.client().CreateReplicated(4 * kMiB, RdmaConfig{1, 0, 1, 8}, 64);
  ASSERT_TRUE(id_or.ok()) << id_or.status().ToString();
  const auto id = *id_or;

  const char msg[] = "survives repair";
  bool wrote = false;
  ASSERT_TRUE(tb.client()
                  .Write(id, 64, msg, sizeof(msg),
                         [&](Status st) {
                           EXPECT_TRUE(st.ok());
                           wrote = true;
                         })
                  .ok());
  ASSERT_TRUE(RunUntil(tb, [&] { return wrote; }));
  tb.RecordAckedBytes(id, 64, msg, sizeof(msg));

  // Kill the primary's server: every region it hosted fails over and
  // starts a repair job.
  auto vm = tb.client().RegionVm(id, 0);
  ASSERT_TRUE(vm.ok());
  tb.FailNode(tb.allocator().Find(*vm)->server);

  ASSERT_TRUE(RunUntil(tb, [&] {
    return AllReplicated(tb, id, 2) &&
           tb.client().PendingRecoveries() == 0;
  }));

  const auto* stats = tb.client().stats(id);
  EXPECT_GE(stats->repairs_started, 1u);
  EXPECT_EQ(stats->repairs_completed, stats->repairs_started);
  // Anti-affinity (replica never shares a node with its primary) plus
  // acked-bytes survival are swept by the invariant checker.
  EXPECT_GT(tb.invariant_checks(), 0u);
  EXPECT_TRUE(tb.invariant_violations().empty())
      << tb.invariant_violations()[0];
  EXPECT_TRUE(tb.CheckInvariantsNow().empty());
}

// Repair copies run through the same region copier as migration, so
// every chunk they land is checksummed and counted.
TEST_F(RepairTest, RepairCountsEveryVerifiedChunk) {
  Testbed tb(Opts());
  auto id_or =
      tb.client().CreateReplicated(4 * kMiB, RdmaConfig{1, 0, 1, 8}, 64);
  ASSERT_TRUE(id_or.ok()) << id_or.status().ToString();
  const auto id = *id_or;
  tb.client().ResetStats(id);

  auto vm = tb.client().RegionVm(id, 0);
  ASSERT_TRUE(vm.ok());
  tb.FailNode(tb.allocator().Find(*vm)->server);
  ASSERT_TRUE(RunUntil(tb, [&] {
    return AllReplicated(tb, id, 2) &&
           tb.client().PendingRecoveries() == 0;
  }));

  const auto* stats = tb.client().stats(id);
  ASSERT_GE(stats->repairs_completed, 1u);
  EXPECT_EQ(stats->repairs_completed, stats->repairs_started);
  EXPECT_TRUE(tb.client().migrations().empty());
  const uint64_t chunks_per_region =
      Opts().client.region_bytes / Opts().client.migration_chunk_bytes;
  EXPECT_EQ(stats->chunks_verified,
            stats->repairs_completed * chunks_per_region);
  EXPECT_EQ(stats->checksum_mismatches, 0u);
}

// A repair copies out of the surviving primary. When that VM is
// reclaimed and its deadline passes mid-copy, its memory no longer
// counts as the region: the copy fails, the fresh target goes back to
// the allocator, and the same repair job retries with a new target.
TEST_F(RepairTest, RepairFailsWhenSourceDeadlinePassesMidCopy) {
  TestbedOptions o = Opts();
  o.reclaim_notice = 1 * kMillisecond;  // the copy needs ~2 ms
  Testbed tb(o);
  tb.EnableInvariantChecks();
  auto id_or = tb.client().CreateReplicated(2 * kMiB, RdmaConfig{1, 0, 1, 8},
                                            64, /*spot=*/true);
  ASSERT_TRUE(id_or.ok()) << id_or.status().ToString();
  const auto id = *id_or;

  auto all_vms = [&] {
    std::vector<cluster::VmId> vms;
    for (int s = 0; s < tb.allocator().num_servers(); s++) {
      for (cluster::VmId v :
           tb.allocator().VmsOn(static_cast<net::ServerId>(s))) {
        vms.push_back(v);
      }
    }
    return vms;
  };

  // Lose the primary: the replica takes over and the repair starts
  // copying out of it into a freshly allocated target.
  auto old_primary = tb.client().RegionVm(id, 0);
  ASSERT_TRUE(old_primary.ok());
  tb.FailNode(tb.allocator().Find(*old_primary)->server);
  auto source = tb.client().RegionVm(id, 0);
  ASSERT_TRUE(source.ok());
  ASSERT_NE(*source, *old_primary);
  tb.sim().RunFor(600 * kMicrosecond);
  auto stats = [&] { return tb.client().stats(id); };
  ASSERT_EQ(stats()->repairs_started, 1u);
  ASSERT_EQ(
      tb.telemetry().metrics().GetGauge("redy.recovery.copies_active")->Value(),
      1);
  ASSERT_FALSE(AllReplicated(tb, id, 1));
  cluster::VmId first_target = cluster::kInvalidVm;
  for (cluster::VmId v : all_vms()) {
    if (v != *source) first_target = v;
  }
  ASSERT_NE(first_target, cluster::kInvalidVm);

  // Reclaim the source; its deadline lands before the copy can finish.
  // The copy stops at its first poll past the deadline and hands the
  // target back without completing the repair.
  ASSERT_TRUE(tb.allocator().Reclaim(*source).ok());
  const sim::SimTime deadline = tb.sim().Now() + o.reclaim_notice;
  ASSERT_TRUE(RunUntil(
      tb, [&] { return tb.allocator().Find(first_target) == nullptr; }));
  EXPECT_GE(tb.sim().Now(), deadline);
  EXPECT_EQ(stats()->repairs_completed, 0u);

  // The same job retries (bounded attempts) against the region's new
  // home and restores the replica; nothing leaks.
  ASSERT_TRUE(RunUntil(tb, [&] {
    return AllReplicated(tb, id, 1) &&
           tb.client().PendingRecoveries() == 0;
  }));
  EXPECT_EQ(stats()->repairs_started, 1u);
  EXPECT_EQ(stats()->repairs_completed, 1u);
  EXPECT_EQ(all_vms().size(), 2u);
  EXPECT_TRUE(tb.invariant_violations().empty())
      << tb.invariant_violations()[0];
  EXPECT_TRUE(tb.CheckInvariantsNow().empty());
}

// A migration that takes a region over while its replica repair is
// still copying owns the region's write pause from then on. The repair
// copy ending must neither release writes against the old placement
// (the migration already revoked it) nor install a replica copied
// before the migration's swap (it would miss every later write).
TEST_F(RepairTest, MigrationTakingOverMidRepairOwnsWritesAndReplica) {
  TestbedOptions o = Opts();
  o.reclaim_notice = 30 * kMillisecond;
  Testbed tb(o);
  tb.EnableInvariantChecks();
  auto id_or = tb.client().CreateReplicated(2 * kMiB, RdmaConfig{1, 0, 1, 8},
                                            64, /*spot=*/true);
  ASSERT_TRUE(id_or.ok()) << id_or.status().ToString();
  const auto id = *id_or;
  auto node_of = [&](uint32_t vregion) {
    auto vm = tb.client().RegionVm(id, vregion);
    EXPECT_TRUE(vm.ok());
    return tb.allocator().Find(*vm)->server;
  };

  // Lose the primary (the repair starts copying out of the promoted
  // replica), then reclaim the promoted primary so a migration of the
  // same region starts while the repair copy runs.
  tb.FailNode(node_of(0));
  tb.sim().RunFor(100 * kMicrosecond);
  auto promoted = tb.client().RegionVm(id, 0);
  ASSERT_TRUE(promoted.ok());
  ASSERT_TRUE(tb.allocator().Reclaim(*promoted).ok());

  // One fresh record every 50 us across both copies and past them;
  // max_retries = 0, so a fenced write would surface as-is.
  struct Tally {
    uint64_t done = 0;
    uint64_t failed = 0;
    uint64_t fenced = 0;
  } tally;
  constexpr int kWrites = 200;
  std::vector<std::vector<uint8_t>> recs(kWrites, std::vector<uint8_t>(64));
  for (int i = 0; i < kWrites; i++) {
    for (uint64_t j = 0; j < 64; j++) {
      recs[i][j] = static_cast<uint8_t>(i * 31 + j * 7 + 1);
    }
    const uint64_t addr = static_cast<uint64_t>(i) * 64;
    const uint8_t* data = recs[i].data();
    ASSERT_TRUE(tb.client()
                    .Write(id, addr, data, 64,
                           [&tb, t = &tally, id, addr, data](Status st) {
                             t->done++;
                             if (st.IsProtectionError()) t->fenced++;
                             if (!st.ok()) {
                               t->failed++;
                               return;
                             }
                             tb.RecordAckedBytes(id, addr, data, 64);
                           })
                    .ok());
    tb.sim().RunFor(50 * kMicrosecond);
  }
  ASSERT_TRUE(RunUntil(tb, [&] { return tally.done == kWrites; }));
  EXPECT_EQ(tally.fenced, 0u) << "parked writes released onto the revoked "
                                 "old placement";
  EXPECT_EQ(tally.failed, 0u);

  ASSERT_TRUE(RunUntil(tb, [&] {
    return AllReplicated(tb, id, 1) && tb.client().PendingRecoveries() == 0;
  }));
  ASSERT_EQ(tb.client().migrations().size(), 1u);
  EXPECT_FALSE(tb.client().migrations()[0].data_lost);
  EXPECT_EQ(tb.client().stats(id)->repairs_completed, 1u);

  // Fail over to the repaired replica: it must hold every acked write,
  // including the ones made after the migration's swap.
  tb.FailNode(node_of(0));
  ASSERT_TRUE(RunUntil(tb, [&] {
    return AllReplicated(tb, id, 1) && tb.client().PendingRecoveries() == 0;
  }));
  EXPECT_GT(tb.invariant_checks(), 0u);
  EXPECT_TRUE(tb.invariant_violations().empty())
      << tb.invariant_violations()[0];
  EXPECT_TRUE(tb.CheckInvariantsNow().empty());
}

class RepairCapacityTest : public RepairTest {
 protected:
  /// A four-server cluster (app node + three) where every server fits
  /// exactly one cache VM (the cheapest menu type is 8 GiB). After a
  /// replicated cache takes two servers, fillers consume the rest, so
  /// repair allocation fails until something frees.
  static TestbedOptions TightOpts() {
    TestbedOptions o;
    o.pods = 1;
    o.racks_per_pod = 1;
    o.servers_per_rack = 4;
    o.memory_per_server = 8 * kGiB;
    o.client.region_bytes = 2 * kMiB;
    return o;
  }

  /// Allocates filler VMs until the cluster is out of memory; returns
  /// them so tests can free a specific one.
  static std::vector<cluster::Vm> FillCluster(Testbed& tb) {
    std::vector<cluster::Vm> fillers;
    for (;;) {
      auto vm = tb.allocator().Allocate(1, 8 * kGiB, false);
      if (!vm.ok()) break;
      fillers.push_back(*vm);
    }
    return fillers;
  }
};

TEST_F(RepairCapacityTest, ParksOnCapacityWaitlistAndResumesAfterFree) {
  Testbed tb(TightOpts());
  auto id_or =
      tb.client().CreateReplicated(2 * kMiB, RdmaConfig{1, 0, 1, 8}, 64);
  ASSERT_TRUE(id_or.ok()) << id_or.status().ToString();
  const auto id = *id_or;
  const std::vector<cluster::Vm> fillers = FillCluster(tb);
  ASSERT_FALSE(fillers.empty());

  auto vm = tb.client().RegionVm(id, 0);
  ASSERT_TRUE(vm.ok());
  const net::ServerId primary_node = tb.allocator().Find(*vm)->server;
  tb.FailNode(primary_node);

  // The repair cannot place a replica anywhere: the old primary's
  // server is dead, the new primary's node is excluded by
  // anti-affinity, and the fillers hold everything else. It must park
  // (bounded backoff + capacity waitlist), not fail or spin.
  tb.sim().RunFor(300 * kMicrosecond);
  EXPECT_FALSE(AllReplicated(tb, id, 1));
  EXPECT_EQ(tb.client().PendingRecoveries(), 1u);
  EXPECT_EQ(tb.client().stats(id)->repairs_started, 1u);
  EXPECT_EQ(tb.client().stats(id)->repairs_completed, 0u);

  // Free a filler on a non-app, non-primary node: the capacity waiter
  // fires and the parked repair completes there.
  const cluster::Vm* victim = nullptr;
  auto vm_after = tb.client().RegionVm(id, 0);
  ASSERT_TRUE(vm_after.ok());
  const net::ServerId new_primary = tb.allocator().Find(*vm_after)->server;
  for (const auto& f : fillers) {
    if (f.server != tb.app_node() && f.server != new_primary) victim = &f;
  }
  ASSERT_NE(victim, nullptr);
  tb.allocator().Free(victim->id);

  ASSERT_TRUE(RunUntil(tb, [&] {
    return AllReplicated(tb, id, 1) &&
           tb.client().PendingRecoveries() == 0;
  }));
  EXPECT_EQ(tb.client().stats(id)->repairs_completed, 1u);
  EXPECT_TRUE(tb.CheckInvariantsNow().empty());
}

TEST_F(RepairCapacityTest, GivesUpAfterBoundedAttemptsWithoutLeaking) {
  Testbed tb(TightOpts());
  auto id_or =
      tb.client().CreateReplicated(2 * kMiB, RdmaConfig{1, 0, 1, 8}, 64);
  ASSERT_TRUE(id_or.ok()) << id_or.status().ToString();
  const auto id = *id_or;
  const std::vector<cluster::Vm> fillers = FillCluster(tb);
  const uint64_t free_before = tb.allocator().UnallocatedMemory();

  auto vm = tb.client().RegionVm(id, 0);
  ASSERT_TRUE(vm.ok());
  const cluster::Vm primary = *tb.allocator().Find(*vm);
  tb.FailNode(primary.server);

  // Nothing ever frees: the repair retries with doubling backoff and
  // gives up after repair_max_attempts, leaving the region degraded
  // but the cache usable and the recovery pipeline drained.
  ASSERT_TRUE(
      RunUntil(tb, [&] { return tb.client().PendingRecoveries() == 0; }));
  EXPECT_FALSE(AllReplicated(tb, id, 1));
  EXPECT_EQ(tb.client().stats(id)->repairs_started, 1u);
  EXPECT_EQ(tb.client().stats(id)->repairs_completed, 0u);
  // Failed attempts must not leak target VMs (the dead primary's
  // memory came back when its server freed it, nothing else moved).
  EXPECT_EQ(tb.allocator().UnallocatedMemory(),
            free_before + primary.memory_bytes);

  // Late capacity does not resurrect the abandoned job (its waiters
  // are one-shot and already spent) — and nothing crashes.
  tb.allocator().Free(fillers.back().id);
  tb.sim().RunFor(5 * kMillisecond);
  EXPECT_EQ(tb.client().PendingRecoveries(), 0u);

  // The degraded cache still serves traffic.
  const char msg[] = "degraded but alive";
  char out[32] = {};
  bool done = false;
  ASSERT_TRUE(tb.client()
                  .Write(id, 0, msg, sizeof(msg),
                         [&](Status st) {
                           EXPECT_TRUE(st.ok());
                           done = true;
                         })
                  .ok());
  ASSERT_TRUE(RunUntil(tb, [&] { return done; }));
  done = false;
  ASSERT_TRUE(tb.client()
                  .Read(id, 0, out, sizeof(msg),
                        [&](Status st) {
                          EXPECT_TRUE(st.ok());
                          done = true;
                        })
                  .ok());
  ASSERT_TRUE(RunUntil(tb, [&] { return done; }));
  EXPECT_STREQ(out, msg);
}

}  // namespace
}  // namespace redy
