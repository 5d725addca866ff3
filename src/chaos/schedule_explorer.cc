#include "chaos/schedule_explorer.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <utility>

#include "common/checksum.h"
#include "common/random.h"
#include "common/units.h"
#include "redy/testbed.h"

namespace redy::chaos {

ScheduleExplorer::ScheduleExplorer(Scenario scenario, Options opts)
    : scenario_(std::move(scenario)), opts_(opts) {}

RunOutcome ScheduleExplorer::Replay(const std::vector<bool>& schedule) {
  Buggify buggify(schedule);
  return scenario_(buggify);
}

ScheduleExplorer::Result ScheduleExplorer::Explore() {
  Result result;
  for (uint32_t i = 0; i < opts_.seed_budget; i++) {
    const uint64_t seed = opts_.seed_start + i;
    Buggify buggify(seed, opts_.buggify_p);
    RunOutcome outcome = scenario_(buggify);
    result.seeds_explored++;
    if (!outcome.corrupted) continue;

    result.found_failure = true;
    result.failing_seed = seed;
    result.original_schedule = buggify.Schedule();
    result.shrunk_schedule =
        Shrink(result.original_schedule, &result.shrink_replays);

    // Determinism proof: the shrunk repro must replay byte-identically,
    // twice, down to the fingerprint and the decision sequence.
    RunOutcome first = Replay(result.shrunk_schedule);
    RunOutcome second = Replay(result.shrunk_schedule);
    const bool logs_match =
        first.log.size() == second.log.size() &&
        std::equal(first.log.begin(), first.log.end(), second.log.begin(),
                   [](const Buggify::Decision& a, const Buggify::Decision& b) {
                     return a.point == b.point && a.fired == b.fired;
                   });
    result.replay_deterministic = first.corrupted && second.corrupted &&
                                  first.fingerprint == second.fingerprint &&
                                  logs_match;
    result.failure = std::move(first);
    return result;
  }
  return result;
}

std::vector<bool> ScheduleExplorer::Shrink(std::vector<bool> schedule,
                                           uint64_t* replays) {
  // Consultations past the end of a schedule return false, so trailing
  // no-ops are free to drop.
  auto trim = [](std::vector<bool>& s) {
    while (!s.empty() && !s.back()) s.pop_back();
  };
  trim(schedule);

  // Greedy delta debugging over the fired decisions: try clearing each
  // one (latest first — later decisions are the likeliest passengers);
  // keep the clear when the run still fails. Loop to a fixpoint so a
  // clear that unlocks another is found.
  bool improved = true;
  while (improved) {
    improved = false;
    for (size_t i = schedule.size(); i-- > 0;) {
      if (!schedule[i]) continue;
      std::vector<bool> candidate = schedule;
      candidate[i] = false;
      (*replays)++;
      if (Replay(candidate).corrupted) {
        schedule = std::move(candidate);
        trim(schedule);
        improved = true;
      }
    }
  }
  return schedule;
}

std::string ScheduleExplorer::ResultToString(const Result& r) {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "failing_seed=%llu seeds_explored=%u shrink_replays=%llu "
                "deterministic=%d\n",
                (unsigned long long)r.failing_seed, r.seeds_explored,
                (unsigned long long)r.shrink_replays,
                (int)r.replay_deterministic);
  out += line;
  auto bits = [](const std::vector<bool>& s) {
    std::string b;
    for (bool v : s) b += v ? '1' : '0';
    return b;
  };
  out += "original_schedule=" + bits(r.original_schedule) + "\n";
  out += "shrunk_schedule=" + bits(r.shrunk_schedule) + "\n";
  out += "violation=" + r.failure.detail + "\n";
  out += "decision_log:\n" + Buggify::LogToString(r.failure.log);
  return out;
}

// ---------------------------------------------------------------------------
// Canonical migration-under-adversity scenario
// ---------------------------------------------------------------------------

namespace {

/// Deterministic payload for (address, wave).
void FillPattern(uint64_t addr, uint32_t wave, uint8_t* dst, uint64_t len) {
  uint64_t x = SplitMix64(addr ^ (0x9E3779B97F4A7C15ULL * (wave + 1)));
  for (uint64_t i = 0; i < len; i++) {
    if (i % 8 == 0) x = SplitMix64(x);
    dst[i] = static_cast<uint8_t>(x >> ((i % 8) * 8));
  }
}

struct ScenarioState {
  Testbed tb;
  CacheClient::CacheId id = 0;
  /// addr -> (len, wave) of the latest *acknowledged* write.
  std::map<uint64_t, std::pair<uint64_t, uint32_t>> acked;
  /// The client stages writes by pointer (the payload is copied at
  /// flush, not at submit), so each write's payload must stay alive
  /// and unmodified until it completes. One buffer per address; a
  /// wave's writes have all settled before the address is written
  /// again.
  std::map<uint64_t, std::vector<uint8_t>> payloads;
  uint64_t pending = 0;
  uint64_t failed = 0;

  explicit ScenarioState(TestbedOptions opts) : tb(std::move(opts)) {}

  bool RunUntilQuiet(int max_steps = 30'000'000) {
    for (int i = 0; i < max_steps; i++) {
      if (pending == 0) return true;
      if (!tb.sim().Step()) return pending == 0;
    }
    return false;
  }
};

}  // namespace

ScheduleExplorer::Scenario MigrationScenario(bool epoch_fencing) {
  return [epoch_fencing](Buggify& buggify) -> RunOutcome {
    TestbedOptions opts;
    opts.pods = 2;
    opts.racks_per_pod = 2;
    opts.servers_per_rack = 4;
    opts.client.region_bytes = 1 * kMiB;
    opts.client.max_regions_per_vm = 1;
    opts.client.migration_chunk_bytes = 128 * kKiB;
    opts.client.max_retries = 6;
    opts.client.sub_op_timeout_ns = 200 * kMicrosecond;
    opts.client.retry_backoff_ns = 5 * kMicrosecond;
    opts.client.epoch_fencing = epoch_fencing;
    opts.client.buggify = &buggify;
    opts.reclaim_notice = 30 * kMillisecond;

    ScenarioState st(opts);
    RunOutcome outcome;

    auto id_or = st.tb.client().CreateWithConfig(
        2 * kMiB, RdmaConfig{/*c=*/1, /*s=*/1, /*b=*/8, /*q=*/4},
        /*record_bytes=*/64, /*spot=*/true);
    if (!id_or.ok()) {
      outcome.detail = "create failed: " + id_or.status().ToString();
      return outcome;
    }
    st.id = *id_or;

    // One write, recorded as acked ground truth only when it completes
    // OK — a failed write promises nothing.
    auto write = [&st](uint64_t addr, uint64_t len, uint32_t wave) {
      std::vector<uint8_t>& buf = st.payloads[addr];
      buf.assign(len, 0);
      FillPattern(addr, wave, buf.data(), len);
      st.pending++;
      ScenarioState* sp = &st;
      Status posted = st.tb.client().Write(
          st.id, addr, buf.data(), len, [sp, addr, len, wave](Status s) {
            sp->pending--;
            if (s.ok()) {
              sp->acked[addr] = {len, wave};
            } else {
              sp->failed++;
            }
          });
      if (!posted.ok()) st.pending--;
    };

    // Three waves: each leaves a burst of one-sided slab writes in
    // flight against one region (plus two-sided record writes against
    // the other), then reclaims that region's VM mid-flight. The drain
    // gate at the migration cutover is what protects the in-flight
    // slabs; buggify decides whether it (and the revocation behind it)
    // misbehaves this wave.
    const uint64_t region_bytes = opts.client.region_bytes;
    for (uint32_t wave = 0; wave < 3; wave++) {
      const uint32_t hot = wave % 2;
      const uint64_t hot_base = hot * region_bytes;
      const uint64_t cold_base = (1 - hot) * region_bytes;
      for (uint32_t k = 0; k < 8; k++) {
        write(hot_base + k * (128 * kKiB), 64 * kKiB, wave);
      }
      // Records live in the upper half of chunk 0, which the slabs
      // (first 64 KiB of each 128 KiB chunk) never touch.
      for (uint32_t r = 0; r < 16; r++) {
        write(cold_base + 64 * kKiB + r * 64, 64, wave);
      }
      // Let the slabs issue (post to the NIC) but not complete.
      st.tb.sim().RunFor(3 * kMicrosecond);
      auto victim = st.tb.client().RegionVm(st.id, hot);
      if (victim.ok()) (void)st.tb.allocator().Reclaim(*victim);
      if (!st.RunUntilQuiet()) {
        outcome.detail = "ops hung in wave " + std::to_string(wave);
        outcome.corrupted = true;  // hung acked-path = failed run
        break;
      }
      // Let the migration (and any retries it spawned) finish.
      st.tb.sim().RunFor(5 * kMillisecond);
    }

    // Oracle: every acknowledged byte must read back exactly. Reads go
    // through the normal data path against the post-migration
    // placements.
    std::vector<uint8_t> got(64 * kKiB);
    std::vector<uint8_t> want(64 * kKiB);
    for (const auto& [addr, rec] : st.acked) {
      const auto [len, wave] = rec;
      Status rs;
      bool done = false;
      Status posted = st.tb.client().Read(st.id, addr, got.data(), len,
                                          [&rs, &done](Status s) {
                                            rs = s;
                                            done = true;
                                          });
      if (posted.ok()) {
        while (!done && st.tb.sim().Step()) {
        }
      } else {
        rs = posted;
        done = true;
      }
      bool bad = false;
      if (!done || !rs.ok()) {
        bad = true;
      } else {
        FillPattern(addr, wave, want.data(), len);
        bad = std::memcmp(got.data(), want.data(), len) != 0;
      }
      if (bad) {
        outcome.corrupt_records++;
        if (outcome.detail.empty()) {
          outcome.detail = "acked bytes at addr " + std::to_string(addr) +
                           " (len " + std::to_string(len) + ", wave " +
                           std::to_string(wave) + ") " +
                           (rs.ok() ? "read back wrong" : rs.ToString());
        }
      }
      // Fold the readback into the fingerprint regardless of verdict:
      // byte-identical replays must agree on everything observable.
      outcome.fingerprint = Checksum64(got.data(), rs.ok() ? len : 0,
                                       outcome.fingerprint ^ addr ^
                                           (uint64_t)rs.code() * 0x1000193);
    }
    if (outcome.corrupt_records > 0) outcome.corrupted = true;

    outcome.log = buggify.log();
    for (const auto& d : outcome.log) {
      outcome.fingerprint =
          SplitMix64(outcome.fingerprint ^
                     ((uint64_t)d.point << 1 | (uint64_t)d.fired));
    }
    outcome.fingerprint =
        SplitMix64(outcome.fingerprint ^ st.failed ^ st.tb.sim().Now());
    return outcome;
  };
}

// ---------------------------------------------------------------------------
// Chained-read-under-adversity scenario
// ---------------------------------------------------------------------------

ScheduleExplorer::Scenario ChainedReadScenario(bool epoch_fencing) {
  return [epoch_fencing](Buggify& buggify) -> RunOutcome {
    TestbedOptions opts;
    opts.pods = 2;
    opts.racks_per_pod = 2;
    opts.servers_per_rack = 4;
    opts.client.region_bytes = 1 * kMiB;
    opts.client.max_regions_per_vm = 1;
    opts.client.migration_chunk_bytes = 128 * kKiB;
    opts.client.max_retries = 6;
    opts.client.sub_op_timeout_ns = 200 * kMicrosecond;
    opts.client.retry_backoff_ns = 5 * kMicrosecond;
    opts.client.epoch_fencing = epoch_fencing;
    opts.client.chain_reads = true;
    opts.client.buggify = &buggify;
    opts.reclaim_notice = 30 * kMillisecond;

    ScenarioState st(opts);
    RunOutcome outcome;

    auto id_or = st.tb.client().CreateWithConfig(
        2 * kMiB, RdmaConfig{/*c=*/1, /*s=*/0, /*b=*/1, /*q=*/4},
        /*record_bytes=*/64, /*spot=*/true);
    if (!id_or.ok()) {
      outcome.detail = "create failed: " + id_or.status().ToString();
      return outcome;
    }
    st.id = *id_or;

    // Layout, per 1 MiB region: 16 records at +64 KiB and 16 pointer
    // words at +512 KiB, each word holding its record's region-relative
    // offset (the ReadIndirect contract). Both live in the same region,
    // so a chase never crosses a region boundary.
    const uint64_t region_bytes = opts.client.region_bytes;
    constexpr uint32_t kRecs = 16;
    auto rec_addr = [&](uint32_t r, uint32_t k) {
      return r * region_bytes + 64 * kKiB + k * 64;
    };
    auto ptr_addr = [&](uint32_t r, uint32_t k) {
      return r * region_bytes + 512 * kKiB + k * 8;
    };

    auto write = [&st](uint64_t addr, const void* src, uint64_t len) {
      std::vector<uint8_t>& buf = st.payloads[addr];
      buf.assign(static_cast<const uint8_t*>(src),
                 static_cast<const uint8_t*>(src) + len);
      st.pending++;
      ScenarioState* sp = &st;
      Status posted = st.tb.client().Write(st.id, addr, buf.data(), len,
                                           [sp](Status s) {
                                             sp->pending--;
                                             if (!s.ok()) sp->failed++;
                                           });
      if (!posted.ok()) st.pending--;
    };
    std::vector<uint8_t> rec(64);
    for (uint32_t r = 0; r < 2; r++) {
      for (uint32_t k = 0; k < kRecs; k++) {
        FillPattern(rec_addr(r, k), 0, rec.data(), rec.size());
        write(rec_addr(r, k), rec.data(), rec.size());
        const uint64_t word = 64 * kKiB + k * 64;  // region-relative
        write(ptr_addr(r, k), &word, sizeof(word));
      }
    }
    if (!st.RunUntilQuiet() || st.failed != 0) {
      outcome.detail = "setup writes failed or hung";
      outcome.corrupted = true;
      return outcome;
    }

    // One indirect read, verified against ground truth at completion.
    // Any non-OK completion is the violation this scenario hunts: with
    // fencing, a mid-chain abort must be retried, never surfaced.
    std::vector<std::unique_ptr<std::vector<uint8_t>>> bufs;
    auto chase = [&](uint32_t r, uint32_t k) {
      auto dst = std::make_unique<std::vector<uint8_t>>(64);
      auto* p = dst.get();
      const uint64_t data_addr = rec_addr(r, k);
      st.pending++;
      ScenarioState* sp = &st;
      RunOutcome* oc = &outcome;
      Status posted = st.tb.client().ReadIndirect(
          st.id, ptr_addr(r, k), p->data(), 64,
          [sp, oc, p, data_addr](Status s) {
            sp->pending--;
            bool bad = !s.ok();
            if (!bad) {
              std::vector<uint8_t> want(64);
              FillPattern(data_addr, 0, want.data(), want.size());
              bad = *p != want;
            }
            if (bad) {
              oc->corrupt_records++;
              if (oc->detail.empty()) {
                oc->detail =
                    "indirect read of record at " +
                    std::to_string(data_addr) + " " +
                    (s.ok() ? "returned wrong bytes" : s.ToString());
              }
            }
            oc->fingerprint = Checksum64(
                p->data(), s.ok() ? p->size() : 0,
                oc->fingerprint ^ data_addr ^
                    (uint64_t)s.code() * 0x1000193);
          });
      if (!posted.ok()) {
        st.pending--;
        outcome.corrupt_records++;
        if (outcome.detail.empty()) outcome.detail = posted.ToString();
      }
      bufs.push_back(std::move(dst));
    };

    // Three waves: a burst of chases against the hot region, the VM
    // reclaimed while they are in flight (chains park through the
    // cutover), plus background chases against the cold region.
    for (uint32_t wave = 0; wave < 3; wave++) {
      const uint32_t hot = wave % 2;
      for (uint32_t k = 0; k < kRecs; k++) chase(hot, k);
      for (uint32_t k = 0; k < kRecs; k += 2) chase(1 - hot, k);
      st.tb.sim().RunFor(3 * kMicrosecond);
      auto victim = st.tb.client().RegionVm(st.id, hot);
      if (victim.ok()) (void)st.tb.allocator().Reclaim(*victim);
      if (!st.RunUntilQuiet()) {
        outcome.detail = "chases hung in wave " + std::to_string(wave);
        outcome.corrupted = true;
        break;
      }
      st.tb.sim().RunFor(5 * kMillisecond);
    }

    // Final sweep: every pointer must still chase to its record on the
    // post-migration placements.
    if (!outcome.corrupted) {
      for (uint32_t r = 0; r < 2; r++) {
        for (uint32_t k = 0; k < kRecs; k++) chase(r, k);
      }
      if (!st.RunUntilQuiet()) {
        outcome.detail = "final sweep hung";
        outcome.corrupted = true;
      }
    }
    if (outcome.corrupt_records > 0) outcome.corrupted = true;

    outcome.log = buggify.log();
    for (const auto& d : outcome.log) {
      outcome.fingerprint =
          SplitMix64(outcome.fingerprint ^
                     ((uint64_t)d.point << 1 | (uint64_t)d.fired));
    }
    outcome.fingerprint =
        SplitMix64(outcome.fingerprint ^ st.failed ^ st.tb.sim().Now());
    return outcome;
  };
}

}  // namespace redy::chaos
