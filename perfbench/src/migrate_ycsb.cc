// migrate_ycsb_a: writes beside reads under background work. An open
// loop of Poisson arrivals on the simulated clock at a fixed rate below
// capacity, 50% reads / 50% writes, uniform over 4 KB records, on a
// one-sided cache (s = 0, as in Fig. 15) of 4 regions. At the midpoint
// of the measured window 2 regions migrate to fresh VMs (online
// migration with fencing and paused writes). This is the one workload
// that runs the one-sided path, the write path with checksums over
// 4 KB payloads, and migration.cc. Latency runs from each op's arrival.

#include <algorithm>
#include <memory>
#include <vector>

#include "client_ops.h"
#include "redy/testbed.h"
#include "sim_probes.h"
#include "workloads.h"

namespace perfbench {
namespace {

using redy::sim::SimTime;

constexpr uint32_t kRecord = 4096;
constexpr uint64_t kRegionBytes = 8 * redy::kMiB;
constexpr uint32_t kRegions = 4;
constexpr uint64_t kCacheBytes = kRegions * kRegionBytes;
constexpr uint64_t kKeys = kCacheBytes / kRecord;
const redy::RdmaConfig kConfig{2, 0, 1, 16};
constexpr double kRate = 1e6;  // offered ops/s
constexpr double kReadFraction = 0.5;
constexpr SimTime kWarmup = 20 * redy::kMillisecond;
/// Measured simulated time per second of --seconds.
constexpr SimTime kWindowPerSecond = 160 * redy::kMillisecond;
constexpr SimTime kSlice = 500 * redy::kMicrosecond;

struct Stack {
  std::unique_ptr<redy::Testbed> tb;
  redy::CacheClient::CacheId cache = 0;
};

Stack Build() {
  redy::TestbedOptions o;
  // One server per rack: caches sit 3 switches from the client.
  o.pods = 2;
  o.racks_per_pod = 16;
  o.servers_per_rack = 1;
  o.client.region_bytes = kRegionBytes;
  Stack s;
  s.tb = std::make_unique<redy::Testbed>(o);
  auto id = s.tb->client().CreateWithConfig(kCacheBytes, kConfig, kRecord);
  REDY_CHECK(id.ok());
  s.cache = *id;
  LoadRecords(s.tb->client(), s.cache, kKeys, kRecord);
  return s;
}

}  // namespace

Result RunMigrateYcsbA(const Args& args, double scale, Tracer* tracer) {
  Result r;
  Stack s;
  r.Add("setup_s", MedianSetupSeconds([&] { s = Stack(); },
                                      [&] {
                                        s = Build();
                                        return true;
                                      }),
        "s");

  redy::Testbed& tb = *s.tb;
  redy::sim::Simulation& sim = tb.sim();
  redy::CacheClient& client = tb.client();
  const SimTime window = std::max<SimTime>(
      4 * kWarmup,
      static_cast<SimTime>(scale * static_cast<double>(kWindowPerSecond)));
  ClientLoad load(&client, s.cache, kRecord, kConfig.c,
                  OpGen(args.seed, kKeys, kReadFraction, /*zipf=*/false), &sim,
                  [&sim] { return sim.Now(); }, tracer);
  const SimTime start = sim.Now();
  load.StartOpen(kRate, args.seed, start + kWarmup + window);
  sim.RunUntil(start + kWarmup);

  const auto servers = CacheServers(client, tb.manager(), s.cache);
  client.ResetStats(s.cache);
  const SimCounters c0 = SimCounters::Take(tb, servers);
  load.BeginWindow();
  const uint64_t w0 = NowNs();
  const SimTime t0 = sim.Now();
  const SimTime mid = t0 + window / 2;

  // Run in slices so the wall time of the slices that cover the
  // migration can be compared with as many slices before it.
  std::vector<uint64_t> slice_wall;
  SubWindows subs;
  subs.Mark(0, 0);
  const SimTime sub = window / SubWindows::Count(scale);
  bool migrating = false;
  SimTime mig_start = 0, mig_end = 0;
  for (SimTime t = t0; t < t0 + window; t += kSlice) {
    if (!migrating && t >= mid) {
      migrating = true;
      mig_start = sim.Now();
      const redy::Status st = client.MigrateRegions(
          s.cache, {0, 1}, sim.Now() + 10 * redy::kSecond,
          [&](const redy::CacheClient::MigrationEvent&) {
            mig_end = sim.Now();
          });
      if (!st.ok()) r.Fail("MigrateRegions: " + st.ToString());
    }
    const uint64_t a = NowNs();
    sim.RunUntil(std::min(t + kSlice, t0 + window));
    const uint64_t b = NowNs();
    slice_wall.push_back(b - a);
    tracer->Span("sim.RunUntil", 0, a, b);
    if ((sim.Now() - t0) / sub != (t - t0) / sub || sim.Now() >= t0 + window) {
      subs.Mark(load.window_ok(), load.wall_latency().size());
    }
  }
  load.EndWindow();
  const uint64_t w1 = NowNs();
  const SimCounters c1 = SimCounters::Take(tb, servers);
  const redy::CacheClient::Stats stats = *client.stats(s.cache);
  while (load.inflight() > 0 && sim.Step()) {
  }
  if (mig_end == 0) r.Fail("migration did not finish inside the window");

  const double ops =
      static_cast<double>(std::max<uint64_t>(1, load.window_ok()));
  r.attempted = load.window_attempted();
  r.failed = load.window_failed();
  if (load.bad_reads() > 0) r.Fail(load.first_error());
  r.Add("ops_per_s", subs.OpsPerSec(), "1/s");
  r.Add("p50_us", subs.LatencyPercentile(load.wall_latency(), 0.50) / 1e3,
        "us");
  r.Add("p99_us", subs.LatencyPercentile(load.wall_latency(), 0.99) / 1e3,
        "us");
  r.Add("sim_ops_per_s", load.window_ok() / (static_cast<double>(window) / 1e9),
        "1/s");
  r.Add("sim_p50_us", Percentile(load.latency(), 0.50) / 1e3, "us");
  r.Add("sim_p99_us", Percentile(load.latency(), 0.99) / 1e3, "us");
  r.Add("cpu_us_per_op", subs.CpuUsPerOp(), "us");
  r.Add("bench.clean_subwindow_frac", subs.CleanFraction(), "1");
  r.Add("failed_frac",
        r.attempted ? static_cast<double>(r.failed) / r.attempted : 0, "1");
  r.Add("redy.migration.sim_migration_ms",
        mig_end > mig_start ? static_cast<double>(mig_end - mig_start) / 1e6
                            : 0,
        "ms");

  AddSimLayers(c0, c1, ops, static_cast<double>(w1 - w0), &r);
  AddClientStats(stats, c1.batches - c0.batches, ops, &r);
  r.Add("redy.client.sim_read_p99_us",
        Percentile(load.read_latency(), 0.99) / 1e3, "us");
  r.Add("redy.client.sim_write_p99_us",
        Percentile(load.write_latency(), 0.99) / 1e3, "us");
  r.Add("redy.migration.chunks_verified",
        static_cast<double>(stats.chunks_verified), "count");
  // Slices overlapping the migration versus as many just before it.
  const size_t first = static_cast<size_t>((mig_start - t0) / kSlice);
  const size_t last = std::min(
      slice_wall.size(),
      static_cast<size_t>((std::max(mig_end, mig_start) - t0) / kSlice) + 1);
  double during = 0, before = 0;
  const size_t n = last - first;
  for (size_t i = first; i < last; i++) during += slice_wall[i];
  for (size_t i = first >= n ? first - n : 0; i < first; i++) {
    before += slice_wall[i];
  }
  r.Add("redy.migration.wall_slowdown", before > 0 ? during / before : 0, "1");
  if (tracer->enabled()) {
    r.Add("redy.client.submit_p50_ns", Percentile(load.submit_ns(), 0.50),
          "ns");
    r.Add("redy.client.submit_p99_ns", Percentile(load.submit_ns(), 0.99),
          "ns");
  }

  // The verifier must catch a record corrupted behind the client.
  CorruptionCheck check;
  check.Start(client, s.cache, kRecord, kKeys / 3);
  while (check.verdict() == CorruptionCheck::kPending && sim.Step()) {
  }
  if (check.verdict() != CorruptionCheck::kCaught) {
    r.Fail("self-check: a record corrupted behind the client was not "
           "rejected by the verifier");
  }
  r.Add("peak_rss_mib", PeakRssMib(), "MiB");
  return r;
}

}  // namespace perfbench
