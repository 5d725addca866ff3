// fleet_campaign: the fleet campaign on the rack-sharded parallel
// simulator (1024 servers in 32 rack partitions, 128 tenants in three
// SLO classes, the compressed diurnal VM trace as harvested-memory
// supply) at 4 shard workers. It is the only workload that runs
// sim::ShardedEngine and cluster::Fleet; the tenants' ops run inside
// the engine, so its unit of wall-clock latency is one simulated slice.
// How congested a fleet gets depends strongly on its seed (its VM trace
// and placements: a fleet's mean tenant p99 varies by about 17%, one
// standard deviation, from seed to seed), so each run simulates kFleets
// short fleets seeded from --seed. Its simulated metrics are the mean
// across them, its wall-clock metrics come from the sub-windows of all
// of them.
//
// Output checks: tenant op accounting read from the fleet's own metrics
// snapshot must agree with its summary, class by class; and in the
// traced run the same seed at 1 worker must give a byte-identical
// snapshot.

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/fleet.h"
#include "workloads.h"

namespace perfbench {
namespace {

using redy::sim::SimTime;

constexpr uint32_t kWorkers = 4;
constexpr SimTime kWarmup = 6 * redy::kMillisecond;
/// Served-traffic simulated time per second of --seconds.
constexpr SimTime kDurationPerSecond = 15 * redy::kMillisecond;
constexpr int kFleets = 24;
constexpr SimTime kSlice = 100 * redy::kMicrosecond;
/// Slices per wall-clock sub-window (SubWindows): about 0.1 s of wall.
constexpr size_t kSlicesPerSub = 25;

/// Fleet `k` of a run: its own seed and a kFleets-th of the duration.
redy::cluster::FleetOptions Options(uint64_t seed, int k, double scale,
                                    uint32_t workers) {
  redy::cluster::FleetOptions o;
  o.seed = redy::SplitMix64(seed * kFleets + static_cast<uint64_t>(k));
  o.workers = workers;
  o.warmup = kWarmup;
  o.duration = static_cast<SimTime>(
      scale * static_cast<double>(kDurationPerSecond) / kFleets);
  return o;
}

/// Sum of every counter named `name` in a registry JSON snapshot.
uint64_t SumCounter(const std::string& json, const std::string& name) {
  const std::string key = "{\"name\":\"" + name + "\"";
  uint64_t total = 0;
  for (size_t p = json.find(key); p != std::string::npos;
       p = json.find(key, p + 1)) {
    const size_t v = json.find("\"value\":", p);
    if (v == std::string::npos) break;
    total += std::strtoull(json.c_str() + v + 8, nullptr, 10);
  }
  return total;
}

struct TenantPercentiles {
  double p50_ns = 0, p99_ns = 0;
};

/// Op-weighted mean over tenants of each tenant's simulated p50 and p99
/// over all its served traffic (the cumulative tenant_latency_ns
/// histograms in the snapshot): the latency a typical op's tenant sees,
/// steadier across seeds than the p99 of a class, which its worst
/// tenant sets.
TenantPercentiles MeanTenantPercentiles(const std::string& json) {
  const std::string key = "{\"name\":\"tenant_latency_ns\"";
  auto field = [&](size_t from, const char* name) {
    const size_t v = json.find(name, from);
    return v == std::string::npos
               ? 0.0
               : std::strtod(json.c_str() + v + std::strlen(name), nullptr);
  };
  TenantPercentiles out;
  double total = 0;
  for (size_t p = json.find(key); p != std::string::npos;
       p = json.find(key, p + 1)) {
    const size_t cum = json.find("\"cumulative\":", p);
    const double count = field(cum, "\"count\":");
    out.p50_ns += count * field(cum, "\"p50\":");
    out.p99_ns += count * field(cum, "\"p99\":");
    total += count;
  }
  if (total > 0) {
    out.p50_ns /= total;
    out.p99_ns /= total;
  }
  return out;
}

/// Checks the fleet's op accounting; returns an error message or "".
std::string CheckAccounting(const redy::cluster::Fleet::Summary& s,
                            const std::string& snapshot) {
  const struct {
    const char* counter;
    uint64_t summary;
  } totals[] = {{"tenant_ops_ok", s.ops_ok},
                {"tenant_ops_rejected", s.ops_rejected},
                {"tenant_ops_busy", s.ops_busy},
                {"tenant_ops_failed", s.ops_failed},
                {"tenant_ops_shed", s.ops_shed},
                {"tenant_ops_local", s.ops_local},
                {"tenant_slo_violations", s.slo_violations}};
  for (const auto& t : totals) {
    const uint64_t counted = SumCounter(snapshot, t.counter);
    if (counted != t.summary) {
      return std::string("fleet accounting: ") + t.counter + " sums to " +
             std::to_string(counted) + " in the snapshot but " +
             std::to_string(t.summary) + " in the summary";
    }
  }
  uint64_t class_ok = 0, class_slo = 0;
  for (const auto& c : s.classes) {
    class_ok += c.ops_ok;
    class_slo += c.slo_violations;
  }
  if (class_ok != s.ops_ok || class_slo != s.slo_violations) {
    return "fleet accounting: per-class ops do not sum to the total";
  }
  if (s.slo_violations > s.ops_ok || s.ops_local > s.ops_ok) {
    return "fleet accounting: more SLO violations or local ops than ops";
  }
  if (s.ops_ok == 0) return "fleet served no ops";
  return "";
}

/// Runs the trace-only warm-up, then the served traffic in slices of
/// kSlice (the engine's rounds depend on the RunUntil bounds, so every
/// run that is compared uses the same slicing), calling `at_mark` (if
/// set) with the slice count before the first slice, after every
/// kSlicesPerSub slices and after the last. Returns each slice's wall
/// time in ns.
std::vector<float> RunSliced(redy::cluster::Fleet& fleet, Tracer* tracer,
                             const std::function<void()>& at_traffic,
                             const std::function<void(size_t)>& at_mark) {
  redy::sim::ShardedEngine& engine = fleet.engine();
  engine.RunUntil(kWarmup);
  at_traffic();
  std::vector<float> slice_ns;
  if (at_mark) at_mark(0);
  for (SimTime t = kWarmup; t < fleet.end_time(); t += kSlice) {
    const uint64_t a = NowNs();
    engine.RunUntil(std::min(t + kSlice, fleet.end_time()));
    const uint64_t b = NowNs();
    slice_ns.push_back(static_cast<float>(b - a));
    tracer->Span("engine.RunUntil", 0, a, b);
    if (at_mark && slice_ns.size() % kSlicesPerSub == 0) {
      at_mark(slice_ns.size());
    }
  }
  if (at_mark && slice_ns.size() % kSlicesPerSub != 0) {
    at_mark(slice_ns.size());  // a shorter last sub-window
  }
  return slice_ns;
}

/// What one fleet of a run measured.
struct FleetRun {
  Result result;
  uint64_t ok = 0, refused = 0, slo_violations = 0;
  /// Ops served per simulated second, and the tenants' percentiles.
  double sim_rate = 0;
  TenantPercentiles sim_lat;
  std::string snapshot;
};

/// Runs one constructed fleet; `worker_tids` are its shard workers.
/// Its wall-clock sub-windows go to `subs` and its slice times to
/// `slices`, both shared by the fleets of a run.
FleetRun RunOne(redy::cluster::Fleet& fleet,
                const std::vector<pid_t>& worker_tids, Tracer* tracer,
                SubWindows* subs, std::vector<float>* slices) {
  using redy::cluster::Fleet;
  FleetRun out;
  redy::sim::ShardedEngine& engine = fleet.engine();
  uint64_t ev0 = 0, rounds0 = 0, sent0 = 0, spilled0 = 0, w0 = 0;
  std::vector<TaskCpu> k0;
  const size_t base = slices->size();
  subs->Restart();
  std::vector<float> slice_ns = RunSliced(
      fleet, tracer,
      [&] {
        ev0 = engine.events_executed();
        rounds0 = engine.rounds();
        sent0 = engine.messages_sent();
        spilled0 = engine.messages_spilled();
        k0 = SampleTasks();
        w0 = NowNs();
      },
      [&](size_t n) { subs->Mark(fleet.Summarize().ops_ok, base + n); });
  const uint64_t w1 = NowNs();
  const std::vector<TaskCpu> k1 = SampleTasks();

  const Fleet::Summary s = fleet.Summarize();
  out.snapshot = fleet.MetricsSnapshot();
  const std::string err = CheckAccounting(s, out.snapshot);
  if (!err.empty()) out.result.Fail(err);
  out.ok = s.ops_ok;
  out.refused = s.ops_failed + s.ops_rejected + s.ops_shed;
  out.slo_violations = s.slo_violations;
  out.sim_rate = static_cast<double>(s.ops_ok) /
                 (static_cast<double>(fleet.end_time() - kWarmup) / 1e9);
  out.sim_lat = MeanTenantPercentiles(out.snapshot);
  slices->insert(slices->end(), slice_ns.begin(), slice_ns.end());
  Result& m = out.result;
  const uint64_t rounds = engine.rounds() - rounds0;
  const uint64_t sent = engine.messages_sent() - sent0;
  m.Add("sim.sharded.events_per_round",
        rounds ? static_cast<double>(engine.events_executed() - ev0) / rounds
               : 0,
        "1");
  m.Add("sim.sharded.spill_frac",
        sent ? static_cast<double>(engine.messages_spilled() - spilled0) /
                   sent
             : 0,
        "1");
  const double wall_ns = static_cast<double>(w1 - w0);
  double busy_sum = 0, busy_max = 0;
  for (pid_t tid : worker_tids) {
    const double b = TaskRunDelta(k0, k1, tid) / wall_ns;
    busy_sum += b;
    busy_max = std::max(busy_max, b);
    tracer->Counter("cpu.shard_worker_busy", w1, b);
  }
  const double busy_mean = busy_sum / worker_tids.size();
  m.Add("sim.sharded.worker_busy_frac", busy_mean, "1");
  m.Add("sim.sharded.worker_busy_max_over_mean",
        busy_mean > 0 ? busy_max / busy_mean : 0, "1");
  return out;
}

}  // namespace

Result RunFleetCampaign(const Args& args, double scale, Tracer* tracer) {
  using redy::cluster::Fleet;
  Result r;
  const uint32_t workers = static_cast<uint32_t>(
      std::min<long>(kWorkers, std::max(1L, sysconf(_SC_NPROCESSORS_ONLN))));

  std::vector<FleetRun> runs;
  // Wall-clock numbers pool the sub-windows and slices of all fleets.
  SubWindows subs;
  std::vector<float> slices;
  for (int k = 0; k < kFleets; k++) {
    // Set-up (timed on the first fleet): topology, racks, trace,
    // tenants, engine threads.
    std::unique_ptr<Fleet> fleet;
    std::vector<TaskCpu> tasks_before;
    auto teardown = [&] {
      fleet.reset();
      tasks_before = SampleTasks();
    };
    auto setup = [&] {
      fleet = std::make_unique<Fleet>(Options(args.seed, k, scale, workers));
      return true;
    };
    if (k == 0) {
      r.Add("setup_s", MedianSetupSeconds(teardown, setup), "s");
    } else {
      teardown();
      setup();
    }
    std::vector<pid_t> worker_tids = {CurrentTid()};  // worker 0 is us
    for (const TaskCpu& t : SampleTasks()) {
      bool old = false;
      for (const TaskCpu& b : tasks_before) old |= b.tid == t.tid;
      if (!old) worker_tids.push_back(t.tid);
    }
    runs.push_back(
        RunOne(*fleet, worker_tids, tracer, &subs, &slices));
    for (const std::string& e : runs.back().result.errors) r.Fail(e);
  }

  uint64_t ok = 0, refused = 0, slo = 0;
  for (const FleetRun& f : runs) {
    ok += f.ok;
    refused += f.refused;
    slo += f.slo_violations;
  }
  r.attempted = ok + refused;
  r.failed = refused;
  r.Add("ops_per_s", subs.OpsPerSec(), "1/s");
  r.Add("p50_us", subs.LatencyPercentile(slices, 0.50) / 1e3, "us");
  r.Add("p99_us", subs.LatencyPercentile(slices, 0.99) / 1e3, "us");
  r.Add("cpu_us_per_op", subs.CpuUsPerOp(), "us");
  r.Add("bench.clean_subwindow_frac", subs.CleanFraction(), "1");
  // Simulated metrics: the mean over the run's fleets.
  double rate = 0, p50 = 0, p99 = 0;
  for (const FleetRun& f : runs) {
    rate += f.sim_rate / kFleets;
    p50 += f.sim_lat.p50_ns / kFleets;
    p99 += f.sim_lat.p99_ns / kFleets;
  }
  r.Add("sim_ops_per_s", rate, "1/s");
  r.Add("sim_p50_us", p50 / 1e3, "us");
  r.Add("sim_p99_us", p99 / 1e3, "us");
  for (size_t i = 0; i < runs[0].result.metrics.size(); i++) {
    std::vector<double> v;
    for (const FleetRun& f : runs) v.push_back(f.result.metrics[i].value);
    const Metric& m = runs[0].result.metrics[i];
    r.Add(m.name, Median(v), m.unit);
  }
  r.Add("failed_frac",
        r.attempted ? static_cast<double>(refused) / r.attempted : 0, "1");
  // Failed or refused ops count as missing their SLO.
  r.Add("cluster.fleet.slo_violation_frac",
        r.attempted ? static_cast<double>(slo + refused) / r.attempted : 0,
        "1");

  if (tracer->enabled()) {
    // The first fleet's seed on one worker: serial wall time, and the
    // output must be byte-identical to the sharded run.
    Fleet serial(Options(args.seed, 0, scale, 1));
    uint64_t a = 0;
    RunSliced(serial, tracer, [&] { a = NowNs(); }, {});
    r.Add("cluster.fleet.serial_s", static_cast<double>(NowNs() - a) / 1e9,
          "s");
    const std::string snapshot = serial.MetricsSnapshot();
    if (snapshot != runs[0].snapshot) {
      r.Fail("fleet snapshot at 1 worker differs from " +
             std::to_string(workers) + " workers");
    }
    const std::string err = CheckAccounting(serial.Summarize(), snapshot);
    if (!err.empty()) r.Fail("1 worker: " + err);
  }
  r.Add("peak_rss_mib", PeakRssMib(), "MiB");
  return r;
}

}  // namespace perfbench
