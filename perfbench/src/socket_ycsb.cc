// socket_ycsb_b: the real system. CacheClient over the loopback-socket
// transport (the wall-clock loop thread plus two epoll workers), YCSB-B
// (95% reads, Zipfian 0.99) on 64 B records, two-sided configuration
// {c=1, s=1, b=4, q=8}. A closed loop keeps 4 ops outstanding (FASTER's
// pipeline depth) and refills each slot from its completion callback on
// the loop thread. At 64 B the per-op host cost — syscalls, wakeups,
// framing — dominates, so this is where the transport layer shows.
//
// The same op script also runs on the discrete-event backend (the
// Testbed) for a fixed number of ops: that gives the sim_* metrics, the
// model's prediction for this workload, exact for a seed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "client_ops.h"
#include "redy/testbed.h"
#include "sim_probes.h"
#include "transport/loopback.h"
#include "workloads.h"

namespace perfbench {
namespace {

using redy::CacheClient;
using redy::RdmaConfig;

constexpr uint32_t kRecord = 64;
constexpr uint64_t kRegionBytes = 8 * redy::kMiB;
constexpr uint64_t kCacheBytes = 16 * redy::kMiB;
constexpr uint64_t kKeys = kCacheBytes / kRecord;
constexpr uint32_t kOutstanding = 4;
constexpr double kReadFraction = 0.95;
/// Above any rate this closed loop reaches (it runs at 50-110k ops/s on
/// a 4-vCPU VM): the latency vectors are reserved for it.
constexpr double kMaxOpsPerSec = 400e3;
const RdmaConfig kConfig{1, 1, 4, 8};
/// Ops the simulated twin's closed loop measures (after as many warm-up
/// ops), and its open-loop phase: ~70% of the predicted capacity.
constexpr uint64_t kTwinOps = 60'000;
constexpr double kTwinOpenRate = 700e3;
constexpr redy::sim::SimTime kTwinOpenPhase = 60 * redy::kMillisecond;

/// The simulated twin: the same generator on the DES. A closed loop of
/// the same depth gives the predicted capacity; Poisson arrivals at a
/// fixed rate below it give the predicted latency, timed from arrival
/// (closed-loop latency on the DES is one modelled constant).
void RunTwin(const Args& args, Result* r) {
  redy::TestbedOptions o;
  o.pods = 1;
  o.racks_per_pod = 1;
  o.servers_per_rack = 4;
  o.client.region_bytes = kRegionBytes;
  redy::Testbed tb(o);
  auto cache = tb.client().CreateWithConfig(kCacheBytes, kConfig, kRecord);
  if (!cache.ok()) {
    r->Fail("twin create: " + cache.status().ToString());
    return;
  }
  LoadRecords(tb.client(), *cache, kKeys, kRecord);
  redy::sim::Simulation& sim = tb.sim();
  ClientLoad load(&tb.client(), *cache, kRecord, 1,
                  OpGen(args.seed, kKeys, kReadFraction, /*zipf=*/true),
                  &sim, [&sim] { return sim.Now(); }, nullptr);
  load.StartClosed(kOutstanding);
  while (load.completed_total() < kTwinOps && sim.Step()) {
  }
  const redy::sim::SimTime t0 = sim.Now();
  load.BeginWindow();
  while (load.completed_total() < 2 * kTwinOps && sim.Step()) {
  }
  load.EndWindow();
  const double secs = static_cast<double>(sim.Now() - t0) / 1e9;
  const double closed_ok = static_cast<double>(load.window_ok());
  r->attempted += load.window_attempted();
  load.Stop();
  while (load.inflight() > 0 && sim.Step()) {
  }
  r->failed += load.window_failed();

  load.BeginWindow();
  load.StartOpen(kTwinOpenRate, args.seed, sim.Now() + kTwinOpenPhase);
  sim.RunUntil(sim.Now() + kTwinOpenPhase);
  load.EndWindow();
  while (load.inflight() > 0 && sim.Step()) {
  }
  r->attempted += load.window_attempted();
  r->failed += load.window_failed();
  if (load.bad_reads() > 0) r->Fail("twin: " + load.first_error());
  r->Add("sim_ops_per_s", secs > 0 ? closed_ok / secs : 0, "1/s");
  r->Add("sim_p50_us", Percentile(load.latency(), 0.50) / 1e3, "us");
  r->Add("sim_p99_us", Percentile(load.latency(), 0.99) / 1e3, "us");
}

/// Writes the loop thread's and the workers' CPU share (run time over
/// wall time) into the trace every 100 ms while it lives.
class CpuSampler {
 public:
  CpuSampler(Tracer* tracer, pid_t loop, std::vector<pid_t> workers)
      : thread_([this, tracer, loop, workers] {
          std::vector<TaskCpu> prev = SampleTasks();
          uint64_t prev_t = NowNs();
          while (!stop_.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            std::vector<TaskCpu> cur = SampleTasks();
            const uint64_t now = NowNs();
            const double dt = static_cast<double>(now - prev_t);
            tracer->Counter("cpu.loop_busy", now,
                            TaskRunDelta(prev, cur, loop) / dt);
            double w = 0;
            for (pid_t tid : workers) w += TaskRunDelta(prev, cur, tid) / dt;
            tracer->Counter("cpu.worker_busy", now,
                            workers.empty() ? 0 : w / workers.size());
            prev = std::move(cur);
            prev_t = now;
          }
        }) {}
  ~CpuSampler() {
    stop_ = true;
    thread_.join();
  }
  CpuSampler(const CpuSampler&) = delete;
  CpuSampler& operator=(const CpuSampler&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after stop_ exists
};

}  // namespace

Result RunSocketYcsbB(const Args& args, double scale, Tracer* tracer) {
  using redy::transport::LoopbackRig;
  Result r;
  redy::transport::LoopbackRigOptions opts;
  opts.client.region_bytes = kRegionBytes;
  opts.workers = 2;

  // Set-up: rig (threads, sockets, listeners), cache allocation and the
  // bulk load.
  std::unique_ptr<LoopbackRig> rig;
  CacheClient::CacheId cache = 0;
  std::vector<TaskCpu> tasks_before;
  const double setup_s = MedianSetupSeconds(
      [&] {
        rig.reset();
        tasks_before = SampleTasks();
      },
      [&] {
        rig = std::make_unique<LoopbackRig>(opts);
        auto c = rig->Call([&] {
          return rig->client().CreateWithConfig(kCacheBytes, kConfig,
                                                kRecord);
        });
        if (!c.ok()) {
          r.Fail("create: " + c.status().ToString());
          return false;
        }
        cache = *c;
        rig->Call([&] { LoadRecords(rig->client(), cache, kKeys, kRecord); });
        return true;
      });
  if (setup_s < 0) return r;
  r.Add("setup_s", setup_s, "s");

  // Threads the rig started: its loop thread and the epoll workers.
  const pid_t loop_tid = rig->Call([] { return CurrentTid(); });
  std::vector<pid_t> worker_tids;
  for (const TaskCpu& t : SampleTasks()) {
    bool old = false;
    for (const TaskCpu& b : tasks_before) old |= b.tid == t.tid;
    if (!old && t.tid != loop_tid) worker_tids.push_back(t.tid);
  }

  CacheClient& client = rig->client();
  ClientLoad loop(&client, cache, kRecord, 1,
                  OpGen(args.seed, kKeys, kReadFraction, /*zipf=*/true),
                  &rig->sim(), [] { return NowNs(); }, tracer);
  loop.Reserve(static_cast<size_t>(kMaxOpsPerSec * scale));
  rig->Call([&] { loop.StartClosed(kOutstanding); });

  // Warm-up: connections, pooled op records, caches. Not measured.
  std::this_thread::sleep_for(
      std::chrono::duration<double>(std::min(2.0, 0.2 * scale)));

  // Per-thread CPU counters for the trace, sampled off the loop.
  std::unique_ptr<CpuSampler> sampler;
  if (tracer->enabled()) {
    sampler = std::make_unique<CpuSampler>(tracer, loop_tid, worker_tids);
  }

  const auto servers =
      rig->Call([&] { return CacheServers(client, rig->manager(), cache); });
  // The measured window, cut into SubWindows::Count(scale) sub-windows.
  SubWindows subs;
  std::vector<float> lat;
  uint64_t batches0 = 0, shed0 = 0, events0 = 0;
  rig->Call([&] {
    client.ResetStats(cache);
    events0 = rig->sim().events_executed();
    batches0 = SumBatches(servers);
    shed0 = SumBusyShed(servers);
    loop.BeginWindow();
    subs.Mark(0, 0);
  });
  const ProcUsage u0 = ProcUsage::Now();
  const std::vector<TaskCpu> k0 = SampleTasks();
  const uint64_t wake0 = rig->driver().wakeups();
  const uint64_t idle0 = rig->driver().idle_blocks();
  const uint64_t w0 = NowNs();
  const int n_subs = SubWindows::Count(scale);
  for (int i = 0; i < n_subs; i++) {
    std::this_thread::sleep_for(std::chrono::duration<double>(scale / n_subs));
    if (i + 1 < n_subs) {
      rig->Call([&] { subs.Mark(loop.window_ok(), loop.latency().size()); });
    }
  }
  uint64_t window_ok = 0, events = 0, batches = 0, shed = 0;
  CacheClient::Stats stats;
  rig->Call([&] {
    loop.EndWindow();
    subs.Mark(loop.window_ok(), loop.latency().size());
    lat = std::move(loop.latency());
    window_ok = loop.window_ok();
    events = rig->sim().events_executed() - events0;
    stats = *client.stats(cache);
    batches = SumBatches(servers) - batches0;
    shed = SumBusyShed(servers) - shed0;
  });
  const uint64_t w1 = NowNs();
  const ProcUsage u1 = ProcUsage::Now();
  const std::vector<TaskCpu> k1 = SampleTasks();
  const uint64_t wakeups = rig->driver().wakeups() - wake0;
  const uint64_t idles = rig->driver().idle_blocks() - idle0;
  sampler.reset();

  rig->Call([&] { loop.Stop(); });
  if (!rig->AwaitTrue([&] { return loop.inflight() == 0; }, 30'000)) {
    r.Fail("ops still in flight 30 s after the run");
  }

  const double ops = static_cast<double>(std::max<uint64_t>(1, window_ok));
  r.attempted += loop.window_attempted();
  r.failed += loop.window_failed();
  if (loop.bad_reads() > 0) r.Fail(loop.first_error());
  r.Add("ops_per_s", subs.OpsPerSec(), "1/s");
  r.Add("p50_us", subs.LatencyPercentile(lat, 0.50) / 1e3, "us");
  r.Add("p99_us", subs.LatencyPercentile(lat, 0.99) / 1e3, "us");
  r.Add("cpu_us_per_op", subs.CpuUsPerOp(), "us");
  r.Add("bench.clean_subwindow_frac", subs.CleanFraction(), "1");
  r.Add("failed_frac",
        r.attempted ? static_cast<double>(r.failed) / r.attempted : 0, "1");

  const double wall_ns = static_cast<double>(w1 - w0);
  r.Add("transport.loop_busy_frac", TaskRunDelta(k0, k1, loop_tid) / wall_ns,
        "1");
  double wb = 0;
  for (pid_t tid : worker_tids) wb += TaskRunDelta(k0, k1, tid) / wall_ns;
  r.Add("transport.worker_busy_frac",
        worker_tids.empty() ? 0 : wb / worker_tids.size(), "1");
  r.Add("transport.sys_us_per_op", (u1.sys_us - u0.sys_us) / ops, "us");
  r.Add("transport.vcsw_per_op", (u1.vcsw - u0.vcsw) / ops, "1");
  r.Add("transport.loop_wakeups_per_op", wakeups / ops, "1");
  r.Add("transport.loop_idle_blocks_per_op", idles / ops, "1");
  // The simulator engine only runs the client's timers here.
  r.Add("sim.events_per_op", events / ops, "1");
  AddClientStats(stats, batches, ops, &r);
  r.Add("redy.server.busy_shed_ops", static_cast<double>(shed), "count");
  if (tracer->enabled()) {
    r.Add("redy.client.submit_p50_ns", Percentile(loop.submit_ns(), 0.50),
          "ns");
    r.Add("redy.client.submit_p99_ns", Percentile(loop.submit_ns(), 0.99),
          "ns");
    // The hop every completion takes: an empty call onto the loop.
    std::vector<double> rtt_ns;
    for (int i = 0; i < 2000; i++) {
      const uint64_t t0 = NowNs();
      rig->Call([] {});
      const uint64_t t1 = NowNs();
      rtt_ns.push_back(static_cast<double>(t1 - t0));
      tracer->Span("rig.Call", 0, t0, t1);
    }
    r.Add("transport.call_rtt_p50_us", Percentile(rtt_ns, 0.50) / 1e3, "us");
    r.Add("transport.call_rtt_p99_us", Percentile(rtt_ns, 0.99) / 1e3, "us");
  }

  // The verifier must catch a record corrupted behind the client.
  CorruptionCheck check;
  rig->Call([&] { check.Start(client, cache, kRecord, kKeys / 3); });
  rig->AwaitTrue([&] { return check.verdict() != CorruptionCheck::kPending; });
  if (check.verdict() != CorruptionCheck::kCaught) {
    r.Fail("self-check: a record corrupted behind the client was not "
           "rejected by the verifier");
  }
  rig->Call([&] { client.Delete(cache); });
  rig.reset();

  RunTwin(args, &r);
  r.Add("peak_rss_mib", PeakRssMib(), "MiB");
  return r;
}

}  // namespace perfbench
