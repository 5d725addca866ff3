// faster_ycsb_b: the paper's application (Section 8, Fig. 18). FasterKv
// over the Redy tier — RedyDevice in front of an SSD inside a
// TieredDevice — on the discrete-event backend. YCSB-B (95% reads,
// Zipfian 0.99) on 1 KB values, a database of 4x FASTER's local memory,
// batched two-sided Redy ops {c=4, s=2, b=16, q=8}. Four simulated
// FASTER threads each keep 4 async ops in flight (a closed loop
// refilled from completions). Most reads never leave local memory; the
// rest go through the Redy client and the simulator, so this workload
// loads `faster`, `sim` and the batched client/server path.
//
// Phases, all in simulated time and fixed for a seed: a warm-up long
// enough for the log, read cache and Redy tier to reach steady state;
// the measured closed-loop window (its length scales with --seconds);
// then an open-loop phase of Poisson arrivals at a fixed rate below
// capacity, timed from each op's arrival, for the simulated latency
// percentiles (closed-loop latency of memory hits is one modelled
// constant, so it says nothing).

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "client_ops.h"
#include "faster/devices.h"
#include "faster/redy_device.h"
#include "faster/store.h"
#include "faster/tiered_device.h"
#include "redy/testbed.h"
#include "sim/poller.h"
#include "sim_probes.h"
#include "workloads.h"

namespace perfbench {
namespace {

using redy::Status;
using redy::sim::SimTime;

constexpr uint32_t kValueBytes = 1024;
constexpr uint64_t kLocalBytes = 8 * redy::kMiB;
constexpr uint64_t kDbBytes = 4 * kLocalBytes;
constexpr uint64_t kKeys = kDbBytes / (8 + kValueBytes);
constexpr uint32_t kThreads = 4;
constexpr uint32_t kDepth = 4;
constexpr double kReadFraction = 0.95;
// FASTER thread CPU costs, as calibrated in ycsb::Driver.
constexpr SimTime kMemOpCost = 760;
constexpr SimTime kIssueCost = 1500;
constexpr SimTime kPollInterval = 100;
/// Long enough for the log to wrap the Redy tier: simulated ops/s falls
/// from 0.96 M after 0.1 s of warm-up to 0.78 M after 2 s, then holds.
constexpr SimTime kWarmup = 2500 * redy::kMillisecond;
/// Measured simulated time per second of --seconds.
constexpr SimTime kWindowPerSecond = 800 * redy::kMillisecond;
constexpr SimTime kSlice = 1 * redy::kMillisecond;
constexpr double kOpenRate = 500e3;  // ops/s offered in the open phase
/// Simulated time of the open phase per second of --seconds.
constexpr SimTime kOpenPhasePerSecond = 16 * redy::kMillisecond;

/// An IDevice decorator that times every call: simulated latency and
/// wall time per read, bytes written, and a span per call.
class TimingDevice : public redy::faster::IDevice {
 public:
  TimingDevice(IDevice* inner, redy::sim::Simulation* sim, Tracer* tracer,
               const uint64_t* current_op)
      : inner_(inner), sim_(sim), tracer_(tracer), current_op_(current_op) {}

  void ReadAsync(uint64_t offset, void* dst, uint64_t len,
                 Callback cb) override {
    const uint64_t t0 = NowNs();
    const SimTime s0 = sim_->Now();
    inner_->ReadAsync(offset, dst, len,
                      [this, s0, cb = std::move(cb)](Status st) mutable {
                        read_sim_ns_.push_back(
                            static_cast<double>(sim_->Now() - s0));
                        cb(st);
                      });
    const uint64_t t1 = NowNs();
    read_wall_ns_.push_back(static_cast<double>(t1 - t0));
    tracer_->Span("device.ReadAsync", *current_op_, t0, t1);
  }
  void WriteAsync(uint64_t offset, const void* src, uint64_t len,
                  Callback cb) override {
    const uint64_t t0 = NowNs();
    bytes_written_ += len;
    inner_->WriteAsync(offset, src, len, std::move(cb));
    tracer_->Span("device.WriteAsync", *current_op_, t0, NowNs());
  }
  void WriteSync(uint64_t offset, const void* src, uint64_t len) override {
    inner_->WriteSync(offset, src, len);
  }
  bool Covers(uint64_t offset, uint64_t len) const override {
    return inner_->Covers(offset, len);
  }
  std::string name() const override { return "timing"; }

  std::vector<double> read_sim_ns_, read_wall_ns_;
  uint64_t bytes_written_ = 0;

 private:
  IDevice* inner_;
  redy::sim::Simulation* sim_;
  Tracer* tracer_;
  const uint64_t* current_op_;
};

/// One fully built stack. Members are declared in dependency order.
struct Stack {
  std::unique_ptr<redy::Testbed> tb;
  redy::CacheClient::CacheId cache = 0;
  std::unique_ptr<redy::faster::SsdDevice> ssd;
  std::unique_ptr<redy::faster::RedyDevice> redy;
  std::unique_ptr<redy::faster::TieredDevice> tiered;
  std::unique_ptr<TimingDevice> timing;
  std::unique_ptr<redy::faster::FasterKv> kv;
};

std::unique_ptr<Stack> Build(uint64_t seed, Tracer* tracer,
                             const uint64_t* current_op) {
  auto st = std::make_unique<Stack>();
  Stack& s = *st;
  redy::TestbedOptions to;
  // One server per rack: caches sit 3 switches from the client, the
  // paper's testbed RTT.
  to.pods = 2;
  to.racks_per_pod = 16;
  to.servers_per_rack = 1;
  to.client.region_bytes = 8 * redy::kMiB;
  s.tb = std::make_unique<redy::Testbed>(to);
  auto id = s.tb->client().CreateWithConfig(
      kDbBytes, redy::RdmaConfig{4, 2, 16, 8}, 8 + kValueBytes);
  REDY_CHECK(id.ok());
  s.cache = *id;
  s.ssd = std::make_unique<redy::faster::SsdDevice>(
      &s.tb->sim(), redy::faster::SsdParams{}, redy::SplitMix64(seed));
  s.redy = std::make_unique<redy::faster::RedyDevice>(
      &s.tb->sim(), &s.tb->client(), s.cache, kDbBytes);
  s.tiered = std::make_unique<redy::faster::TieredDevice>(
      std::vector<redy::faster::IDevice*>{s.redy.get(), s.ssd.get()},
      /*commit_point=*/1);
  redy::faster::IDevice* dev = s.tiered.get();
  if (tracer->enabled()) {
    s.timing = std::make_unique<TimingDevice>(dev, &s.tb->sim(), tracer,
                                              current_op);
    dev = s.timing.get();
  }
  redy::faster::FasterKv::Options fo;
  // A quarter of local memory holds the log tail, the rest caches hot
  // records (Section 8.3).
  fo.log_memory_bytes = kLocalBytes / 4;
  fo.read_cache_bytes = kLocalBytes - fo.log_memory_bytes;
  fo.value_bytes = kValueBytes;
  fo.index_buckets = 1 << 16;
  s.kv = std::make_unique<redy::faster::FasterKv>(&s.tb->sim(), dev, fo);
  REDY_CHECK(s.kv->BulkLoad(0, kKeys, [](uint64_t key, void* value) {
                   record::Fill(static_cast<uint8_t*>(value), kValueBytes,
                                key, 0);
                 }).ok());
  return st;
}

/// Four simulated FASTER threads. Each takes ops from its own queue and
/// keeps up to kDepth in flight, charging FASTER's CPU costs to its
/// simulated clock. Closed mode refills the queue from completions;
/// open mode fills it from Poisson arrivals.
class FasterDriver {
 public:
  /// `current_op` receives the id of the op being issued, for spans
  /// recorded below the store.
  FasterDriver(redy::faster::FasterKv* kv, redy::sim::Simulation* sim,
               uint64_t seed, Tracer* tracer, uint64_t* current_op)
      : kv_(kv), sim_(sim), book_(kKeys), tracer_(tracer),
        current_op_(current_op),
        arrivals_(redy::SplitMix64(seed ^ 0xA11)) {
    for (uint32_t t = 0; t < kThreads; t++) {
      auto th = std::make_unique<Thread>(
          OpGen(redy::SplitMix64(seed + t), kKeys, kReadFraction, true));
      th->slots.resize(kDepth);
      for (uint32_t i = 0; i < kDepth; i++) {
        th->slots[i].buf.assign(kValueBytes, 0);
        th->free.push_back(i);
      }
      Thread* tp = th.get();
      th->poller = std::make_unique<redy::sim::Poller>(
          sim_, kPollInterval, [this, tp] { return Poll(*tp); });
      threads_.push_back(std::move(th));
    }
  }

  void StartClosed() {
    closed_ = true;
    for (auto& th : threads_) {
      for (uint32_t i = 0; i < kDepth; i++) th->queue.push_back(sim_->Now());
      th->poller->Start();
    }
  }
  /// Stops refilling; queued and in-flight ops still finish.
  void StopClosed() { closed_ = false; }
  /// Poisson arrivals at `rate` until `until`, spread over the threads.
  void StartOpen(double rate, SimTime until) {
    open_rate_ = rate;
    open_until_ = until;
    ScheduleArrival(sim_->Now());
  }

  void BeginWindow() {
    measuring_ = true;
    window_ok_ = window_attempted_ = window_failed_ = 0;
    wall_lat_.clear();
    sim_lat_.clear();
  }
  void EndWindow() { measuring_ = false; }
  bool Idle() const {
    for (const auto& th : threads_) {
      if (!th->queue.empty() || th->free.size() != kDepth) return false;
    }
    return true;
  }

  uint64_t window_ok() const { return window_ok_; }
  uint64_t window_attempted() const { return window_attempted_; }
  uint64_t window_failed() const { return window_failed_; }
  uint64_t backpressure() const { return backpressure_; }
  uint64_t bad_reads() const { return bad_reads_; }
  const std::string& first_error() const { return first_error_; }
  std::vector<float>& wall_lat() { return wall_lat_; }
  std::vector<float>& sim_lat() { return sim_lat_; }

 private:
  struct Slot {
    std::vector<uint8_t> buf;
    uint64_t key = 0, version = 0, acked = 0, wall_start = 0, span = 0;
    SimTime due = 0;
    bool read = true, measured = false;
  };
  struct Thread {
    explicit Thread(OpGen g) : gen(std::move(g)) {}
    OpGen gen;
    std::vector<Slot> slots;
    std::vector<uint32_t> free;
    std::deque<SimTime> queue;  // due times of ops waiting for a slot
    std::unique_ptr<redy::sim::Poller> poller;
    /// Set while a kv call runs: a completion inside it is synchronous.
    bool in_call = false;
    SimTime call_clock = 0;
  };

  void ScheduleArrival(SimTime t) {
    if (t >= open_until_) return;
    sim_->At(t, [this] {
      Thread& th = *threads_[next_thread_++ % kThreads];
      th.queue.push_back(sim_->Now());
      th.poller->Wake();
      const double gap = arrivals_.Exponential(1e9 / open_rate_);
      ScheduleArrival(sim_->Now() + 1 + static_cast<SimTime>(gap));
    });
  }

  uint64_t Poll(Thread& th) {
    SimTime consumed = 0;
    int budget = 64;
    while (!th.queue.empty() && !th.free.empty() && budget-- > 0) {
      const uint32_t i = th.free.back();
      Slot& s = th.slots[i];
      const NextOp op = DrawOp(th.gen, book_);
      s.key = op.key;
      s.read = op.read;
      s.acked = book_.acked(op.key);
      s.due = th.queue.front();
      // Set before the call: a memory hit completes inside it.
      s.measured = measuring_;
      if (!s.read) {
        s.version = book_.BeginWrite(s.key);
        record::Fill(s.buf.data(), kValueBytes, s.key, s.version);
      }
      const bool tracing = tracer_->enabled();
      s.span = *current_op_ = tracing ? tracer_->NewId() : 0;
      s.wall_start = NowNs();
      th.in_call = true;
      th.call_clock = sim_->Now() + consumed;
      auto cb = [this, &th, i](Status st) { Done(th, i, st); };
      static_assert(
          redy::faster::FasterKv::Callback::fits_inline<decltype(cb)>());
      th.free.pop_back();
      const Status st = s.read ? kv_->Read(s.key, s.buf.data(), cb)
                               : kv_->Upsert(s.key, s.buf.data(), cb);
      th.in_call = false;
      if (tracing) {
        tracer_->Span(s.read ? "faster.Read" : "faster.Upsert", s.span,
                      s.wall_start, NowNs());
      }
      if (!st.ok()) {
        // Log memory full while flushes drain: FASTER backpressure, the
        // op is retried on a later poll (not a failure).
        if (!s.read) book_.EndWrite(s.key, s.version, false);
        th.free.push_back(i);
        backpressure_++;
        break;
      }
      th.queue.pop_front();
      if (s.measured) window_attempted_++;
      const bool sync = std::find(th.free.begin(), th.free.end(), i) !=
                        th.free.end();
      consumed += sync ? kMemOpCost : kIssueCost;
    }
    if (consumed == 0) {
      // Nothing to issue until an arrival or a completion wakes us.
      if (th.queue.empty() || th.free.empty()) th.poller->Park();
      return kPollInterval;
    }
    return consumed;
  }

  void Done(Thread& th, uint32_t i, Status st) {
    Slot& s = th.slots[i];
    const SimTime end =
        th.in_call ? th.call_clock + kMemOpCost : sim_->Now();
    if (st.ok() && s.read) {
      const std::string err =
          VerifyRead(s.buf.data(), kValueBytes, s.key, s.acked, book_);
      if (!err.empty() && bad_reads_++ == 0) first_error_ = err;
    }
    if (!s.read) book_.EndWrite(s.key, s.version, st.ok());
    if (measuring_ && st.ok()) window_ok_++;
    if (!st.ok() && failures_++ == 0) {
      std::fprintf(stderr,
                   "faster_ycsb_b: first failed op (key %llu, %s): %s\n",
                   static_cast<unsigned long long>(s.key),
                   s.read ? "read" : "upsert", st.ToString().c_str());
    }
    if (s.measured) {
      if (!st.ok()) window_failed_++;
      wall_lat_.push_back(st.ok() ? static_cast<float>(NowNs() - s.wall_start)
                                  : 1e15f);
      // Simulated latency means something only in the open phase.
      if (!closed_) {
        sim_lat_.push_back(st.ok() ? static_cast<float>(end - s.due) : 1e15f);
      }
    }
    if (tracer_->enabled() && !th.in_call) {
      tracer_->Span(s.read ? "op.read" : "op.write", s.span, s.wall_start,
                    NowNs(), /*async=*/true);
    }
    th.free.push_back(i);
    if (closed_) th.queue.push_back(end);
    th.poller->Wake();
  }

  redy::faster::FasterKv* kv_;
  redy::sim::Simulation* sim_;
  VersionBook book_;
  Tracer* tracer_;
  uint64_t* current_op_;
  redy::Rng arrivals_;
  std::vector<std::unique_ptr<Thread>> threads_;
  bool closed_ = false, measuring_ = false;
  double open_rate_ = 0;
  SimTime open_until_ = 0;
  uint64_t next_thread_ = 0;
  uint64_t window_ok_ = 0, window_attempted_ = 0, window_failed_ = 0;
  uint64_t backpressure_ = 0, bad_reads_ = 0, failures_ = 0;
  std::string first_error_;
  std::vector<float> wall_lat_, sim_lat_;
};

}  // namespace

Result RunFasterYcsbB(const Args& args, double scale, Tracer* tracer) {
  Result r;
  // Set-up: testbed, Redy cache, devices, store, bulk load.
  uint64_t current_op = 0;
  std::unique_ptr<Stack> stack;
  r.Add("setup_s",
        MedianSetupSeconds([&] { stack.reset(); },
                           [&] {
                             stack = Build(args.seed, tracer, &current_op);
                             return true;
                           }),
        "s");

  Stack& s = *stack;
  redy::sim::Simulation& sim = s.tb->sim();
  redy::CacheClient& client = s.tb->client();
  FasterDriver driver(s.kv.get(), &sim, args.seed, tracer, &current_op);

  driver.StartClosed();
  sim.RunUntil(sim.Now() + kWarmup);

  const auto servers = CacheServers(client, s.tb->manager(), s.cache);
  const redy::faster::FasterKv::Stats kv0 = s.kv->stats();
  client.ResetStats(s.cache);
  const SimCounters c0 = SimCounters::Take(*s.tb, servers);
  const uint64_t written0 = s.timing ? s.timing->bytes_written_ : 0;
  driver.BeginWindow();
  const uint64_t w0 = NowNs();
  const SimTime t0 = sim.Now();
  const SimTime window =
      static_cast<SimTime>(scale * static_cast<double>(kWindowPerSecond));
  SubWindows subs;
  subs.Mark(0, 0);
  const SimTime sub = window / SubWindows::Count(scale);
  for (SimTime t = t0; t < t0 + window; t += kSlice) {
    const uint64_t a = NowNs();
    sim.RunUntil(std::min(t + kSlice, t0 + window));
    tracer->Span("sim.RunUntil", 0, a, NowNs());
    if ((sim.Now() - t0) / sub != (t - t0) / sub || sim.Now() >= t0 + window) {
      subs.Mark(driver.window_ok(), driver.wall_lat().size());
    }
  }
  driver.EndWindow();
  const uint64_t w1 = NowNs();
  const SimCounters c1 = SimCounters::Take(*s.tb, servers);
  const redy::faster::FasterKv::Stats kv1 = s.kv->stats();
  const redy::CacheClient::Stats stats = *client.stats(s.cache);
  const uint64_t written = s.timing ? s.timing->bytes_written_ - written0 : 0;

  const double sim_s = static_cast<double>(window) / 1e9;
  const double ops =
      static_cast<double>(std::max<uint64_t>(1, driver.window_ok()));
  r.attempted = driver.window_attempted();
  r.failed = driver.window_failed();
  r.Add("ops_per_s", subs.OpsPerSec(), "1/s");
  r.Add("p50_us", subs.LatencyPercentile(driver.wall_lat(), 0.50) / 1e3, "us");
  r.Add("p99_us", subs.LatencyPercentile(driver.wall_lat(), 0.99) / 1e3, "us");
  r.Add("sim_ops_per_s", driver.window_ok() / sim_s, "1/s");
  r.Add("cpu_us_per_op", subs.CpuUsPerOp(), "us");
  r.Add("bench.clean_subwindow_frac", subs.CleanFraction(), "1");
  AddSimLayers(c0, c1, ops, static_cast<double>(w1 - w0), &r);
  AddClientStats(stats, c1.batches - c0.batches, ops, &r);

  const double reads =
      static_cast<double>(std::max<uint64_t>(1, kv1.reads - kv0.reads));
  r.Add("faster.mem_hit_frac", (kv1.mem_hits - kv0.mem_hits) / reads, "1");
  r.Add("faster.read_cache_hit_frac",
        (kv1.read_cache_hits - kv0.read_cache_hits) / reads, "1");
  r.Add("faster.device_read_frac",
        (kv1.device_reads - kv0.device_reads) / reads, "1");
  r.Add("faster.backpressure_retries",
        static_cast<double>(driver.backpressure()), "count");
  if (s.timing) {
    const double user =
        static_cast<double>(kv1.upserts - kv0.upserts) * kValueBytes;
    r.Add("faster.write_amp", user > 0 ? written / user : 0, "1");
    r.Add("faster.device_read_sim_p50_us",
          Percentile(s.timing->read_sim_ns_, 0.50) / 1e3, "us");
    r.Add("faster.device_read_sim_p99_us",
          Percentile(s.timing->read_sim_ns_, 0.99) / 1e3, "us");
    r.Add("faster.device_read_wall_ns", Median(s.timing->read_wall_ns_), "ns");
  }

  // Open-loop phase: Poisson arrivals timed from when each op was due.
  driver.StopClosed();
  while (!driver.Idle() && sim.Step()) {
  }
  const SimTime open_phase = static_cast<SimTime>(
      scale * static_cast<double>(kOpenPhasePerSecond));
  driver.BeginWindow();
  driver.StartOpen(kOpenRate, sim.Now() + open_phase);
  sim.RunUntil(sim.Now() + open_phase);
  driver.EndWindow();
  while (!driver.Idle() && sim.Step()) {
  }
  r.Add("sim_p50_us", Percentile(driver.sim_lat(), 0.50) / 1e3, "us");
  r.Add("sim_p99_us", Percentile(driver.sim_lat(), 0.99) / 1e3, "us");
  r.attempted += driver.window_attempted();
  r.failed += driver.window_failed();
  if (driver.bad_reads() > 0) r.Fail(driver.first_error());
  r.Add("peak_rss_mib", PeakRssMib(), "MiB");
  return r;
}

}  // namespace perfbench
