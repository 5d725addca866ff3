#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared pieces of the benchmark: the result record, wall/CPU clocks,
// per-thread CPU from /proc, the in-memory span recorder that writes
// Perfetto JSON, and the self-verifying record format every workload
// writes and checks.

#include <sys/types.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

/// One measured number: the record shape every result uses.
struct Metric {
  std::string layer;  // "e2e" or the module, e.g. "transport"
  std::string name;   // full metric name, e.g. "transport.vcsw_per_op"
  double value = 0;
  std::string unit;
};

/// What a workload run returns.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable reasons `correct` is false.
  std::vector<std::string> errors;

  void Add(const std::string& name, double value, const std::string& unit);
  void Fail(const std::string& why);
};

/// Wall clock (CLOCK_MONOTONIC) in ns.
uint64_t NowNs();

/// Set-up time, steady enough to gate on: runs `teardown` and then a
/// timed `setup` at least 10 times and until 1 s of set-up has been
/// timed (at most 50 times), and returns the median in seconds. The last
/// set-up stays for the caller. Returns -1 as soon as `setup` fails.
double MedianSetupSeconds(const std::function<void()>& teardown,
                          const std::function<bool()>& setup);

/// Process-wide CPU and scheduling counters (getrusage).
struct ProcUsage {
  double user_us = 0;
  double sys_us = 0;
  uint64_t vcsw = 0;
  static ProcUsage Now();
  double cpu_us() const { return user_us + sys_us; }
};

/// Machine-wide CPU ticks from /proc/stat: all, and stolen by the
/// hypervisor. Steal during a run means other guests took the CPUs, and
/// its wall-clock numbers should be read with that in mind.
struct CpuTicks {
  uint64_t total = 0, steal = 0;
  static CpuTicks Now();
};

/// Peak resident set size of the process, MiB.
double PeakRssMib();

/// Per-thread CPU of one task of this process (/proc/self/task/<tid>).
struct TaskCpu {
  pid_t tid = 0;
  uint64_t run_ns = 0;  // schedstat: time on CPU
  uint64_t vcsw = 0;    // voluntary context switches
};
std::vector<TaskCpu> SampleTasks();
pid_t CurrentTid();
/// CPU ns `tid` ran between two samples (0 if absent from either).
uint64_t TaskRunDelta(const std::vector<TaskCpu>& before,
                      const std::vector<TaskCpu>& after, pid_t tid);

/// Percentile of integer-valued samples (every caller passes ns, on
/// clocks with 1 ns resolution) as grouped data: each value stands for
/// the interval [v - 0.5, v + 0.5) and the result is interpolated inside
/// the interval holding the target rank. Unlike nearest rank this does
/// not snap to one value when many samples tie, as they do on the
/// simulated clock. Sorts `v` in place.
template <typename T>
double Percentile(std::vector<T>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double target = q * static_cast<double>(v.size());
  const size_t k = std::min(
      v.size() - 1, static_cast<size_t>(std::max(0.0, std::ceil(target) - 1)));
  const auto lo = std::lower_bound(v.begin(), v.end(), v[k]);
  const auto hi = std::upper_bound(v.begin(), v.end(), v[k]);
  const double below = static_cast<double>(lo - v.begin());
  const double at = static_cast<double>(hi - lo);
  return static_cast<double>(v[k]) - 0.5 + (target - below) / at;
}
/// The q-th quantile of `v`, interpolated linearly between order
/// statistics (q = 0.5 is the median).
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

/// A measured window cut into many short sub-windows (about 0.1 s of
/// wall time each). Throughput, CPU per op and wall-clock latency
/// percentiles are computed per sub-window, and each is reported at the
/// sub-window kFastShare from its good end: the fastest tenth. On a
/// shared host other guests slow stretches of a run (stolen CPU, a busy
/// sibling hyperthread, a shared cache); the fast end of a run's
/// sub-windows is the program when they leave it alone. Under an on/off
/// CPU and memory load beside it on a 4-vCPU VM, socket_ycsb_b's ops/s
/// spread over five seeds (quartile distance over median) was 0.017 at
/// the fast tenth and 0.069 at the median. A change that makes every op
/// slower moves the fast end as much as the median; a stall that hits
/// only some sub-windows moves it less.
class SubWindows {
 public:
  static constexpr double kFastShare = 0.1;
  /// Sub-windows per second of --seconds.
  static constexpr double kPerSecond = 10;
  /// How many sub-windows a run of `scale` seconds is cut into.
  static int Count(double scale) {
    return std::max(10, static_cast<int>(std::lround(scale * kPerSecond)));
  }
  /// Share of the machine's CPU time above which the hypervisor is said
  /// to have stolen a sub-window (CleanFraction).
  static constexpr double kMaxStealFrac = 0.02;

  /// Marks a boundary: `ok` ops completed so far, `lat_count` latency
  /// samples recorded so far.
  void Mark(uint64_t ok, size_t lat_count);
  /// The next Mark starts a new measured stretch: the time since the
  /// previous Mark is not a sub-window.
  void Restart() { restart_ = true; }
  /// Completed ops per wall second.
  double OpsPerSec() const;
  /// Process user+sys CPU per completed op.
  double CpuUsPerOp() const;
  /// The q-th percentile of each sub-window's samples of `lat`
  /// (recorded in completion order), at the fast end of the sub-windows.
  double LatencyPercentile(const std::vector<float>& lat, double q) const;
  /// Share of sub-windows the hypervisor stole no more than
  /// kMaxStealFrac of (reported only; every sub-window is used).
  double CleanFraction() const;

 private:
  struct Point {
    uint64_t wall_ns;
    double cpu_us;
    CpuTicks ticks;
    uint64_t ok;
    size_t lat_count;
    bool starts_stretch;
  };
  /// Ends (indices into points_) of all sub-windows.
  std::vector<size_t> All() const;
  std::vector<Point> points_;
  bool restart_ = false;
};

/// In-memory span recorder. Spans share an op id with their children
/// and are written as Chrome/Perfetto trace_event JSON at the end.
/// Thread-safe; capped so a long run cannot grow without bound.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(NowNs()) {}
  bool enabled() const { return enabled_; }
  uint64_t NewId() { return ++next_id_; }
  /// A span of op `op`. Async spans (an op's whole life, which overlaps
  /// other ops on the same thread) are drawn on their own track; the
  /// rest nest by time on the recording thread.
  void Span(const char* name, uint64_t op, uint64_t start_ns,
            uint64_t end_ns, bool async = false);
  void Counter(const char* name, uint64_t ts_ns, double value);
  size_t spans() const { return spans_.size(); }
  uint64_t dropped() const { return dropped_; }
  /// Writes the trace; returns false if the file cannot be written.
  bool WriteJson(const std::string& path) const;

 private:
  struct Rec {
    const char* name;
    uint64_t op, start_ns, end_ns;
    pid_t tid;
    double value;  // counters only
    char kind;     // 'X' nested span, 'A' async span, 'C' counter
  };
  static constexpr size_t kMaxSpans = 200'000;
  bool enabled_;
  uint64_t t0_;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Rec> spans_;
  uint64_t dropped_ = 0;
};

/// Self-verifying record: [key u64][version u64][checksum u64][payload].
/// The payload is a pseudo-random stream seeded by (key, version) and
/// the checksum covers key, version and payload, so a torn, stale,
/// misplaced or corrupted record fails Check().
namespace record {
constexpr uint32_t kHeaderBytes = 24;
void Fill(uint8_t* buf, uint32_t len, uint64_t key, uint64_t version);
/// True when the checksum holds and the key matches; sets *version.
bool Check(const uint8_t* buf, uint32_t len, uint64_t key,
           uint64_t* version);
}  // namespace record

/// Per-key version bookkeeping for verifying reads under concurrent
/// writes: a read is correct iff its record checks and its version lies
/// between the newest write acknowledged before the read was issued and
/// the newest write issued before the read completed. The generator
/// keeps at most one write per key in flight, so writes to a key land
/// in version order.
class VersionBook {
 public:
  explicit VersionBook(uint64_t keys)
      : acked_(keys, 0), issued_(keys, 0), writing_(keys, 0) {}
  bool writing(uint64_t k) const { return writing_[k] != 0; }
  uint64_t acked(uint64_t k) const { return acked_[k]; }
  /// Starts a write of `k`; returns its new version.
  uint64_t BeginWrite(uint64_t k) {
    writing_[k] = 1;
    return ++issued_[k];
  }
  void EndWrite(uint64_t k, uint64_t version, bool ok) {
    writing_[k] = 0;
    if (ok && version > acked_[k]) acked_[k] = version;
  }
  bool ReadOk(uint64_t k, uint64_t acked_at_issue, uint64_t version) const {
    return version >= acked_at_issue && version <= issued_[k];
  }

 private:
  std::vector<uint64_t> acked_;
  std::vector<uint64_t> issued_;
  std::vector<uint8_t> writing_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
