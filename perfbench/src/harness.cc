#include "harness.h"

#include <dirent.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/checksum.h"
#include "common/random.h"

namespace perfbench {

void Result::Add(const std::string& name, double value,
                 const std::string& unit) {
  const size_t dot = name.rfind('.');
  metrics.push_back(
      {dot == std::string::npos ? "e2e" : name.substr(0, dot), name, value,
       unit});
}

void Result::Fail(const std::string& why) {
  correct = false;
  if (errors.size() < 16) errors.push_back(why);
}

uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

double MedianSetupSeconds(const std::function<void()>& teardown,
                          const std::function<bool()>& setup) {
  std::vector<double> times;
  double total = 0;
  while (times.size() < 50 && (times.size() < 10 || total < 1.0)) {
    teardown();
    const uint64_t t0 = NowNs();
    if (!setup()) return -1;
    times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    total += times.back();
  }
  return Median(std::move(times));
}

ProcUsage ProcUsage::Now() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  ProcUsage u;
  u.user_us = ru.ru_utime.tv_sec * 1e6 + ru.ru_utime.tv_usec;
  u.sys_us = ru.ru_stime.tv_sec * 1e6 + ru.ru_stime.tv_usec;
  u.vcsw = static_cast<uint64_t>(ru.ru_nvcsw);
  return u;
}

CpuTicks CpuTicks::Now() {
  CpuTicks t;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double PeakRssMib() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is KiB on Linux
}

pid_t CurrentTid() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

namespace {

bool ReadSmallFile(const std::string& path, char* buf, size_t cap) {
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  const size_t n = std::fread(buf, 1, cap - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  return n > 0;
}

}  // namespace

std::vector<TaskCpu> SampleTasks() {
  std::vector<TaskCpu> out;
  DIR* d = opendir("/proc/self/task");
  if (d == nullptr) return out;
  char buf[4096];
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    TaskCpu t;
    t.tid = static_cast<pid_t>(std::atoi(e->d_name));
    const std::string dir = std::string("/proc/self/task/") + e->d_name;
    if (ReadSmallFile(dir + "/schedstat", buf, sizeof(buf))) {
      t.run_ns = std::strtoull(buf, nullptr, 10);
    }
    if (ReadSmallFile(dir + "/status", buf, sizeof(buf))) {
      if (const char* p = std::strstr(buf, "voluntary_ctxt_switches:")) {
        t.vcsw = std::strtoull(p + std::strlen("voluntary_ctxt_switches:"),
                               nullptr, 10);
      }
    }
    out.push_back(t);
  }
  closedir(d);
  return out;
}

uint64_t TaskRunDelta(const std::vector<TaskCpu>& before,
                      const std::vector<TaskCpu>& after, pid_t tid) {
  uint64_t b = 0, a = 0;
  bool hb = false, ha = false;
  for (const TaskCpu& t : before) {
    if (t.tid == tid) b = t.run_ns, hb = true;
  }
  for (const TaskCpu& t : after) {
    if (t.tid == tid) a = t.run_ns, ha = true;
  }
  return hb && ha && a > b ? a - b : 0;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void SubWindows::Mark(uint64_t ok, size_t lat_count) {
  points_.push_back({NowNs(), ProcUsage::Now().cpu_us(), CpuTicks::Now(), ok,
                     lat_count, restart_ || points_.empty()});
  restart_ = false;
}

std::vector<size_t> SubWindows::All() const {
  std::vector<size_t> all;
  for (size_t i = 1; i < points_.size(); i++) {
    if (!points_[i].starts_stretch) all.push_back(i);
  }
  return all;
}

double SubWindows::CleanFraction() const {
  const std::vector<size_t> all = All();
  size_t clean = 0;
  for (size_t i : all) {
    const CpuTicks &a = points_[i - 1].ticks, &b = points_[i].ticks;
    const double total = static_cast<double>(b.total - a.total);
    clean += total <= 0 ||
             static_cast<double>(b.steal - a.steal) <= kMaxStealFrac * total;
  }
  return all.empty() ? 1.0
                     : static_cast<double>(clean) /
                           static_cast<double>(all.size());
}

double SubWindows::OpsPerSec() const {
  std::vector<double> v;
  for (size_t i : All()) {
    const Point &a = points_[i - 1], &b = points_[i];
    v.push_back(static_cast<double>(b.ok - a.ok) /
                (static_cast<double>(b.wall_ns - a.wall_ns) / 1e9));
  }
  return Quantile(std::move(v), 1 - kFastShare);
}

double SubWindows::CpuUsPerOp() const {
  std::vector<double> v;
  for (size_t i : All()) {
    const Point &a = points_[i - 1], &b = points_[i];
    if (b.ok > a.ok) v.push_back((b.cpu_us - a.cpu_us) / (b.ok - a.ok));
  }
  return Quantile(std::move(v), kFastShare);
}

double SubWindows::LatencyPercentile(const std::vector<float>& lat,
                                     double q) const {
  std::vector<double> v;
  for (size_t i : All()) {
    const size_t a = std::min(points_[i - 1].lat_count, lat.size());
    const size_t b = std::min(points_[i].lat_count, lat.size());
    if (b <= a) continue;
    std::vector<float> part(lat.begin() + a, lat.begin() + b);
    v.push_back(Percentile(part, q));
  }
  return Quantile(std::move(v), kFastShare);
}

void Tracer::Span(const char* name, uint64_t op, uint64_t start_ns,
                  uint64_t end_ns, bool async) {
  if (!enabled_) return;
  const pid_t tid = CurrentTid();
  std::lock_guard<std::mutex> lk(mu_);
  if (spans_.size() >= kMaxSpans) {
    dropped_++;
    return;
  }
  spans_.push_back({name, op, start_ns, end_ns, tid, 0, async ? 'A' : 'X'});
}

void Tracer::Counter(const char* name, uint64_t ts_ns, double value) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lk(mu_);
  if (spans_.size() >= kMaxSpans) {
    dropped_++;
    return;
  }
  spans_.push_back({name, 0, ts_ns, ts_ns, 0, value, 'C'});
}

bool Tracer::WriteJson(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lk(mu_);
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (const Rec& r : spans_) {
    const double ts_us =
        static_cast<double>(r.start_ns > t0_ ? r.start_ns - t0_ : 0) / 1e3;
    const double dur_us = static_cast<double>(r.end_ns - r.start_ns) / 1e3;
    if (!first) std::fprintf(f, ",\n");
    first = false;
    if (r.kind == 'C') {
      std::fprintf(f,
                   "{\"ph\":\"C\",\"name\":\"%s\",\"pid\":1,\"ts\":%.3f,"
                   "\"args\":{\"value\":%.6g}}",
                   r.name, ts_us, r.value);
    } else if (r.kind == 'A') {
      std::fprintf(f,
                   "{\"ph\":\"b\",\"cat\":\"op\",\"name\":\"%s\",\"pid\":1,"
                   "\"id\":%" PRIu64 ",\"ts\":%.3f},\n"
                   "{\"ph\":\"e\",\"cat\":\"op\",\"name\":\"%s\",\"pid\":1,"
                   "\"id\":%" PRIu64 ",\"ts\":%.3f}",
                   r.name, r.op, ts_us, r.name, r.op, ts_us + dur_us);
    } else {
      std::fprintf(f,
                   "{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%" PRIu64 "}}",
                   r.name, static_cast<int>(r.tid), ts_us, dur_us, r.op);
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

namespace record {
namespace {

uint64_t Sum(const uint8_t* buf, uint32_t len) {
  // Key and version are mixed in through the seed; the checksum field
  // itself (bytes 16..23) is skipped.
  uint64_t key, version;
  std::memcpy(&key, buf, 8);
  std::memcpy(&version, buf + 8, 8);
  return redy::Checksum64(buf + kHeaderBytes, len - kHeaderBytes,
                          redy::SplitMix64(key) ^ version);
}

}  // namespace

void Fill(uint8_t* buf, uint32_t len, uint64_t key, uint64_t version) {
  std::memcpy(buf, &key, 8);
  std::memcpy(buf + 8, &version, 8);
  uint64_t w = redy::SplitMix64(key * 0x9E3779B97F4A7C15ull + version);
  uint32_t i = kHeaderBytes;
  for (; i + 8 <= len; i += 8) {
    w = w * 6364136223846793005ull + 1442695040888963407ull;
    std::memcpy(buf + i, &w, 8);
  }
  for (; i < len; i++) buf[i] = static_cast<uint8_t>(w >> (8 * (i % 8)));
  const uint64_t sum = Sum(buf, len);
  std::memcpy(buf + 16, &sum, 8);
}

bool Check(const uint8_t* buf, uint32_t len, uint64_t key,
           uint64_t* version) {
  uint64_t k, sum;
  std::memcpy(&k, buf, 8);
  std::memcpy(version, buf + 8, 8);
  std::memcpy(&sum, buf + 16, 8);
  return k == key && sum == Sum(buf, len);
}

}  // namespace record
}  // namespace perfbench
