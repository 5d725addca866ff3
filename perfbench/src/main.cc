// perfbench: runs one workload and prints one JSON line of records
// (name, layer, metric, value, unit, plus the machine). perfbench/run.py
// builds this binary and turns that line into the benchmark result.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// --trace 0 runs the workload once, untraced, for the end-to-end
// metrics. --trace 1 runs it twice at half length — untraced, then with
// spans and per-thread CPU samples — reports the per-layer metrics of
// the traced run, the tracing overhead (traced / untraced ops_per_s),
// and writes the spans as Perfetto JSON to <out-dir>.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  Result (*run)(const Args&, double, Tracer*);
};

constexpr Workload kWorkloads[] = {
    {"socket_ycsb_b", RunSocketYcsbB},
    {"faster_ycsb_b", RunFasterYcsbB},
    {"migrate_ycsb_a", RunMigrateYcsbA},
    {"fleet_campaign", RunFleetCampaign},
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double Find(const Result& r, const std::string& name) {
  for (const Metric& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(v);
    } else if (flag == "--trace") {
      args.trace = std::atoi(v) != 0;
    } else if (flag == "--out-dir") {
      args.out_dir = v;
    } else {
      return Usage();
    }
  }
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wl = &w;
  }
  if (wl == nullptr || args.seconds <= 0) return Usage();

  Result result;
  double overhead = 0;
  const CpuTicks ticks0 = CpuTicks::Now();
  if (!args.trace) {
    Tracer off(false);
    result = wl->run(args, args.seconds, &off);
  } else {
    Tracer off(false);
    const Result plain = wl->run(args, args.seconds / 2, &off);
    Tracer on(true);
    result = wl->run(args, args.seconds / 2, &on);
    const double base = Find(plain, "ops_per_s");
    overhead = base > 0 ? Find(result, "ops_per_s") / base : 0;
    result.Add("bench.trace_overhead", overhead, "1");
    result.Add("bench.trace_spans", static_cast<double>(on.spans()), "count");
    result.Add("bench.trace_dropped", static_cast<double>(on.dropped()),
               "count");
    if (!plain.correct) {
      for (const std::string& e : plain.errors) result.Fail("untraced: " + e);
    }
    ::mkdir(args.out_dir.c_str(), 0755);
    const std::string path =
        args.out_dir + "/trace-" + args.workload + ".json";
    if (!on.WriteJson(path)) result.Fail("cannot write " + path);
  }

  const CpuTicks ticks1 = CpuTicks::Now();
  result.Add("bench.cpu_steal_frac",
             ticks1.total > ticks0.total
                 ? static_cast<double>(ticks1.steal - ticks0.steal) /
                       static_cast<double>(ticks1.total - ticks0.total)
                 : 0,
             "1");

  std::string out = "{\"workload\":" + JsonString(args.workload) +
                    ",\"seed\":" + std::to_string(args.seed) +
                    ",\"trace\":" + (args.trace ? "1" : "0") +
                    ",\"correct\":" + (result.correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(result.attempted) +
                    ",\"failed\":" + std::to_string(result.failed) +
                    ",\"errors\":[";
  for (size_t i = 0; i < result.errors.size(); i++) {
    if (i) out += ",";
    out += JsonString(result.errors[i]);
  }
  out += "],\"records\":[";
  for (size_t i = 0; i < result.metrics.size(); i++) {
    const Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g", m.value);
    if (i) out += ",";
    out += "{\"name\":" + JsonString(args.workload) +
           ",\"layer\":" + JsonString(m.layer) +
           ",\"metric\":" + JsonString(m.name) + ",\"value\":" + value +
           ",\"unit\":" + JsonString(m.unit) + "}";
  }
  out += "],\"machine\":{\"nproc\":" +
         std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
         ",\"compiler\":" + JsonString(PERFBENCH_COMPILER) + "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
