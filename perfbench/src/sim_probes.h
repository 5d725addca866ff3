#ifndef PERFBENCH_SIM_PROBES_H_
#define PERFBENCH_SIM_PROBES_H_

// Readings taken from a simulated deployment (redy::Testbed) through
// public accessors only: NIC counters in the telemetry registry and the
// cache servers behind a cache.

#include <vector>

#include "harness.h"
#include "redy/testbed.h"

namespace perfbench {

/// The distinct cache servers holding `cache`'s regions right now.
std::vector<redy::CacheServer*> CacheServers(redy::CacheClient& client,
                                             redy::CacheManager& manager,
                                             redy::CacheClient::CacheId cache);
uint64_t SumBatches(const std::vector<redy::CacheServer*>& servers);
uint64_t SumBusyShed(const std::vector<redy::CacheServer*>& servers);

/// Snapshot of the rdma/sim/server counters, for deltas over a window.
struct SimCounters {
  uint64_t wqe_posted = 0, wqe_errors = 0, protection_errors = 0;
  uint64_t events = 0, batches = 0, busy_shed = 0;
  static SimCounters Take(redy::Testbed& tb,
                          const std::vector<redy::CacheServer*>& servers);
};

/// Adds rdma.*, sim.* and redy.server.* metrics for the window between
/// two snapshots that completed `ops` ops in `wall_ns` of wall time.
void AddSimLayers(const SimCounters& a, const SimCounters& b, double ops,
                  double wall_ns, Result* r);

}  // namespace perfbench

#endif  // PERFBENCH_SIM_PROBES_H_
