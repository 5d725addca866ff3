#include "sim_probes.h"

#include <algorithm>
#include <string>

namespace perfbench {
namespace {

/// Sum of one per-server rdma.* counter over every server of the
/// testbed's topology (registering it, at zero, where a NIC never
/// counted).
uint64_t SumRdmaCounter(redy::Testbed& tb, const char* name) {
  const redy::TestbedOptions& o = tb.options();
  const int servers = o.pods * o.racks_per_pod * o.servers_per_rack;
  uint64_t total = 0;
  for (int s = 0; s < servers; s++) {
    total += tb.telemetry()
                 .metrics()
                 .GetCounter(name, {{"server", std::to_string(s)}})
                 ->Value();
  }
  return total;
}

}  // namespace

std::vector<redy::CacheServer*> CacheServers(
    redy::CacheClient& client, redy::CacheManager& manager,
    redy::CacheClient::CacheId cache) {
  std::vector<redy::CacheServer*> out;
  auto region_bytes = client.RegionSize(cache);
  if (!region_bytes.ok()) return out;
  const uint32_t regions =
      static_cast<uint32_t>(client.capacity(cache) / *region_bytes);
  for (uint32_t r = 0; r < regions; r++) {
    auto vm = client.RegionVm(cache, r);
    if (!vm.ok()) continue;
    redy::CacheServer* s = manager.ServerFor(*vm);
    if (s != nullptr && std::find(out.begin(), out.end(), s) == out.end()) {
      out.push_back(s);
    }
  }
  return out;
}

uint64_t SumBatches(const std::vector<redy::CacheServer*>& servers) {
  uint64_t n = 0;
  for (auto* s : servers) n += s->batches_processed();
  return n;
}

uint64_t SumBusyShed(const std::vector<redy::CacheServer*>& servers) {
  uint64_t n = 0;
  for (auto* s : servers) n += s->busy_shed_ops();
  return n;
}

SimCounters SimCounters::Take(redy::Testbed& tb,
                              const std::vector<redy::CacheServer*>& servers) {
  SimCounters c;
  c.wqe_posted = SumRdmaCounter(tb, "rdma.wqe_posted");
  c.wqe_errors = SumRdmaCounter(tb, "rdma.wqe_errors");
  c.protection_errors = SumRdmaCounter(tb, "rdma.protection_errors");
  c.events = tb.sim().events_executed();
  c.batches = SumBatches(servers);
  c.busy_shed = SumBusyShed(servers);
  return c;
}

void AddSimLayers(const SimCounters& a, const SimCounters& b, double ops,
                  double wall_ns, Result* r) {
  const double events = static_cast<double>(b.events - a.events);
  r->Add("rdma.wqes_per_op", (b.wqe_posted - a.wqe_posted) / ops, "1");
  r->Add("rdma.wqe_errors", static_cast<double>(b.wqe_errors - a.wqe_errors),
         "count");
  r->Add("rdma.protection_errors",
         static_cast<double>(b.protection_errors - a.protection_errors),
         "count");
  r->Add("sim.events_per_op", events / ops, "1");
  r->Add("sim.wall_ns_per_event", events > 0 ? wall_ns / events : 0, "ns");
  r->Add("redy.server.busy_shed_ops",
         static_cast<double>(b.busy_shed - a.busy_shed), "count");
}

}  // namespace perfbench
