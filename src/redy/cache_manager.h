#ifndef REDY_REDY_CACHE_MANAGER_H_
#define REDY_REDY_CACHE_MANAGER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cluster/vm_allocator.h"
#include "cluster/vm_types.h"
#include "common/result.h"
#include "redy/cache_server.h"
#include "redy/config.h"
#include "redy/cost_model.h"
#include "redy/perf_model.h"
#include "redy/slo.h"
#include "rdma/nic.h"

namespace redy {

/// Duration value meaning "until explicitly deallocated" (full price,
/// non-spot VMs).
inline constexpr sim::SimTime kDurationInfinite = UINT64_MAX;

/// The global cache manager (Fig. 4): translates (capacity, SLO,
/// duration) into an RDMA configuration via the offline performance
/// models, asks the cluster's VM allocator for VMs, boots cache-server
/// agents on them, and forwards spot-reclamation/failure notices to the
/// affected cache clients.
class CacheManager {
 public:
  /// One physical region as placed on a VM.
  struct RegionPlacement {
    cluster::VmId vm_id = cluster::kInvalidVm;
    CacheServer* server = nullptr;
    uint32_t region_index = 0;
    rdma::RemoteKey key;
    net::ServerId node = net::kInvalidServer;
  };

  /// The manager's answer to Allocate: the chosen configuration plus
  /// the list of placed regions, in virtual-address order.
  struct Allocation {
    RdmaConfig config;
    uint64_t region_bytes = 0;
    std::vector<RegionPlacement> regions;
    double price_per_hour = 0.0;
    bool spot = false;
  };

  /// `vm` went away (reclaimed with a deadline, or failed with
  /// deadline == now).
  using VmLossHandler =
      std::function<void(cluster::VmId vm, sim::SimTime deadline)>;

  CacheManager(sim::Simulation* sim, rdma::Fabric* fabric,
               cluster::VmAllocator* allocator, CostModel costs = {});
  virtual ~CacheManager() = default;

  /// Registers the performance model for a (record size, switch-hop
  /// distance) pair. Models are built offline (OfflineModeler) or
  /// injected analytically in tests.
  void SetModel(uint32_t record_bytes, int hops, PerfModel model);
  const PerfModel* GetModel(uint32_t record_bytes, int hops) const;

  /// Searches the registered model for the cheapest configuration
  /// predicted to satisfy `slo` at the given distance (Fig. 10).
  Result<RdmaConfig> SearchConfig(const Slo& slo, int hops) const;

  /// Full Allocate: pick a configuration for the SLO, choose the
  /// cheapest suitable VM type at the closest workable distance, place
  /// VMs, boot servers, allocate regions. A finite duration opts into
  /// spot VMs. Fails atomically (no side effects) when the SLO or
  /// capacity cannot be met.
  Result<Allocation> Allocate(uint64_t capacity, const Slo& slo,
                              sim::SimTime duration,
                              net::ServerId client_node,
                              uint64_t region_bytes);

  /// Allocate with an explicitly chosen configuration (used by
  /// benchmarks, Reshape with unchanged SLO, and migration targets).
  /// `avoid_nodes` provides anti-affinity (replicas must not share a
  /// physical server with their primary). `max_regions_per_vm` caps how
  /// many regions a single VM may host (0 = unlimited): tests use it to
  /// pin down region-to-VM fan-out deterministically, deployments to
  /// bound the blast radius of a single VM loss.
  /// Virtual, along with ReleaseVm: with AllocateWithConfig and the
  /// CacheServer control surface overridable, a cross-process client
  /// drives a manager living in the server process through RPC proxies
  /// (transport::RemoteCacheManager, DESIGN.md §13).
  virtual Result<Allocation> AllocateWithConfig(
      uint64_t capacity, const RdmaConfig& config, uint32_t record_bytes,
      bool spot, net::ServerId client_node, uint64_t region_bytes,
      int max_hops = 5,
      const std::vector<net::ServerId>* avoid_nodes = nullptr,
      uint32_t max_regions_per_vm = 0);

  /// Releases every VM in `allocation` (Deallocate). Idempotent, like
  /// ReleaseVm.
  void Deallocate(const Allocation& allocation);
  /// Releases a single VM (after its regions migrated away). Safe and
  /// idempotent in every failure interleaving the recovery supervisor
  /// produces: releasing a VM that was already force-freed by the
  /// allocator, already released, or already shut down is a no-op
  /// (Shutdown early-returns, the allocator ignores unknown ids, and
  /// VM ids are never reused).
  virtual void ReleaseVm(cluster::VmId vm);

  /// The client registers here to learn about VM loss.
  void SetVmLossHandler(VmLossHandler handler) {
    loss_handler_ = std::move(handler);
  }

  /// Overload governance (CacheServer::set_govern_overload) for every
  /// cache server this manager boots and, immediately, the ones
  /// already running.
  void SetGovernOverload(bool on) {
    govern_overload_ = on;
    for (auto& [vm, server] : servers_) server->set_govern_overload(on);
  }

  CacheServer* ServerFor(cluster::VmId vm) const;
  cluster::VmAllocator* allocator() const { return allocator_; }
  rdma::Fabric* fabric() const { return fabric_; }
  sim::Simulation* sim() const { return sim_; }
  const CostModel& costs() const { return costs_; }
  const std::vector<cluster::VmType>& menu() const { return menu_; }

 private:
  /// Cheapest VM type with >= `cores` cores and >= `memory` bytes.
  Result<cluster::VmType> CheapestType(uint32_t cores, uint64_t memory,
                                       bool spot) const;

  sim::Simulation* sim_;
  rdma::Fabric* fabric_;
  cluster::VmAllocator* allocator_;
  CostModel costs_;
  std::vector<cluster::VmType> menu_;
  std::map<std::pair<uint32_t, int>, PerfModel> models_;
  std::unordered_map<cluster::VmId, std::unique_ptr<CacheServer>> servers_;
  bool govern_overload_ = false;
  VmLossHandler loss_handler_;
};

}  // namespace redy

#endif  // REDY_REDY_CACHE_MANAGER_H_
