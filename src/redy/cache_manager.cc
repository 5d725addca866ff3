#include "redy/cache_manager.h"

#include <algorithm>

#include "common/logging.h"
#include "redy/protocol.h"
#include "redy/slo_search.h"

namespace redy {

CacheManager::CacheManager(sim::Simulation* sim, rdma::Fabric* fabric,
                           cluster::VmAllocator* allocator, CostModel costs)
    : sim_(sim),
      fabric_(fabric),
      allocator_(allocator),
      costs_(costs),
      menu_(cluster::DefaultVmMenu()) {
  allocator_->SetReclaimHandler(
      [this](const cluster::Vm& vm, sim::SimTime deadline) {
        auto it = servers_.find(vm.id);
        if (it == servers_.end()) return;  // not one of ours
        if (loss_handler_) loss_handler_(vm.id, deadline);
        // The VM's resources vanish at the deadline whether or not the
        // client finished compensating: shut the agent down then.
        sim_->At(deadline, [this, id = vm.id] {
          auto sit = servers_.find(id);
          if (sit != servers_.end()) sit->second->Shutdown();
        });
      });
}

void CacheManager::SetModel(uint32_t record_bytes, int hops,
                            PerfModel model) {
  models_.insert_or_assign({record_bytes, hops}, std::move(model));
}

const PerfModel* CacheManager::GetModel(uint32_t record_bytes,
                                        int hops) const {
  auto it = models_.find({record_bytes, hops});
  return it == models_.end() ? nullptr : &it->second;
}

Result<RdmaConfig> CacheManager::SearchConfig(const Slo& slo,
                                              int hops) const {
  const PerfModel* model = GetModel(slo.record_bytes, hops);
  if (model == nullptr) {
    return Status::NotFound("no performance model for record size/distance");
  }
  SearchResult r = SearchSloConfig(*model, slo, /*prune=*/true);
  if (!r.found) {
    return Status::ResourceExhausted("no configuration satisfies the SLO");
  }
  return r.config;
}

Result<cluster::VmType> CacheManager::CheapestType(uint32_t cores,
                                                   uint64_t memory,
                                                   bool spot) const {
  const cluster::VmType* best = nullptr;
  for (const auto& t : menu_) {
    if (t.cores < cores || t.memory_bytes < memory) continue;
    const double price = spot ? t.spot_price_per_hour : t.price_per_hour;
    const double best_price =
        best == nullptr
            ? 0
            : (spot ? best->spot_price_per_hour : best->price_per_hour);
    if (best == nullptr || price < best_price) best = &t;
  }
  if (best == nullptr) {
    return Status::ResourceExhausted("no VM type large enough");
  }
  return *best;
}

Result<CacheManager::Allocation> CacheManager::Allocate(
    uint64_t capacity, const Slo& slo, sim::SimTime duration,
    net::ServerId client_node, uint64_t region_bytes) {
  // Try distances nearest-first; each has its own model and hence its
  // own (possibly different) configuration; pick the first that works.
  // (Section 6.1: find the best VM per distance, choose the cheapest;
  // nearer is never more expensive in our price model, so nearest-first
  // is equivalent.)
  const bool spot = duration != kDurationInfinite;
  Status last = Status::NotFound("no model registered");
  for (int hops :
       {net::FabricParams::kIntraRackHops, net::FabricParams::kIntraClusterHops,
        net::FabricParams::kInterClusterHops}) {
    if (GetModel(slo.record_bytes, hops) == nullptr) continue;
    auto cfg_or = SearchConfig(slo, hops);
    if (!cfg_or.ok()) {
      last = cfg_or.status();
      continue;
    }
    auto alloc_or = AllocateWithConfig(capacity, *cfg_or, slo.record_bytes,
                                       spot, client_node, region_bytes, hops);
    if (alloc_or.ok()) return alloc_or;
    last = alloc_or.status();
  }
  return last;
}

Result<CacheManager::Allocation> CacheManager::AllocateWithConfig(
    uint64_t capacity, const RdmaConfig& config, uint32_t record_bytes,
    bool spot, net::ServerId client_node, uint64_t region_bytes,
    int max_hops, const std::vector<net::ServerId>* avoid_nodes,
    uint32_t max_regions_per_vm) {
  if (capacity == 0 || region_bytes == 0) {
    return Status::InvalidArgument("capacity and region size must be > 0");
  }
  const uint32_t num_regions =
      static_cast<uint32_t>((capacity + region_bytes - 1) / region_bytes);

  // Ring overhead per VM: per-connection request ring + response
  // staging, for c connections.
  const uint64_t ring_overhead =
      config.s == 0
          ? 0
          : config.c * config.q *
                (RequestSlotBytes(config.b, record_bytes) +
                 ResponseSlotBytes(config.b, record_bytes));

  Allocation out;
  out.config = config;
  out.region_bytes = region_bytes;
  out.spot = spot;

  // Rolls back everything placed so far on failure (Allocate must have
  // no effect when it fails, Section 3.2).
  std::vector<cluster::VmId> placed;
  auto rollback = [&] {
    for (cluster::VmId id : placed) {
      servers_.erase(id);
      allocator_->Free(id);
    }
  };

  uint32_t remaining = num_regions;
  while (remaining > 0) {
    // One-sided caches (s = 0) need no server cores and can live on
    // stranded memory, which is essentially free. Two-sided caches
    // need s cores per VM from the regular menu.
    Result<cluster::Vm> vm_or = Status::NotFound("unset");
    double price = 0.0;
    bool memory_only = false;
    uint32_t vm_regions = max_regions_per_vm == 0
                              ? remaining
                              : std::min(remaining, max_regions_per_vm);

    if (config.s == 0) {
      // Try stranded memory first, geometrically backing off the piece
      // size until something fits.
      for (uint32_t r = vm_regions; r >= 1; r = (r == 1 ? 0 : (r + 1) / 2)) {
        const uint64_t mem = r * region_bytes + ring_overhead;
        auto stranded = allocator_->Allocate(
            0, mem, spot, client_node, max_hops, /*memory_only=*/true,
            "stranded", cluster::VmAllocator::Placement::kBestFitCores,
            avoid_nodes);
        if (stranded.ok()) {
          vm_or = stranded;
          vm_regions = r;
          memory_only = true;
          price = cluster::StrandedMemoryType(mem).price_per_hour;
          break;
        }
      }
    }
    if (!vm_or.ok()) {
      // Regular menu VM: cheapest type that fits s cores and as many
      // regions as possible.
      for (uint32_t r = vm_regions; r >= 1; r = (r == 1 ? 0 : (r + 1) / 2)) {
        const uint64_t mem = r * region_bytes + ring_overhead;
        auto type_or = CheapestType(std::max(config.s, 1u), mem, spot);
        if (!type_or.ok()) continue;
        auto placed_or = allocator_->Allocate(
            type_or->cores, type_or->memory_bytes, spot, client_node,
            max_hops, false, type_or->name,
            cluster::VmAllocator::Placement::kBestFitCores, avoid_nodes);
        if (placed_or.ok()) {
          vm_or = placed_or;
          vm_regions = r;
          price = spot ? type_or->spot_price_per_hour
                       : type_or->price_per_hour;
          break;
        }
      }
    }
    if (!vm_or.ok()) {
      rollback();
      return Status::ResourceExhausted(
          "cannot place enough VMs for the requested capacity");
    }
    (void)memory_only;

    auto server = std::make_unique<CacheServer>(sim_, fabric_, *vm_or, costs_);
    server->set_govern_overload(govern_overload_);
    auto keys_or = server->AllocateRegions(vm_regions, region_bytes);
    if (!keys_or.ok()) {
      allocator_->Free(vm_or->id);
      rollback();
      return keys_or.status();
    }
    server->Start(config);
    for (uint32_t i = 0; i < vm_regions; i++) {
      RegionPlacement rp;
      rp.vm_id = vm_or->id;
      rp.server = server.get();
      rp.region_index = i;
      rp.key = (*keys_or)[i];
      rp.node = vm_or->server;
      out.regions.push_back(rp);
    }
    out.price_per_hour += price;
    servers_.emplace(vm_or->id, std::move(server));
    placed.push_back(vm_or->id);
    remaining -= vm_regions;
  }
  return out;
}

void CacheManager::Deallocate(const Allocation& allocation) {
  std::vector<cluster::VmId> vms;
  for (const auto& r : allocation.regions) vms.push_back(r.vm_id);
  std::sort(vms.begin(), vms.end());
  vms.erase(std::unique(vms.begin(), vms.end()), vms.end());
  for (cluster::VmId id : vms) ReleaseVm(id);
}

void CacheManager::ReleaseVm(cluster::VmId vm) {
  // Idempotent by construction: a reclaimed VM's agent was already shut
  // down (its entry intentionally survives until release so raw
  // RegionPlacement::server pointers stay valid), a double release
  // finds no entry, and Free ignores ids the allocator no longer knows.
  auto it = servers_.find(vm);
  if (it != servers_.end()) {
    it->second->Shutdown();
    servers_.erase(it);
  }
  allocator_->Free(vm);
}

CacheServer* CacheManager::ServerFor(cluster::VmId vm) const {
  auto it = servers_.find(vm);
  return it == servers_.end() ? nullptr : it->second.get();
}

}  // namespace redy
