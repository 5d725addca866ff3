#include "redy/testbed.h"

#include <cstdio>
#include <cstring>
#include <set>

namespace redy {

Testbed::Testbed(TestbedOptions options) : options_(options) {
  net::Topology topo(options_.pods, options_.racks_per_pod,
                     options_.servers_per_rack);
  telemetry_ = std::make_unique<telemetry::Telemetry>(&sim_);
  fabric_ = std::make_unique<rdma::Fabric>(&sim_, topo, options_.fabric);
  fabric_->set_telemetry(telemetry_.get());
  allocator_ = std::make_unique<cluster::VmAllocator>(
      &sim_, &fabric_->topology(), options_.cores_per_server,
      options_.memory_per_server, options_.reclaim_notice);
  manager_ = std::make_unique<CacheManager>(&sim_, fabric_.get(),
                                            allocator_.get(), options_.costs);
  manager_->SetGovernOverload(options_.client.govern_overload);
  options_.client.costs = options_.costs;
  options_.client.telemetry = telemetry_.get();
  client_ = std::make_unique<CacheClient>(&sim_, fabric_.get(),
                                          manager_.get(), options_.app_node,
                                          options_.client);
}

void Testbed::FailNode(net::ServerId node) {
  fabric_->NicAt(node)->Fail();
  allocator_->FailServer(node);
}

chaos::FaultInjector* Testbed::EnableChaos(chaos::FaultInjector::Options opts) {
  if (chaos_ == nullptr) {
    if (opts.client == 0) opts.client = options_.app_node;
    chaos_ = std::make_unique<chaos::FaultInjector>(&sim_, fabric_.get(),
                                                    opts);
  }
  chaos_->Install();
  return chaos_.get();
}

void Testbed::EnableInvariantChecks() {
  client_->SetRecoveryListener([this](const char*) { CheckInvariantsNow(); });
}

void Testbed::RecordAckedBytes(CacheClient::CacheId cache, uint64_t addr,
                               const void* data, uint64_t size) {
  auto& slot = acked_[{cache, addr}];
  slot.resize(size);
  std::memcpy(slot.data(), data, size);
}

std::vector<std::string> Testbed::CheckInvariantsNow() {
  std::vector<std::string> found = client_->CheckInvariants();

  // Acked-bytes ground truth: every byte the application saw
  // acknowledged must still be readable — except bytes of regions the
  // supervisor declared lost (that loss is accounted exactly in the
  // MigrationEvent) and regions currently mid-recovery (revisited by
  // the sweep that follows the recovery).
  std::set<std::pair<CacheClient::CacheId, uint64_t>> lost;
  for (const auto& ev : client_->migrations()) {
    for (uint32_t vr : ev.lost_vregions) lost.insert({ev.cache, vr});
  }
  for (const auto& [key, bytes] : acked_) {
    const CacheClient::CacheId id = key.first;
    const uint64_t addr = key.second;
    auto rb_or = client_->RegionSize(id);
    if (!rb_or.ok()) continue;  // cache deleted
    const uint64_t first = addr / *rb_or;
    const uint64_t last = (addr + bytes.size() - 1) / *rb_or;
    bool skip = false;
    for (uint64_t r = first; r <= last && !skip; r++) {
      if (lost.count({id, r}) != 0) skip = true;
      auto vm_or = client_->RegionVm(id, static_cast<uint32_t>(r));
      if (!vm_or.ok()) skip = true;
      if (!skip) {
        CacheServer* srv = manager_->ServerFor(*vm_or);
        if (srv == nullptr || !srv->alive()) skip = true;  // mid-recovery
      }
    }
    if (skip) continue;
    std::vector<uint8_t> got(bytes.size());
    if (!client_->Peek(id, addr, got.data(), got.size()).ok()) continue;
    if (got != bytes) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "cache %llu addr %llu: acknowledged bytes mutated",
                    static_cast<unsigned long long>(id),
                    static_cast<unsigned long long>(addr));
      found.emplace_back(buf);
    }
  }

  invariant_checks_++;
  for (const auto& s : found) invariant_violations_.push_back(s);
  return found;
}

}  // namespace redy
