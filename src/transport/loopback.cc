#include "transport/loopback.h"

#include <chrono>
#include <thread>

namespace redy::transport {

LoopbackRig::LoopbackRig(LoopbackRigOptions options)
    : options_(std::move(options)) {
  driver_ = std::make_unique<WallClockDriver>(&sim_);
  driver_->Start();
  // Build the whole stack on the loop thread: construction schedules
  // events and touches simulator state, and the loop is already live.
  driver_->Call([this] {
    net::Topology topo(options_.pods, options_.racks_per_pod,
                       options_.servers_per_rack);
    telemetry_ = std::make_unique<telemetry::Telemetry>(&sim_);
    SocketFabric::Options fopts;
    fopts.workers = options_.workers;
    fabric_ = std::make_unique<SocketFabric>(&sim_, driver_.get(), topo,
                                             options_.fabric, fopts);
    fabric_->set_telemetry(telemetry_.get());
    allocator_ = std::make_unique<cluster::VmAllocator>(
        &sim_, &fabric_->topology(), options_.cores_per_server,
        options_.memory_per_server, options_.reclaim_notice);
    manager_ = std::make_unique<CacheManager>(&sim_, fabric_.get(),
                                              allocator_.get(),
                                              options_.costs);
    manager_->SetGovernOverload(options_.client.govern_overload);
    options_.client.costs = options_.costs;
    options_.client.telemetry = telemetry_.get();
    client_ = std::make_unique<CacheClient>(&sim_, fabric_.get(),
                                            manager_.get(),
                                            options_.app_node,
                                            options_.client);
  });
}

LoopbackRig::~LoopbackRig() {
  // Teardown order matters: first silence the transport (workers stop
  // producing frames and mailbox posts), then halt the loop, then
  // destroy the stack with no concurrency left anywhere, on the halted
  // loop thread that built it: freed there, its memory returns to that
  // thread's malloc arena instead of parking in the caller's thread
  // cache, where it pinned the arena and made the next rig's set-up
  // time swing 2x with unrelated object sizes.
  fabric_->ShutdownTransport();
  driver_->Stop([this] {
    client_.reset();
    manager_.reset();
    allocator_.reset();
    fabric_.reset();
    telemetry_.reset();
  });
  driver_.reset();
}

bool LoopbackRig::AwaitTrue(std::function<bool()> pred, uint64_t timeout_ms) {
  const uint64_t deadline =
      WallClockDriver::MonotonicNs() + timeout_ms * 1'000'000ull;
  while (true) {
    if (driver_->Call(pred)) return true;
    if (WallClockDriver::MonotonicNs() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

}  // namespace redy::transport
