#ifndef REDY_REDY_TESTBED_H_
#define REDY_REDY_TESTBED_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chaos/fault_injector.h"
#include "cluster/vm_allocator.h"
#include "net/fabric_params.h"
#include "net/topology.h"
#include "redy/cache_client.h"
#include "redy/cache_manager.h"
#include "redy/cost_model.h"
#include "rdma/nic.h"
#include "sim/simulation.h"
#include "telemetry/telemetry.h"

namespace redy {

/// One-stop construction of a simulated deployment: event loop, data-
/// center topology, RDMA fabric, VM allocator, cache manager, and a
/// cache client colocated with the application on `app_node`. This is
/// the entry point examples and benchmarks use.
struct TestbedOptions {
  int pods = 2;
  int racks_per_pod = 2;
  int servers_per_rack = 8;
  uint32_t cores_per_server = 64;
  uint64_t memory_per_server = 64 * kGiB;
  net::ServerId app_node = 0;
  /// Early-warning window spot VMs get before reclamation.
  sim::SimTime reclaim_notice = 30 * kSecond;
  net::FabricParams fabric;
  CostModel costs;
  /// Client options; `client.govern_overload` also governs every
  /// cache server the manager boots.
  CacheClient::Options client;
};

class Testbed {
 public:
  explicit Testbed(TestbedOptions options = {});

  sim::Simulation& sim() { return sim_; }
  rdma::Fabric& fabric() { return *fabric_; }
  cluster::VmAllocator& allocator() { return *allocator_; }
  CacheManager& manager() { return *manager_; }
  CacheClient& client() { return *client_; }
  /// The deployment-wide telemetry sink: shared by the fabric, the
  /// client, and (when enabled) the fault injector. Tracing is off by
  /// default; call Telemetry().tracer().Enable() to record spans.
  telemetry::Telemetry& telemetry() { return *telemetry_; }
  net::ServerId app_node() const { return options_.app_node; }
  const TestbedOptions& options() const { return options_; }

  /// Kills a whole physical server: its NIC goes dark and every VM on
  /// it is reported failed (deadline = now).
  void FailNode(net::ServerId node);

  /// Creates (on first use) the fault injector and installs its hooks
  /// into the fabric. `opts.client` defaults to the app node when left
  /// at 0. The testbed owns the injector.
  chaos::FaultInjector* EnableChaos(chaos::FaultInjector::Options opts);
  chaos::FaultInjector* chaos() { return chaos_.get(); }

  /// Installs a recovery listener on the client so the structural
  /// invariants (no region on a dead VM, anti-affinity, acked bytes
  /// survived) are swept after every completed recovery action.
  /// Violations accumulate in invariant_violations().
  void EnableInvariantChecks();
  /// One invariant sweep right now; returns this sweep's violations.
  std::vector<std::string> CheckInvariantsNow();
  /// Records application-acknowledged bytes as ground truth for the
  /// acked-bytes-survived invariant (latest record per address wins).
  void RecordAckedBytes(CacheClient::CacheId cache, uint64_t addr,
                        const void* data, uint64_t size);
  uint64_t invariant_checks() const { return invariant_checks_; }
  const std::vector<std::string>& invariant_violations() const {
    return invariant_violations_;
  }

 private:
  TestbedOptions options_;
  sim::Simulation sim_;
  std::unique_ptr<telemetry::Telemetry> telemetry_;
  std::unique_ptr<rdma::Fabric> fabric_;
  std::unique_ptr<cluster::VmAllocator> allocator_;
  std::unique_ptr<CacheManager> manager_;
  std::unique_ptr<CacheClient> client_;
  std::unique_ptr<chaos::FaultInjector> chaos_;
  /// Acked ground truth keyed by (cache, address).
  std::map<std::pair<CacheClient::CacheId, uint64_t>, std::vector<uint8_t>>
      acked_;
  uint64_t invariant_checks_ = 0;
  std::vector<std::string> invariant_violations_;
};

}  // namespace redy

#endif  // REDY_REDY_TESTBED_H_
