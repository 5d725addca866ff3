#ifndef REDY_REDY_CACHE_SERVER_H_
#define REDY_REDY_CACHE_SERVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/vm_allocator.h"
#include "common/random.h"
#include "common/result.h"
#include "redy/config.h"
#include "redy/cost_model.h"
#include "redy/protocol.h"
#include "rdma/nic.h"
#include "rdma/queue_pair.h"
#include "sim/poller.h"
#include "sim/simulation.h"

namespace redy {

/// The cache-server agent that runs on each VM hosting cache memory
/// (Fig. 4). It allocates physical regions, registers them with the
/// NIC, accepts Connect requests, and — when the configuration uses
/// server threads — polls per-connection message rings, executes
/// request batches against region memory, and RDMA-writes response
/// batches back (Section 4.2).
class CacheServer {
 public:
  /// What the server returns from Connect: everything the client needs
  /// to talk to this VM.
  struct ConnectionInfo {
    rdma::QueuePair* server_qp = nullptr;  // for the client QP to connect
    /// Access tokens for the VM's physical regions, one per region.
    std::vector<rdma::RemoteKey> region_keys;
    /// Request message ring on the server (q slots of slot_bytes each);
    /// null key when the connection is one-sided only.
    rdma::RemoteKey request_ring_key;
    uint64_t request_slot_bytes = 0;
    uint32_t queue_depth = 0;
    /// Index of this connection on the server (for SetResponseRing).
    uint32_t conn_index = 0;
  };

  CacheServer(sim::Simulation* sim, rdma::Fabric* fabric,
              const cluster::Vm& vm, const CostModel& costs);
  virtual ~CacheServer();

  CacheServer(const CacheServer&) = delete;
  CacheServer& operator=(const CacheServer&) = delete;

  /// Allocates and registers `n` regions of `bytes` each. Called once
  /// when the VM joins a cache (or grows).
  Result<std::vector<rdma::RemoteKey>> AllocateRegions(uint32_t n,
                                                       uint64_t bytes);

  /// Handles a client Connect for one client-thread connection. Creates
  /// the server-side QP, the message ring (if cfg.s > 0, sized for
  /// batches of `record_bytes` records), and records where responses
  /// must be written (the client passes its response ring's key after
  /// connecting, via SetResponseRing).
  ///
  /// Virtual, along with SetResponseRing/region/alive: these four are
  /// the whole control-plane surface CacheClient needs from a server
  /// agent, so a cross-process deployment substitutes RPC proxies
  /// (transport::RemoteCacheServer) without the client noticing
  /// (DESIGN.md §13).
  virtual Result<ConnectionInfo> Connect(const RdmaConfig& cfg,
                                         uint32_t record_bytes);

  /// Tells the server where connection `conn`'s responses go.
  virtual Status SetResponseRing(uint32_t conn, rdma::RemoteKey key,
                                 uint64_t slot_bytes);

  /// Starts `cfg.s` server threads (no-op for s = 0).
  void Start(const RdmaConfig& cfg);

  /// Stops threads and invalidates regions (VM teardown).
  void Shutdown();

  /// Overload governance (DESIGN.md §12): past fixed ready-backlog
  /// watermarks, shed batches with per-op kBusy (lowest priority first,
  /// never lease-carrying ones) and shrink the credit grants in
  /// response headers. Off (the default), a backlogged server queues
  /// until the rings fill and clients time out.
  void set_govern_overload(bool on) { govern_overload_ = on; }

  rdma::Nic* nic() const { return nic_; }
  const cluster::Vm& vm() const { return vm_; }
  net::ServerId node() const { return vm_.server; }
  uint32_t num_regions() const { return static_cast<uint32_t>(regions_.size()); }
  /// The backing memory of region `i`, or nullptr when `i` is out of
  /// range (a shut-down agent holds no regions). A remote proxy always
  /// returns nullptr (no shared address space); callers off the data
  /// path (Poke/Peek, bulk population, revocation) must tolerate that.
  virtual rdma::MemoryRegion* region(uint32_t i) const {
    return i < regions_.size() ? regions_[i] : nullptr;
  }
  uint64_t batches_processed() const { return batches_processed_; }
  /// Overload-pushback introspection (telemetry/benches).
  uint64_t busy_shed_batches() const { return busy_shed_batches_; }
  uint64_t busy_shed_ops() const { return busy_shed_ops_; }
  /// Response batches that carried a reduced (< q) credit window.
  uint64_t credit_throttled_grants() const { return credit_throttled_; }
  bool running() const { return !threads_.empty(); }
  /// Whether the agent has not been shut down. Note running() is false
  /// for one-sided servers (no threads); liveness checks must use this.
  virtual bool alive() const { return !shutdown_; }

 private:
  struct Connection {
    rdma::QueuePair* qp = nullptr;
    rdma::MemoryRegion* request_ring = nullptr;   // incoming batches
    rdma::MemoryRegion* response_staging = nullptr;  // outgoing batches
    rdma::RemoteKey client_response_ring;  // where to write responses
    uint64_t request_slot_bytes = 0;
    uint64_t response_slot_bytes = 0;
    uint32_t queue_depth = 0;
    uint64_t next_seq = 1;  // next batch sequence expected
    uint32_t pending_posts = 0;  // responses built but not yet posted
  };

  /// One poll sweep of a server thread over its connections. Returns
  /// consumed CPU time.
  uint64_t PollConnections(uint32_t thread_index);
  /// Whether `conn`'s next expected batch has landed in its ring slot
  /// (cheap header peek; used to size the ready backlog for credit
  /// grants and shed decisions).
  bool BatchReady(const Connection& conn) const;
  /// Processes the next pending batch on `conn` if present. Returns
  /// consumed CPU time (0 if nothing arrived). `backlog` is the number
  /// of ready batches across the owning thread's connections this
  /// sweep (drives credit grants and kBusy shedding). Sets `*blocked`
  /// when a batch is waiting but cannot be consumed because the QP is
  /// at send depth — the owning thread must keep polling (no ring
  /// write will announce the deferred post that unblocks it).
  uint64_t ProcessBatch(Connection& conn, uint32_t backlog, bool* blocked);
  /// The send window granted to a connection given the current ready
  /// backlog (q when credit flow is off).
  uint32_t GrantCredits(uint32_t backlog) const;
  /// Wakes the (possibly parked) thread that owns connection
  /// `conn_index`. Invoked by the request-ring remote-write notifier.
  void WakeThread(uint32_t conn_index);

  sim::Simulation* sim_;
  rdma::Nic* nic_;
  cluster::Vm vm_;
  CostModel costs_;
  Rng rng_;
  RdmaConfig cfg_;
  std::vector<rdma::MemoryRegion*> regions_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::vector<std::unique_ptr<sim::Poller>> threads_;
  std::vector<uint32_t> idle_streaks_;
  /// Per-thread rotating start cursor over the thread's connections, so
  /// under sustained backlog every connection gets the one-batch
  /// quantum in turn instead of the first-listed tenant monopolizing
  /// the sweep (per-tenant fair queueing, DESIGN.md §12).
  std::vector<uint32_t> rr_cursors_;
  bool govern_overload_ = false;
  uint64_t batches_processed_ = 0;
  uint64_t busy_shed_batches_ = 0;
  uint64_t busy_shed_ops_ = 0;
  uint64_t credit_throttled_ = 0;
  bool shutdown_ = false;
};

}  // namespace redy

#endif  // REDY_REDY_CACHE_SERVER_H_
