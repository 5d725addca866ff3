#ifndef REDY_TRANSPORT_SOCKET_FABRIC_H_
#define REDY_TRANSPORT_SOCKET_FABRIC_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/vec_deque.h"
#include "rdma/nic.h"
#include "rdma/queue_pair.h"
#include "transport/frame.h"
#include "transport/wall_clock.h"
#include "transport/worker_pool.h"

namespace redy::transport {

class SocketFabric;
class SocketNic;

/// A queue pair carried by one TCP stream (DESIGN.md §13). Posts run on
/// the application loop thread: the payload is snapshotted into an
/// outbound frame at post time (the socket analogue of the simulated
/// NIC's inline/PCIe snapshot — worker threads never read MR payload
/// memory on the send side), a pending-op record tagged with a
/// monotonically increasing op token is parked, and the frame is
/// written to the socket right there on the loop thread. Acks flow back
/// through the driver mailbox. Pending ops sit in a ring in post order
/// and complete from its head, so completions surface strictly in post
/// order, as on an RC QP: an ack that overtakes an earlier op (a kSend
/// is acked from the peer's loop, a one-sided op from its worker) waits
/// in its slot until the ops before it complete.
///
/// A SocketQueuePair can also be a *remote endpoint descriptor*: a
/// placeholder carrying (host, port, token) for a QP living in another
/// process. Connect() dials wherever the peer actually lives, so the
/// same client code works in-process (loopback tests/bench) and
/// cross-process (example binaries).
class SocketQueuePair : public rdma::QueuePair {
 public:
  SocketQueuePair(SocketNic* nic, uint32_t max_depth);
  /// Remote endpoint descriptor (see above). Never posted on directly.
  SocketQueuePair(SocketNic* nic, std::string host, uint16_t port,
                  uint64_t remote_token);
  ~SocketQueuePair() override;

  Status Connect(rdma::QueuePair* peer) override;
  Status PostRead(uint64_t wr_id, rdma::MemoryRegion* mr,
                  uint64_t local_offset, rdma::RemoteKey key,
                  uint64_t remote_offset, uint64_t len) override;
  Status PostWrite(uint64_t wr_id, const rdma::MemoryRegion* mr,
                   uint64_t local_offset, rdma::RemoteKey key,
                   uint64_t remote_offset, uint64_t len) override;
  Status PostSend(uint64_t wr_id, const rdma::MemoryRegion* mr,
                  uint64_t local_offset, uint64_t len) override;
  Status PostChain(uint64_t wr_id, rdma::MemoryRegion* mr,
                   const rdma::ChainHop* hops, uint32_t num_hops) override;
  // PostRecv: the base (loop-side posted-receive deque) is exactly what
  // the socket backend needs, so it is inherited unchanged.
  void Break() override;
  bool connected() const override { return connected_; }

  /// Fabric-wide routing token (0 for remote endpoint descriptors).
  uint64_t token() const { return token_; }
  bool is_remote_endpoint() const { return remote_endpoint_; }

 private:
  friend class SocketFabric;
  friend class SocketNic;

  struct PendingOp {
    uint64_t wr_id = 0;
    rdma::Opcode opcode = rdma::Opcode::kWrite;
    rdma::MemoryRegion* mr = nullptr;  // READ/chain landing buffer
    uint64_t local_offset = 0;
    uint32_t len = 0;
    /// kChain only: the posted hops, so the single response's
    /// concatenated read payloads scatter back.
    uint32_t num_hops = 0;
    std::array<rdma::ChainHop, rdma::kMaxChainHops> hops;
    /// Set when the op's ack arrived ahead of an earlier op's; the
    /// ack's fields wait here until the op reaches the ring's head.
    bool acked = false;
    StatusCode status = StatusCode::kOk;
    uint64_t aux = 0;
    std::vector<uint8_t> payload;
  };

  /// Also adopts a stream the peer dialed whose bind has not reached
  /// the loop yet.
  Status CheckSendable();
  /// Loop-side: parks `op` under the next op token.
  void Park(PendingOp op);
  /// Loop-side: an ack/response frame for op `op_token` arrived. `aux`
  /// echoes the response header's aux word (executed hop count for
  /// kChainResp; unused for the other acks).
  void CompleteOp(uint64_t op_token, StatusCode status, uint64_t aux,
                  std::vector<uint8_t> payload);
  /// Loop-side: lands an acked op's payload and pushes its completion.
  void Retire(PendingOp& op);
  /// Loop-side: the listener side learned its stream (kConnect seen).
  void OnAccepted(const WorkerPool::ConnRef& conn);
  /// Loop-side: the stream died under us.
  void OnTransportClosed();

  SocketFabric* fab_;
  uint64_t token_ = 0;
  bool remote_endpoint_ = false;
  std::string host_;
  uint16_t port_ = 0;
  uint64_t remote_token_ = 0;
  bool connected_ = false;
  /// The stream; null until connected and after Break().
  WorkerPool::ConnRef conn_;
  uint64_t next_op_token_ = 1;
  /// In-flight ops in post order: the head holds op token
  /// next_op_token_ - pending_.size(), and the rest follow
  /// consecutively. Loop-thread only.
  common::VecDeque<PendingOp> pending_;
};

/// The NIC of one server on the socket backend. Regions and queue pairs
/// are created on the application loop exactly as on the simulated NIC
/// (the base class bookkeeping is reused), with two additions: rkeys
/// come from a fabric-wide namespace, and every registered region is
/// mirrored into the fabric's mutex-guarded responder table so epoll
/// workers can resolve, fence-check, and apply one-sided ops without
/// ever entering the loop. Deregistered regions are quiesced against
/// in-flight responder applies and then retained until teardown, so a
/// worker can never hold a dangling pointer.
class SocketNic : public rdma::Nic {
 public:
  SocketNic(sim::Simulation* sim, SocketFabric* fabric, net::ServerId server);
  ~SocketNic() override;

  rdma::MemoryRegion* RegisterMemory(uint64_t bytes) override;
  void DeregisterMemory(rdma::MemoryRegion* mr) override;
  rdma::QueuePair* CreateQueuePair(uint32_t max_depth) override;
  void DestroyQueuePair(rdma::QueuePair* qp) override;
  void Fail() override;

  SocketFabric* socket_fabric() const { return fab_; }

  /// Builds a remote endpoint descriptor owned by this NIC (used by the
  /// cross-process control plane to materialize ConnectionInfo).
  SocketQueuePair* CreateRemoteEndpoint(std::string host, uint16_t port,
                                        uint64_t remote_token);

 private:
  SocketFabric* fab_;
  std::vector<std::unique_ptr<rdma::MemoryRegion>> retained_mrs_;
};

/// The socket-backed fabric: one listening TCP socket, one epoll worker
/// pool, and the loop-side routing tables gluing frames back to queue
/// pairs. NicAt() hands out SocketNics, so the whole construction the
/// deterministic stack performs — fabric → NIC → regions/QPs — builds a
/// real networked process instead of a simulated one, with no caller
/// changes (DESIGN.md §13).
class SocketFabric : public rdma::Fabric {
 public:
  struct Options {
    int workers = 2;
    /// 0 picks an ephemeral port (loopback tests); the example server
    /// binds a fixed one.
    uint16_t port = 0;
    std::string listen_host = "127.0.0.1";
  };

  SocketFabric(sim::Simulation* sim, WallClockDriver* driver,
               net::Topology topology, net::FabricParams params,
               Options options);
  ~SocketFabric() override;

  rdma::Nic* NicAt(net::ServerId server) override;
  /// Also registers "transport.worker_commands_enqueued": commands the
  /// worker pool handed across threads since telemetry was installed.
  /// Posts and acks never add to it (they write the socket in place).
  void set_telemetry(telemetry::Telemetry* telemetry) override;

  /// Stops the worker pool (no more frames). Call before stopping the
  /// driver; the destructor does it as a backstop.
  void ShutdownTransport();

  uint16_t port() const { return port_; }
  const std::string& listen_host() const { return options_.listen_host; }
  WallClockDriver* driver() const { return driver_; }
  WorkerPool& pool() { return pool_; }

  /// Responder-visible view of one registered region: the region plus
  /// the apply mutex serializing worker-side deposits/snapshots.
  struct SharedMr {
    rdma::MemoryRegion* mr = nullptr;
    std::shared_ptr<std::mutex> apply_mu;
  };

  // --- loop-side registries (application loop thread only) ---
  uint32_t AllocRkey() { return next_rkey_++; }
  uint64_t RegisterQp(SocketQueuePair* qp);
  void UnregisterQp(uint64_t token);

  // --- responder table (any thread) ---
  void AddSharedMr(uint32_t rkey, rdma::MemoryRegion* mr);
  /// Erases the rkey and drains any in-flight responder apply, so the
  /// caller may retire the region's storage.
  void RemoveSharedMr(uint32_t rkey);
  bool LookupSharedMr(uint32_t rkey, SharedMr* out);

 private:
  friend class SocketQueuePair;
  friend class SocketNic;

  /// Removes and returns the stream a peer dialed to QP `qp_token`
  /// whose bind is still on its way to the loop (null if none).
  WorkerPool::ConnRef TakeAcceptedConn(uint64_t qp_token);

  // Worker-side frame dispatch.
  void OnFrame(const WorkerPool::ConnRef& conn, uint64_t bound_token,
               const FrameHeader& hdr, std::vector<uint8_t> payload);
  void OnConnClosed(uint64_t bound_token);
  /// Runs `fn` on the region `rkey` names, under its apply mutex, or
  /// on nullptr when no region is registered under it.
  template <typename Fn>
  StatusCode WithSharedMr(uint32_t rkey, Fn&& fn);
  /// Worker-side chain responder: decodes and checks the descriptors,
  /// then steps every hop under its region's apply mutex, appending read
  /// payloads to `out`; `hops_done` reports how many hops ran.
  StatusCode ExecuteChain(const FrameHeader& hdr,
                          const std::vector<uint8_t>& payload,
                          std::vector<uint8_t>* out, uint64_t* hops_done);
  /// Answers a request that arrived on the stream of QP `qp_token`, and
  /// counts a protection error on that QP's NIC (the responder NIC).
  void Respond(const WorkerPool::ConnRef& conn, uint64_t qp_token,
               FrameType type, uint64_t op_token, StatusCode status,
               uint64_t aux, const std::vector<uint8_t>& data);

  // Loop-side continuations.
  void BindAcceptedConn(uint64_t qp_token, const WorkerPool::ConnRef& conn);
  void DeliverAck(uint64_t qp_token, uint64_t op_token, uint8_t status,
                  uint64_t aux, std::vector<uint8_t> payload);
  void HandleIncomingSend(uint64_t qp_token, const WorkerPool::ConnRef& conn,
                          uint64_t op_token, std::vector<uint8_t> payload);
  void NotifyRemoteWriteOnLoop(uint32_t rkey);
  void CountProtectionErrorOnLoop(uint64_t qp_token);
  void QpTransportClosed(uint64_t qp_token);

  WallClockDriver* driver_;
  Options options_;
  WorkerPool pool_;
  uint16_t port_ = 0;

  // Loop-thread state.
  uint32_t next_rkey_ = 1;
  uint64_t next_qp_token_ = 1;
  std::unordered_map<uint64_t, SocketQueuePair*> qp_registry_;

  // Worker-shared responder table.
  std::mutex mr_mu_;
  std::unordered_map<uint32_t, SharedMr> shared_mrs_;

  // Accepted streams by the QP token their kConnect named, from the
  // worker that parsed it until the loop binds them.
  std::mutex accept_mu_;
  std::unordered_map<uint64_t, WorkerPool::ConnRef> accepted_;
};

}  // namespace redy::transport

#endif  // REDY_TRANSPORT_SOCKET_FABRIC_H_
