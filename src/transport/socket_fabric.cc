#include "transport/socket_fabric.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "common/logging.h"
#include "rdma/responder.h"
#include "telemetry/telemetry.h"

namespace redy::transport {

namespace {

/// Dials host:port with a plain blocking socket. Connect() is a setup
/// path (the deterministic stack connects once per client/server pair),
/// so a synchronous dial keeps the verbs contract — Connect returns a
/// usable or broken QP, never a half-open one.
int DialBlocking(const std::string& host, uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return -1;
  }
  if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool WriteFully(int fd, const std::vector<uint8_t>& buf) {
  size_t off = 0;
  while (off < buf.size()) {
    // MSG_NOSIGNAL: a peer tearing down mid-write must surface as EPIPE,
    // not kill the process.
    const ssize_t n =
        ::send(fd, buf.data() + off, buf.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// SocketQueuePair

SocketQueuePair::SocketQueuePair(SocketNic* nic, uint32_t max_depth)
    : rdma::QueuePair(nic, max_depth), fab_(nic->socket_fabric()) {
  trace_id_ = fab_->NextQpTraceId();
  token_ = fab_->RegisterQp(this);
}

SocketQueuePair::SocketQueuePair(SocketNic* nic, std::string host,
                                 uint16_t port, uint64_t remote_token)
    : rdma::QueuePair(nic, 1),
      fab_(nic->socket_fabric()),
      remote_endpoint_(true),
      host_(std::move(host)),
      port_(port),
      remote_token_(remote_token) {}

SocketQueuePair::~SocketQueuePair() = default;

Status SocketQueuePair::Connect(rdma::QueuePair* peer) {
  if (broken_) return Status::Unavailable("QP is broken");
  if (connected_) return Status::FailedPrecondition("QP already connected");
  auto* sp = dynamic_cast<SocketQueuePair*>(peer);
  if (sp == nullptr) {
    return Status::InvalidArgument("peer is not a socket-backend QP");
  }
  std::string host;
  uint16_t port = 0;
  uint64_t target = 0;
  if (sp->remote_endpoint_) {
    host = sp->host_;
    port = sp->port_;
    target = sp->remote_token_;
  } else {
    // In-process peer: dial the fabric's own listener. Keep the peer
    // linkage so NIC failure breaks both ends, as on the simulated
    // fabric.
    host = fab_->listen_host();
    port = fab_->port();
    target = sp->token_;
    peer_ = sp;
    sp->peer_ = this;
  }
  const int fd = DialBlocking(host, port);
  if (fd < 0) return Status::Unavailable("dial failed");
  FrameHeader h;
  h.type = static_cast<uint8_t>(FrameType::kConnect);
  h.token = token_;
  h.aux = target;
  if (!WriteFully(fd, EncodeFrame(h, nullptr, 0))) {
    close(fd);
    return Status::Unavailable("connect handshake failed");
  }
  conn_ = fab_->pool().AddConnection(fd, token_);
  connected_ = true;
  return Status::OK();
}

Status SocketQueuePair::CheckSendable() {
  if (broken_) return Status::Unavailable("QP is broken");
  if (remote_endpoint_) {
    return Status::FailedPrecondition("cannot post on an endpoint descriptor");
  }
  if (conn_ == nullptr) {
    // A peer may have dialed us with the bind still in the loop's
    // mailbox, while its first requests already landed in our memory.
    if (WorkerPool::ConnRef accepted = fab_->TakeAcceptedConn(token_)) {
      OnAccepted(accepted);
    }
  }
  if (!connected_ || conn_ == nullptr) {
    return Status::FailedPrecondition("QP is not connected");
  }
  if (outstanding_ >= max_depth_) {
    return Status::ResourceExhausted("QP queue depth exceeded");
  }
  return Status::OK();
}

Status SocketQueuePair::PostWrite(uint64_t wr_id, const rdma::MemoryRegion* mr,
                                  uint64_t local_offset, rdma::RemoteKey key,
                                  uint64_t remote_offset, uint64_t len) {
  REDY_RETURN_IF_ERROR(CheckSendable());
  if (!mr->InBounds(local_offset, len)) {
    return Status::OutOfRange("local range outside region");
  }
  FrameHeader h;
  h.type = static_cast<uint8_t>(FrameType::kWrite);
  h.rkey = key.rkey;
  h.epoch = key.epoch;
  h.token = next_op_token_;
  h.offset = remote_offset;
  // Snapshot at post time (verbs semantics): the frame owns its bytes,
  // so the caller may scribble over the source immediately.
  auto buf = EncodeFrame(h, mr->data() + local_offset, len);
  PendingOp op;
  op.wr_id = wr_id;
  op.opcode = rdma::Opcode::kWrite;
  op.len = static_cast<uint32_t>(len);
  Park(std::move(op));
  fab_->pool().Send(conn_, std::move(buf));
  return Status::OK();
}

Status SocketQueuePair::PostRead(uint64_t wr_id, rdma::MemoryRegion* mr,
                                 uint64_t local_offset, rdma::RemoteKey key,
                                 uint64_t remote_offset, uint64_t len) {
  REDY_RETURN_IF_ERROR(CheckSendable());
  if (!mr->InBounds(local_offset, len)) {
    return Status::OutOfRange("local range outside region");
  }
  FrameHeader h;
  h.type = static_cast<uint8_t>(FrameType::kRead);
  h.rkey = key.rkey;
  h.epoch = key.epoch;
  h.token = next_op_token_;
  h.offset = remote_offset;
  h.aux = len;
  PendingOp op;
  op.wr_id = wr_id;
  op.opcode = rdma::Opcode::kRead;
  op.mr = mr;
  op.local_offset = local_offset;
  op.len = static_cast<uint32_t>(len);
  Park(std::move(op));
  fab_->pool().Send(conn_, EncodeFrame(h, nullptr, 0));
  return Status::OK();
}

Status SocketQueuePair::PostSend(uint64_t wr_id, const rdma::MemoryRegion* mr,
                                 uint64_t local_offset, uint64_t len) {
  REDY_RETURN_IF_ERROR(CheckSendable());
  if (!mr->InBounds(local_offset, len)) {
    return Status::OutOfRange("local range outside region");
  }
  FrameHeader h;
  h.type = static_cast<uint8_t>(FrameType::kSend);
  h.token = next_op_token_;
  auto buf = EncodeFrame(h, mr->data() + local_offset, len);
  PendingOp op;
  op.wr_id = wr_id;
  op.opcode = rdma::Opcode::kSend;
  op.len = static_cast<uint32_t>(len);
  Park(std::move(op));
  fab_->pool().Send(conn_, std::move(buf));
  return Status::OK();
}

Status SocketQueuePair::PostChain(uint64_t wr_id, rdma::MemoryRegion* mr,
                                  const rdma::ChainHop* hops,
                                  uint32_t num_hops) {
  REDY_RETURN_IF_ERROR(CheckSendable());
  REDY_RETURN_IF_ERROR(rdma::ValidateChainShape(hops, num_hops));
  // Validate and size first; then assemble the one request frame (all
  // descriptors, then the write hops' payloads) in place.
  uint64_t write_bytes = 0;
  for (uint32_t i = 0; i < num_hops; i++) {
    const rdma::ChainHop& h = hops[i];
    if (!mr->InBounds(h.local_offset, h.len)) {
      return Status::OutOfRange("chain hop local range outside region");
    }
    if (h.is_write) write_bytes += h.len;
  }
  FrameHeader fh;
  fh.type = static_cast<uint8_t>(FrameType::kChain);
  fh.token = next_op_token_;
  fh.aux = num_hops;
  std::vector<uint8_t> buf =
      NewFrame(fh, num_hops * sizeof(ChainHopWire) + write_bytes);
  uint8_t* desc = buf.data() + sizeof(FrameHeader);
  uint8_t* wpay = desc + num_hops * sizeof(ChainHopWire);
  PendingOp op;
  op.wr_id = wr_id;
  op.opcode = rdma::Opcode::kChain;
  op.mr = mr;
  op.num_hops = num_hops;
  std::copy(hops, hops + num_hops, op.hops.begin());
  for (uint32_t i = 0; i < num_hops; i++) {
    const rdma::ChainHop& h = hops[i];
    ChainHopWire w;
    w.rkey = h.key.rkey;
    w.epoch = h.key.epoch;
    w.remote_offset = h.remote_offset;
    w.local_offset = h.local_offset;
    w.len = h.len;
    w.addr_mask = h.addr_mask;
    w.addr_shift = h.addr_shift;
    if (h.addr_from_prev) w.flags |= ChainHopWire::kAddrFromPrev;
    if (h.is_write) {
      // Write-hop payloads snapshot at post time, like every other post.
      w.flags |= ChainHopWire::kIsWrite;
      std::memcpy(wpay, mr->data() + h.local_offset, h.len);
      wpay += h.len;
    } else {
      op.len += static_cast<uint32_t>(h.len);
    }
    std::memcpy(desc + i * sizeof(ChainHopWire), &w, sizeof(w));
  }
  // The responder executes the chain worker-side (ExecuteChain) and
  // answers with one kChainResp, so the wire sees one request/one
  // response.
  Park(std::move(op));
  nic()->CountChainPosted();
  fab_->pool().Send(conn_, std::move(buf));
  return Status::OK();
}

void SocketQueuePair::Park(PendingOp op) {
  pending_.push_back(std::move(op));
  next_op_token_++;
  outstanding_++;
  nic()->CountWqePosted();
}

void SocketQueuePair::CompleteOp(uint64_t op_token, StatusCode status,
                                 uint64_t aux, std::vector<uint8_t> payload) {
  const uint64_t head = next_op_token_ - pending_.size();
  if (op_token < head || op_token >= next_op_token_) {
    return;  // already flushed by Break()
  }
  PendingOp& op = pending_[op_token - head];
  op.acked = true;
  op.status = status;
  op.aux = aux;
  op.payload = std::move(payload);
  while (!pending_.empty() && pending_.front().acked) {
    Retire(pending_.front());
    pending_.pop_front();
  }
}

void SocketQueuePair::Retire(PendingOp& op) {
  rdma::WorkCompletion wc{op.wr_id, op.opcode, op.status, op.len,
                          nic()->sim()->Now()};
  const std::vector<uint8_t>& payload = op.payload;
  const bool lands = op.opcode == rdma::Opcode::kRead ||
                     op.opcode == rdma::Opcode::kChain;
  if (lands && wc.status == StatusCode::kOk && payload.size() != op.len) {
    wc.status = StatusCode::kAborted;
  }
  if (op.opcode == rdma::Opcode::kRead && wc.status == StatusCode::kOk) {
    std::memcpy(op.mr->data() + op.local_offset, payload.data(), op.len);
  }
  if (op.opcode == rdma::Opcode::kChain) {
    // Mirror the sim's counter placement: hops/aborts accrue on the
    // initiator NIC. `aux` is the responder's executed-hop count.
    for (uint64_t i = 0; i < op.aux; i++) nic()->CountChainHop();
    if (wc.status == StatusCode::kOk) {
      rdma::ScatterChainReads(op.mr, op.hops.data(), op.num_hops,
                              payload.data());
    } else {
      // A poisoned chain lands nothing: one error completion, zero
      // bytes (the responder never shipped any payload past the fault).
      wc.byte_len = 0;
      nic()->CountChainAborted();
    }
  }
  outstanding_--;
  nic()->CountWqeCompleted(wc.status == StatusCode::kOk);
  send_cq_.Push(wc);
}

void SocketQueuePair::Break() {
  if (broken_) return;
  broken_ = true;
  connected_ = false;
  // Flush in post order (the ring's order), mirroring the simulated
  // sequencer's in-order error flush.
  for (size_t i = 0; i < pending_.size(); i++) {
    const PendingOp& op = pending_[i];
    outstanding_--;
    nic()->CountWqeCompleted(false);
    // A failed chain lands nothing, so it reports no bytes.
    const uint32_t byte_len = op.opcode == rdma::Opcode::kChain ? 0 : op.len;
    send_cq_.Push(rdma::WorkCompletion{op.wr_id, op.opcode,
                                       StatusCode::kUnavailable, byte_len,
                                       nic()->sim()->Now()});
  }
  pending_.clear();
  // Async error doorbell so a parked poller re-sweeps and sees broken().
  send_cq_.Notify();
  if (conn_ != nullptr) {
    fab_->pool().Close(conn_);
    conn_.reset();
  }
}

void SocketQueuePair::OnAccepted(const WorkerPool::ConnRef& conn) {
  if (conn_ == conn) return;  // adopted early by a post
  if (broken_ || conn_ != nullptr) {
    fab_->pool().Close(conn);
    return;
  }
  conn_ = conn;
  connected_ = true;
}

void SocketQueuePair::OnTransportClosed() {
  conn_.reset();
  if (!broken_) Break();
}

// ---------------------------------------------------------------------------
// SocketNic

SocketNic::SocketNic(sim::Simulation* sim, SocketFabric* fabric,
                     net::ServerId server)
    : rdma::Nic(sim, fabric, server), fab_(fabric) {}

SocketNic::~SocketNic() {
  // Pull our regions out of the responder table before their storage
  // goes away. The fabric stops the worker pool before destroying NICs,
  // so this is belt-and-braces for NICs torn down mid-run.
  for (const auto& [rkey, mr] : regions_) fab_->RemoveSharedMr(rkey);
}

rdma::MemoryRegion* SocketNic::RegisterMemory(uint64_t bytes) {
  const uint32_t key = fab_->AllocRkey();
  auto mr = std::make_unique<rdma::MemoryRegion>(this, bytes, key, key);
  rdma::MemoryRegion* out = mr.get();
  regions_.emplace(key, std::move(mr));
  registered_bytes_ += bytes;
  fab_->AddSharedMr(key, out);
  return out;
}

void SocketNic::DeregisterMemory(rdma::MemoryRegion* mr) {
  if (mr == nullptr) return;
  const uint32_t key = mr->remote_key().rkey;
  auto it = regions_.find(key);
  if (it == regions_.end()) return;
  // Order matters: first fence new lookups and drain in-flight applies,
  // then invalidate. A responder either resolved before the erase (and
  // finishes under the apply mutex against still-owned storage) or
  // fails the lookup.
  fab_->RemoveSharedMr(key);
  mr->Invalidate();
  registered_bytes_ -= mr->size();
  // Unlike the simulated NIC's grace-window queue, retain the storage
  // for the NIC's lifetime: a worker that resolved before the erase may
  // still be touching the bytes, and region churn is not a hot path.
  retained_mrs_.push_back(std::move(it->second));
  regions_.erase(it);
}

rdma::QueuePair* SocketNic::CreateQueuePair(uint32_t max_depth) {
  max_depth = std::min(max_depth, params().max_queue_depth);
  auto qp = std::make_unique<SocketQueuePair>(this, max_depth);
  rdma::QueuePair* out = qp.get();
  qps_.push_back(out);
  owned_qps_.push_back(std::move(qp));
  return out;
}

void SocketNic::DestroyQueuePair(rdma::QueuePair* qp) {
  if (qp == nullptr) return;
  auto* sqp = dynamic_cast<SocketQueuePair*>(qp);
  REDY_CHECK(sqp != nullptr);
  if (qp->peer() != nullptr) qp->peer()->Break();
  qp->Break();
  if (sqp->token() != 0) fab_->UnregisterQp(sqp->token());
  qps_.erase(std::remove(qps_.begin(), qps_.end(), qp), qps_.end());
  for (auto it = owned_qps_.begin(); it != owned_qps_.end(); ++it) {
    if (it->get() == qp) {
      owned_qps_.erase(it);
      break;
    }
  }
}

void SocketNic::Fail() {
  if (failed_) return;
  failed_ = true;
  const std::vector<rdma::QueuePair*> qps = qps_;
  for (rdma::QueuePair* qp : qps) {
    if (qp->peer() != nullptr) qp->peer()->Break();
    qp->Break();
  }
  for (const auto& [rkey, mr] : regions_) {
    fab_->RemoveSharedMr(rkey);
    mr->Invalidate();
  }
}

SocketQueuePair* SocketNic::CreateRemoteEndpoint(std::string host,
                                                 uint16_t port,
                                                 uint64_t remote_token) {
  auto qp = std::make_unique<SocketQueuePair>(this, std::move(host), port,
                                              remote_token);
  SocketQueuePair* out = qp.get();
  owned_qps_.push_back(std::move(qp));
  return out;
}

// ---------------------------------------------------------------------------
// SocketFabric

SocketFabric::SocketFabric(sim::Simulation* sim, WallClockDriver* driver,
                           net::Topology topology, net::FabricParams params,
                           Options options)
    : rdma::Fabric(sim, std::move(topology), params),
      driver_(driver),
      options_(std::move(options)),
      pool_(options_.workers) {
  // One listening socket carries every QP of every NIC in this process;
  // the kConnect frame routes each accepted stream to its QP token.
  const int lfd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  REDY_CHECK(lfd >= 0);
  int one = 1;
  setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  REDY_CHECK(inet_pton(AF_INET, options_.listen_host.c_str(),
                       &addr.sin_addr) == 1);
  REDY_CHECK(bind(lfd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) == 0);
  REDY_CHECK(listen(lfd, 128) == 0);
  socklen_t alen = sizeof(addr);
  REDY_CHECK(getsockname(lfd, reinterpret_cast<struct sockaddr*>(&addr),
                         &alen) == 0);
  port_ = ntohs(addr.sin_port);

  WorkerPool::Handlers handlers;
  handlers.on_frame = [this](const WorkerPool::ConnRef& conn, uint64_t bound,
                             const FrameHeader& hdr,
                             std::vector<uint8_t> payload) {
    OnFrame(conn, bound, hdr, std::move(payload));
  };
  handlers.on_close = [this](uint64_t bound) { OnConnClosed(bound); };
  pool_.Start(std::move(handlers));
  pool_.AddListener(lfd, [this](int fd) {
    // Accepted streams bind their QP token on the first kConnect frame.
    pool_.AddConnection(fd, 0);
  });
}

SocketFabric::~SocketFabric() {
  ShutdownTransport();
  // The NICs reach back into this fabric's responder table as they go,
  // so they must go while it is still a SocketFabric.
  nics_.clear();
}

void SocketFabric::ShutdownTransport() { pool_.Stop(); }

rdma::Nic* SocketFabric::NicAt(net::ServerId server) {
  auto it = nics_.find(server);
  if (it != nics_.end()) return it->second.get();
  auto nic = std::make_unique<SocketNic>(sim_, this, server);
  rdma::Nic* out = nic.get();
  nics_.emplace(server, std::move(nic));
  return out;
}

void SocketFabric::set_telemetry(telemetry::Telemetry* telemetry) {
  rdma::Fabric::set_telemetry(telemetry);
  pool_.set_command_counter(
      telemetry == nullptr
          ? nullptr
          : telemetry->metrics().GetCounter(
                "transport.worker_commands_enqueued"));
}

uint64_t SocketFabric::RegisterQp(SocketQueuePair* qp) {
  const uint64_t token = next_qp_token_++;
  qp_registry_.emplace(token, qp);
  return token;
}

void SocketFabric::UnregisterQp(uint64_t token) { qp_registry_.erase(token); }

void SocketFabric::AddSharedMr(uint32_t rkey, rdma::MemoryRegion* mr) {
  std::lock_guard<std::mutex> lk(mr_mu_);
  shared_mrs_.emplace(rkey, SharedMr{mr, std::make_shared<std::mutex>()});
}

void SocketFabric::RemoveSharedMr(uint32_t rkey) {
  std::shared_ptr<std::mutex> apply_mu;
  {
    std::lock_guard<std::mutex> lk(mr_mu_);
    auto it = shared_mrs_.find(rkey);
    if (it == shared_mrs_.end()) return;
    apply_mu = it->second.apply_mu;
    shared_mrs_.erase(it);
  }
  // Quiesce: any responder that looked up this rkey before the erase
  // holds the apply mutex while touching the region; taking it once
  // guarantees those applies have finished.
  std::lock_guard<std::mutex> drain(*apply_mu);
}

bool SocketFabric::LookupSharedMr(uint32_t rkey, SharedMr* out) {
  std::lock_guard<std::mutex> lk(mr_mu_);
  auto it = shared_mrs_.find(rkey);
  if (it == shared_mrs_.end()) return false;
  *out = it->second;
  return true;
}

void SocketFabric::OnFrame(const WorkerPool::ConnRef& conn,
                           uint64_t bound_token,
                           const FrameHeader& hdr,
                           std::vector<uint8_t> payload) {
  switch (static_cast<FrameType>(hdr.type)) {
    case FrameType::kConnect: {
      // Published before this worker parses (and the responder applies)
      // anything behind the kConnect, so a QP that sees the peer's
      // first request can adopt its stream ahead of the bind below.
      {
        std::lock_guard<std::mutex> lk(accept_mu_);
        accepted_[hdr.aux] = conn;
      }
      driver_->Post([this, token = hdr.aux, conn] {
        BindAcceptedConn(token, conn);
      });
      return;
    }
    case FrameType::kWrite: {
      // The one-sided responder path: fence + deposit right here on the
      // worker. The application loop never sees the op (DESIGN.md §13).
      const StatusCode status =
          WithSharedMr(hdr.rkey, [&](rdma::MemoryRegion* mr) {
            const StatusCode code =
                rdma::CheckAccess(mr, {hdr.rkey, hdr.epoch},
                                  rdma::AccessKind::kWrite, hdr.offset,
                                  payload.size());
            if (code == StatusCode::kOk) {
              rdma::Deposit(mr, hdr.offset, payload.data(), payload.size());
              driver_->Post(
                  [this, rkey = hdr.rkey] { NotifyRemoteWriteOnLoop(rkey); });
            }
            return code;
          });
      Respond(conn, bound_token, FrameType::kWriteAck, hdr.token, status, 0,
              {});
      return;
    }
    case FrameType::kRead: {
      std::vector<uint8_t> data;
      const StatusCode status =
          WithSharedMr(hdr.rkey, [&](rdma::MemoryRegion* mr) {
            const StatusCode code =
                rdma::CheckAccess(mr, {hdr.rkey, hdr.epoch},
                                  rdma::AccessKind::kRead, hdr.offset, hdr.aux);
            if (code == StatusCode::kOk) {
              data.assign(mr->data() + hdr.offset,
                          mr->data() + hdr.offset + hdr.aux);
            }
            return code;
          });
      Respond(conn, bound_token, FrameType::kReadResp, hdr.token, status,
              data.size(), data);
      return;
    }
    case FrameType::kSend: {
      // Two-sided: receive matching touches the QP's posted-recv deque,
      // which is loop state; the ack is sent from the loop continuation.
      driver_->Post([this, bound_token, conn, token = hdr.token,
                     p = std::move(payload)]() mutable {
        HandleIncomingSend(bound_token, conn, token, std::move(p));
      });
      return;
    }
    case FrameType::kChain: {
      // Chain responder: the epoll worker runs every hop server-side,
      // so a multi-op dependent sequence costs the client one doorbell
      // and one wire round trip (DESIGN.md §15).
      std::vector<uint8_t> data;
      uint64_t hops_done = 0;
      const StatusCode status = ExecuteChain(hdr, payload, &data, &hops_done);
      Respond(conn, bound_token, FrameType::kChainResp, hdr.token, status,
              hops_done, data);
      return;
    }
    case FrameType::kWriteAck:
    case FrameType::kReadResp:
    case FrameType::kSendAck:
    case FrameType::kChainResp: {
      driver_->Post([this, bound_token, token = hdr.token,
                     status = hdr.status, aux = hdr.aux,
                     p = std::move(payload)]() mutable {
        DeliverAck(bound_token, token, status, aux, std::move(p));
      });
      return;
    }
  }
  pool_.Close(conn);  // unknown frame type: protocol violation
}

void SocketFabric::OnConnClosed(uint64_t bound_token) {
  if (bound_token == 0) return;
  driver_->Post([this, bound_token] { QpTransportClosed(bound_token); });
}

template <typename Fn>
StatusCode SocketFabric::WithSharedMr(uint32_t rkey, Fn&& fn) {
  SharedMr smr;
  if (!LookupSharedMr(rkey, &smr)) return fn(nullptr);
  std::lock_guard<std::mutex> lk(*smr.apply_mu);
  return fn(smr.mr);
}

StatusCode SocketFabric::ExecuteChain(const FrameHeader& hdr,
                                      const std::vector<uint8_t>& payload,
                                      std::vector<uint8_t>* out,
                                      uint64_t* hops_done) {
  // The peer may be another process: decode the descriptors onto the
  // stack and hold them to the rules a local PostChain enforces.
  rdma::ChainHop hops[rdma::kMaxChainHops];
  const uint64_t decoded = std::min<uint64_t>(hdr.aux, rdma::kMaxChainHops);
  const uint64_t desc_bytes = decoded * sizeof(ChainHopWire);
  if (payload.size() < desc_bytes) return StatusCode::kInvalidArgument;
  uint64_t write_bytes = 0;
  for (uint64_t i = 0; i < decoded; i++) {
    ChainHopWire w;
    std::memcpy(&w, payload.data() + i * sizeof(w), sizeof(w));
    rdma::ChainHop& h = hops[i];
    h.key = {w.rkey, w.epoch};
    h.remote_offset = w.remote_offset;
    h.local_offset = w.local_offset;
    h.len = w.len;
    h.addr_mask = w.addr_mask;
    h.addr_shift = w.addr_shift;
    h.addr_from_prev = (w.flags & ChainHopWire::kAddrFromPrev) != 0;
    h.is_write = (w.flags & ChainHopWire::kIsWrite) != 0;
    if (h.is_write) {
      if (h.len > payload.size() - write_bytes) {
        return StatusCode::kInvalidArgument;
      }
      write_bytes += h.len;
    }
  }
  if (!rdma::ValidateChainShape(hops, hdr.aux).ok() ||
      payload.size() != desc_bytes + write_bytes) {
    return StatusCode::kInvalidArgument;
  }
  rdma::ChainCursor cursor(hops, static_cast<uint32_t>(decoded),
                           payload.data() + desc_bytes);
  StatusCode status = StatusCode::kOk;
  while (status == StatusCode::kOk && !cursor.done()) {
    const rdma::ChainHop& h = cursor.next();
    status = WithSharedMr(h.key.rkey, [&](rdma::MemoryRegion* mr) {
      const StatusCode code = cursor.Step(mr, out);
      if (code == StatusCode::kOk && h.is_write) {
        driver_->Post([this, rkey = h.key.rkey] {
          NotifyRemoteWriteOnLoop(rkey);
        });
      }
      return code;
    });
  }
  *hops_done = cursor.hops_done();
  if (status != StatusCode::kOk) out->clear();  // an abort ships nothing
  return status;
}

void SocketFabric::Respond(const WorkerPool::ConnRef& conn, uint64_t qp_token,
                           FrameType type, uint64_t op_token,
                           StatusCode status, uint64_t aux,
                           const std::vector<uint8_t>& data) {
  if (status == StatusCode::kProtectionError) {
    // Telemetry counters hang off loop-built NIC state.
    driver_->Post([this, qp_token] { CountProtectionErrorOnLoop(qp_token); });
  }
  FrameHeader resp;
  resp.type = static_cast<uint8_t>(type);
  resp.status = static_cast<uint8_t>(status);
  resp.token = op_token;
  resp.aux = aux;
  pool_.Send(conn, EncodeFrame(resp, data.data(), data.size()));
}

WorkerPool::ConnRef SocketFabric::TakeAcceptedConn(uint64_t qp_token) {
  std::lock_guard<std::mutex> lk(accept_mu_);
  auto it = accepted_.find(qp_token);
  if (it == accepted_.end()) return nullptr;
  WorkerPool::ConnRef conn = std::move(it->second);
  accepted_.erase(it);
  return conn;
}

void SocketFabric::BindAcceptedConn(uint64_t qp_token,
                                    const WorkerPool::ConnRef& conn) {
  {
    std::lock_guard<std::mutex> lk(accept_mu_);
    auto at = accepted_.find(qp_token);
    if (at != accepted_.end() && at->second == conn) accepted_.erase(at);
  }
  auto it = qp_registry_.find(qp_token);
  if (it == qp_registry_.end()) {
    pool_.Close(conn);
    return;
  }
  it->second->OnAccepted(conn);
}

void SocketFabric::DeliverAck(uint64_t qp_token, uint64_t op_token,
                              uint8_t status, uint64_t aux,
                              std::vector<uint8_t> payload) {
  auto it = qp_registry_.find(qp_token);
  if (it == qp_registry_.end()) return;
  it->second->CompleteOp(op_token, static_cast<StatusCode>(status), aux,
                         std::move(payload));
}

void SocketFabric::HandleIncomingSend(uint64_t qp_token,
                                      const WorkerPool::ConnRef& conn,
                                      uint64_t op_token,
                                      std::vector<uint8_t> payload) {
  StatusCode status = StatusCode::kUnavailable;
  auto it = qp_registry_.find(qp_token);
  if (it != qp_registry_.end() && !it->second->broken()) {
    status = it->second->AcceptSend(payload.data(), payload.size());
  }
  Respond(conn, qp_token, FrameType::kSendAck, op_token, status, 0, {});
}

void SocketFabric::NotifyRemoteWriteOnLoop(uint32_t rkey) {
  rdma::MemoryRegion* mr = nullptr;
  {
    std::lock_guard<std::mutex> lk(mr_mu_);
    auto it = shared_mrs_.find(rkey);
    if (it == shared_mrs_.end()) return;
    mr = it->second.mr;
  }
  // Loop thread; notifier installation/teardown is loop-side too.
  mr->NotifyRemoteWrite();
}

void SocketFabric::CountProtectionErrorOnLoop(uint64_t qp_token) {
  auto it = qp_registry_.find(qp_token);
  if (it != qp_registry_.end()) it->second->nic()->CountProtectionError();
}

void SocketFabric::QpTransportClosed(uint64_t qp_token) {
  auto it = qp_registry_.find(qp_token);
  if (it == qp_registry_.end()) return;
  it->second->OnTransportClosed();
}

}  // namespace redy::transport
