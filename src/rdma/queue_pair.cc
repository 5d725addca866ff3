#include "rdma/queue_pair.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "rdma/nic.h"
#include "telemetry/telemetry.h"

namespace redy::rdma {

QueuePair::QueuePair(Nic* nic, uint32_t max_depth)
    : nic_(nic), max_depth_(max_depth) {
  // The sequencer window (sequenced-but-undelivered ops) is bounded by
  // the queue depth: an op occupies its outstanding_ slot from post
  // until its delivery event fires, and every undelivered seq still
  // counts there. A power-of-two ring of that size replaces the old
  // std::map node allocation per completion.
  size_t cap = 16;
  while (cap < max_depth_) cap <<= 1;
  ready_.resize(cap);
}

telemetry::SpanTracer* QueuePair::ActiveTracer() const {
  telemetry::Telemetry* tel = nic_->fabric()->telemetry();
  if (tel == nullptr || !tel->tracer().enabled()) return nullptr;
  return &tel->tracer();
}

uint32_t QueuePair::TraceTrack(telemetry::SpanTracer& tracer) {
  if (trace_track_ == 0) {
    char name[48];
    std::snprintf(name, sizeof(name), "qp %llu srv %u",
                  static_cast<unsigned long long>(trace_id_),
                  static_cast<unsigned>(nic_->server()));
    trace_track_ = tracer.NewTrack("rdma", name);
  }
  return trace_track_;
}

Status QueuePair::Connect(QueuePair* peer) {
  if (peer == nullptr || peer == this) {
    return Status::InvalidArgument("bad peer");
  }
  if (peer_ != nullptr || peer->peer_ != nullptr) {
    return Status::FailedPrecondition("QP already connected");
  }
  peer_ = peer;
  peer->peer_ = this;
  return Status::OK();
}

Status QueuePair::CheckPostable() const {
  if (broken_) return Status::Unavailable("QP broken");
  if (peer_ == nullptr) return Status::FailedPrecondition("QP not connected");
  if (outstanding_ >= max_depth_) {
    return Status::ResourceExhausted("QP at queue depth");
  }
  return Status::OK();
}

sim::SimTime QueuePair::IssueSlot(sim::SimTime earliest) {
  const sim::SimTime slot = std::max(earliest, next_issue_);
  next_issue_ = slot + nic_->params().wqe_issue_gap_ns;
  return slot;
}

QueuePair::Request QueuePair::StartRequest(bool fetch, uint64_t wire_bytes) {
  outstanding_++;
  Request r{};
  r.seq = next_post_seq_++;
  // Fault injection: a doomed WQE travels normally but completes with a
  // transport error; degraded links add one-way latency.
  FaultHooks* hooks = nic_->fabric()->fault_hooks();
  const net::ServerId src = nic_->server();
  const net::ServerId dst = peer_->nic_->server();
  r.doomed = hooks != nullptr && hooks->WqeError(src, dst);
  const uint64_t extra_ns =
      hooks == nullptr ? 0 : hooks->ExtraLatencyNs(src, dst);
  r.issue = IssueSlot(nic_->sim()->Now());
  r.fetch_done = r.issue + (fetch ? nic_->params().pcie_fetch_ns : 0);
  r.wire_end = nic_->tx_link().Reserve(r.fetch_done, wire_bytes);
  r.arrive = r.wire_end + nic_->fabric()->OneWayNs(src, dst) + extra_ns;
  nic_->CountWqePosted();
  return r;
}

void QueuePair::Complete(uint64_t seq, WorkCompletion wc, sim::SimTime t) {
  REDY_CHECK(seq - next_deliver_seq_ < ready_.size());
  ReadySlot& slot = ready_[seq & (ready_.size() - 1)];
  REDY_CHECK(!slot.used);
  slot.wc = wc;
  slot.t = t;
  slot.used = true;
  DeliverReady();
}

void QueuePair::DeliverReady() {
  // Release completions strictly in post order. A completion whose
  // simulated finish time precedes an earlier op's is held back and
  // delivered at the earlier op's time, exactly like an RC QP.
  while (true) {
    ReadySlot& slot = ready_[next_deliver_seq_ & (ready_.size() - 1)];
    if (!slot.used) return;
    WorkCompletion wc = slot.wc;
    sim::SimTime t = slot.t;
    slot.used = false;
    next_deliver_seq_++;
    t = std::max(t, last_completion_);
    // Injected gray failure: a stalled NIC (either endpoint) holds its
    // completions until the stall window closes.
    t = nic_->ReleaseTime(t);
    if (peer_ != nullptr) t = peer_->nic_->ReleaseTime(t);
    last_completion_ = t;
    nic_->CountWqeCompleted(wc.status == StatusCode::kOk);
    if (telemetry::SpanTracer* tr = ActiveTracer()) {
      // Recorded now (deterministically), stamped with the delivery
      // time the sequencer just fixed.
      tr->Instant(TraceTrack(*tr), "completion", "wqe", t,
                  {"wr_id", wc.wr_id},
                  {"status", static_cast<uint64_t>(wc.status)});
    }
    auto deliver = [this, wc, t]() mutable {
      wc.completed_at = t;
      send_cq_.Push(wc);
      REDY_CHECK(outstanding_ > 0);
      outstanding_--;
    };
    // Completion delivery runs once per WQE: it must never fall back to
    // a heap-allocated callback.
    static_assert(sim::Simulation::Callback::fits_inline<decltype(deliver)>(),
                  "QP completion-delivery lambda must stay inline");
    nic_->sim()->At(t, std::move(deliver));
  }
}

uint64_t QueuePair::PostCostNs(uint64_t inline_bytes) const {
  // Doorbell plus copying an inlined payload into the WQE (~4 B/ns).
  return nic_->params().nic_post_ns + inline_bytes / 4;
}

Status QueuePair::PostWrite(uint64_t wr_id, const MemoryRegion* mr,
                            uint64_t local_offset, RemoteKey key,
                            uint64_t remote_offset, uint64_t len) {
  REDY_RETURN_IF_ERROR(CheckPostable());
  if (!mr->InBounds(local_offset, len)) {
    return Status::OutOfRange("local write source out of bounds");
  }
  sim::Simulation* sim = nic_->sim();
  const bool inlined = len <= nic_->params().inline_threshold_bytes;
  // The per-QP pipeline is computed at post time so stages stay FIFO:
  // issue -> (PCIe fetch) -> wire serialization -> propagation -> DMA.
  const Request r = StartRequest(!inlined, len);
  const sim::SimTime landed = r.arrive + nic_->params().nic_remote_dma_ns;

  // WQE lifecycle trace: the whole pipeline is known at post time, so
  // the span and its stage children are recorded here with their
  // precomputed timestamps (doorbell -> DMA fetch -> wire -> landed).
  if (telemetry::SpanTracer* tr = ActiveTracer()) {
    const uint32_t tk = TraceTrack(*tr);
    const uint64_t span = tr->NextId();
    tr->Instant(tk, "doorbell", "wqe", sim->Now(), {"wr_id", wr_id});
    tr->AsyncBegin(tk, "write", "wqe", span, r.issue, {"wr_id", wr_id},
                   {"len", len});
    if (!inlined) {
      tr->AsyncBegin(tk, "dma_fetch", "wqe", span, r.issue);
      tr->AsyncEnd(tk, "dma_fetch", "wqe", span, r.fetch_done);
    }
    tr->AsyncBegin(tk, "wire", "wqe", span, r.fetch_done);
    tr->AsyncEnd(tk, "wire", "wqe", span, r.wire_end);
    tr->AsyncEnd(tk, "write", "wqe", span, landed);
  }

  // Inline payloads snapshot at post time (real NICs copy them into the
  // WQE); non-inline payloads are fetched over PCIe at fetch_done. The
  // buffer comes from the per-QP pool and is released when the landing
  // event consumes it (the fetch event precedes the landing event, so a
  // raw pooled pointer needs no shared ownership).
  std::vector<uint8_t>* payload = AcquirePayload();
  if (inlined) {
    payload->assign(mr->data() + local_offset,
                    mr->data() + local_offset + len);
  } else {
    const uint8_t* fetch_src = mr->data() + local_offset;
    auto fetch = [payload, fetch_src, len] {
      payload->assign(fetch_src, fetch_src + len);
    };
    static_assert(sim::Simulation::Callback::fits_inline<decltype(fetch)>(),
                  "PCIe-fetch lambda must stay inline");
    sim->At(r.fetch_done, std::move(fetch));
  }

  auto land = [this, seq = r.seq, wr_id, key, doomed = r.doomed, remote_offset,
               len, payload]() {
    WorkCompletion wc{wr_id, Opcode::kWrite, StatusCode::kOk,
                      static_cast<uint32_t>(len), 0};
    if (doomed || broken_ || peer_ == nullptr || peer_->nic_->failed()) {
      wc.status = StatusCode::kUnavailable;
    } else {
      // The fence: a WRITE to a dropped region or under a revoked key
      // completes with kProtectionError before it deposits a byte.
      MemoryRegion* target = peer_->nic_->Resolve(key.rkey);
      wc.status =
          CheckAccess(target, key, AccessKind::kWrite, remote_offset, len);
      if (wc.status == StatusCode::kOk) {
        Deposit(target, remote_offset, payload->data(), len);
        target->NotifyRemoteWrite();
      } else if (wc.status == StatusCode::kProtectionError) {
        peer_->nic_->CountProtectionError();
      }
    }
    ReleasePayload(payload);
    const sim::SimTime back =
        nic_->sim()->Now() +
        nic_->fabric()->OneWayNs(nic_->server(), peer_->nic_->server());
    Complete(seq, wc, back);
  };
  static_assert(sim::Simulation::Callback::fits_inline<decltype(land)>(),
                "write-landing lambda must stay inline");
  sim->At(landed, std::move(land));
  return Status::OK();
}

Status QueuePair::PostRead(uint64_t wr_id, MemoryRegion* mr,
                           uint64_t local_offset, RemoteKey key,
                           uint64_t remote_offset, uint64_t len) {
  REDY_RETURN_IF_ERROR(CheckPostable());
  if (!mr->InBounds(local_offset, len)) {
    return Status::OutOfRange("local read destination out of bounds");
  }
  sim::Simulation* sim = nic_->sim();
  // Read request is header-only on the wire.
  const Request r = StartRequest(/*fetch=*/false, 0);

  // Request-side WQE trace; the response stages are recorded when the
  // request reaches the responder (they depend on its link state).
  uint64_t span = 0;
  if (telemetry::SpanTracer* tr = ActiveTracer()) {
    const uint32_t tk = TraceTrack(*tr);
    span = tr->NextId();
    tr->Instant(tk, "doorbell", "wqe", sim->Now(), {"wr_id", wr_id});
    tr->AsyncBegin(tk, "read", "wqe", span, r.issue, {"wr_id", wr_id},
                   {"len", len});
    tr->AsyncBegin(tk, "req_wire", "wqe", span, r.issue);
    tr->AsyncEnd(tk, "req_wire", "wqe", span, r.wire_end);
  }

  // The responder-arrival stage needs more context than the scheduler's
  // inline budget holds, so it travels as a pooled record and the event
  // captures three words.
  ReadOp* op = read_op_pool_.Acquire();
  *op = ReadOp{wr_id, mr, local_offset, key, remote_offset, len, span,
               r.doomed};
  auto arrive = [this, seq = r.seq, op]() {
    const uint64_t wr_id = op->wr_id;
    MemoryRegion* mr = op->mr;
    const uint64_t local_offset = op->local_offset;
    const RemoteKey key = op->key;
    const uint64_t remote_offset = op->remote_offset;
    const uint64_t len = op->len;
    const uint64_t span = op->span;
    const bool doomed = op->doomed;
    read_op_pool_.Release(op);

    const net::FabricParams& p = nic_->params();
    sim::Simulation* sim = nic_->sim();
    WorkCompletion wc{wr_id, Opcode::kRead, StatusCode::kOk,
                      static_cast<uint32_t>(len), 0};
    const uint64_t one_way =
        nic_->fabric()->OneWayNs(nic_->server(), peer_->nic_->server());
    auto end_read_span = [this, span](sim::SimTime ts) {
      if (span == 0) return;
      if (telemetry::SpanTracer* tr = ActiveTracer()) {
        tr->AsyncEnd(TraceTrack(*tr), "read", "wqe", span, ts);
      }
    };
    MemoryRegion* target = nullptr;
    if (doomed || broken_ || peer_ == nullptr || peer_->nic_->failed()) {
      wc.status = StatusCode::kUnavailable;
    } else {
      target = peer_->nic_->Resolve(key.rkey);
      wc.status =
          CheckAccess(target, key, AccessKind::kRead, remote_offset, len);
      if (wc.status == StatusCode::kProtectionError) {
        peer_->nic_->CountProtectionError();
      }
    }
    if (wc.status != StatusCode::kOk) {
      end_read_span(sim->Now());
      Complete(seq, wc, sim->Now() + one_way);
      return;
    }
    // Responder NIC fetches the data over PCIe, then serializes the
    // response on its own transmit link.
    std::vector<uint8_t>* payload = AcquirePayload();
    payload->assign(target->data() + remote_offset,
                    target->data() + remote_offset + len);
    FaultHooks* hooks = nic_->fabric()->fault_hooks();
    const uint64_t resp_extra =
        hooks == nullptr
            ? 0
            : hooks->ExtraLatencyNs(peer_->nic_->server(), nic_->server());
    const sim::SimTime fetch_done = sim->Now() + p.pcie_fetch_ns;
    const sim::SimTime resp_wire_end =
        peer_->nic_->tx_link().Reserve(fetch_done, len);
    const sim::SimTime landed =
        resp_wire_end + one_way + p.nic_remote_dma_ns + resp_extra;
    if (span != 0) {
      if (telemetry::SpanTracer* tr = ActiveTracer()) {
        const uint32_t tk = TraceTrack(*tr);
        tr->AsyncBegin(tk, "resp_fetch", "wqe", span, sim->Now());
        tr->AsyncEnd(tk, "resp_fetch", "wqe", span, fetch_done);
        tr->AsyncBegin(tk, "resp_wire", "wqe", span, fetch_done);
        tr->AsyncEnd(tk, "resp_wire", "wqe", span, resp_wire_end);
        tr->AsyncEnd(tk, "read", "wqe", span, landed);
      }
    }
    auto land = [this, seq, wr_id, mr, local_offset, len, payload]() {
      WorkCompletion wc{wr_id, Opcode::kRead, StatusCode::kOk,
                        static_cast<uint32_t>(len), 0};
      if (broken_) {
        wc.status = StatusCode::kUnavailable;
      } else {
        std::memcpy(mr->data() + local_offset, payload->data(), len);
      }
      ReleasePayload(payload);
      Complete(seq, wc, nic_->sim()->Now());
    };
    static_assert(sim::Simulation::Callback::fits_inline<decltype(land)>(),
                  "read-landing lambda must stay inline");
    sim->At(landed, std::move(land));
  };
  static_assert(sim::Simulation::Callback::fits_inline<decltype(arrive)>(),
                "read responder-arrival lambda must stay inline");
  sim->At(r.arrive, std::move(arrive));
  return Status::OK();
}

Status QueuePair::PostChain(uint64_t wr_id, MemoryRegion* mr,
                            const ChainHop* hops, uint32_t num_hops) {
  REDY_RETURN_IF_ERROR(CheckPostable());
  REDY_RETURN_IF_ERROR(ValidateChainShape(hops, num_hops));
  uint64_t write_bytes = 0;
  for (uint32_t i = 0; i < num_hops; i++) {
    const ChainHop& h = hops[i];
    if (!mr->InBounds(h.local_offset, h.len)) {
      return Status::OutOfRange("chain hop local range out of bounds");
    }
    if (h.is_write) write_bytes += h.len;
  }
  sim::Simulation* sim = nic_->sim();
  // One doorbell posts the whole chain: the request carries every hop
  // descriptor plus any write-hop payloads, then the responder NIC runs
  // the links locally. Client-side there is exactly one pipeline pass.
  const Request r = StartRequest(
      write_bytes > nic_->params().inline_threshold_bytes, write_bytes);
  nic_->CountChainPosted();
  uint64_t span = 0;
  if (telemetry::SpanTracer* tr = ActiveTracer()) {
    const uint32_t tk = TraceTrack(*tr);
    span = tr->NextId();
    tr->Instant(tk, "doorbell", "wqe", sim->Now(), {"wr_id", wr_id});
    tr->AsyncBegin(tk, "chain", "wqe", span, r.issue, {"wr_id", wr_id},
                   {"hops", num_hops});
    tr->AsyncBegin(tk, "req_wire", "wqe", span, r.fetch_done);
    tr->AsyncEnd(tk, "req_wire", "wqe", span, r.wire_end);
  }

  // Write-hop payloads snapshot at post time (inlined into the WQE
  // block or DMA-fetched by fetch_done, which precedes req_arrive), so
  // the responder-side steps never touch client memory.
  std::vector<uint8_t>* wpay = nullptr;
  if (write_bytes > 0) {
    wpay = AcquirePayload();
    wpay->clear();
    for (uint32_t i = 0; i < num_hops; i++) {
      const ChainHop& h = hops[i];
      if (!h.is_write) continue;
      wpay->insert(wpay->end(), mr->data() + h.local_offset,
                   mr->data() + h.local_offset + h.len);
    }
  }

  ChainOp* op = chain_op_pool_.Acquire();
  op->wr_id = wr_id;
  op->mr = mr;
  std::copy(hops, hops + num_hops, op->hops);
  op->num_hops = num_hops;
  op->cursor =
      ChainCursor(op->hops, num_hops, wpay == nullptr ? nullptr : wpay->data());
  op->span = span;
  op->doomed = r.doomed;
  op->rpay = AcquirePayload();
  op->rpay->clear();
  op->wpay = wpay;

  auto arrive = [this, seq = r.seq, op]() { ChainStep(seq, op); };
  static_assert(sim::Simulation::Callback::fits_inline<decltype(arrive)>(),
                "chain responder-arrival lambda must stay inline");
  sim->At(r.arrive, std::move(arrive));
  return Status::OK();
}

void QueuePair::ReleaseChainOp(ChainOp* op) {
  ReleasePayload(op->rpay);
  if (op->wpay != nullptr) ReleasePayload(op->wpay);
  chain_op_pool_.Release(op);
}

void QueuePair::ChainAbort(uint64_t seq, ChainOp* op, StatusCode code) {
  // A poisoned chain delivers exactly ONE error completion for the
  // whole doorbell: the remaining hops never execute, no read payload
  // lands locally (byte_len 0), and no later write hop touches remote
  // memory — zero bytes move past the fence.
  nic_->CountChainAborted();
  sim::Simulation* sim = nic_->sim();
  if (op->span != 0) {
    if (telemetry::SpanTracer* tr = ActiveTracer()) {
      tr->AsyncEnd(TraceTrack(*tr), "chain", "wqe", op->span, sim->Now());
    }
  }
  WorkCompletion wc{op->wr_id, Opcode::kChain, code, 0, 0};
  const sim::SimTime back =
      sim->Now() +
      nic_->fabric()->OneWayNs(nic_->server(), peer_->nic_->server());
  ReleaseChainOp(op);
  Complete(seq, wc, back);
}

void QueuePair::ChainStep(uint64_t seq, ChainOp* op) {
  const net::FabricParams& p = nic_->params();
  sim::Simulation* sim = nic_->sim();
  FaultHooks* hooks = nic_->fabric()->fault_hooks();

  if (op->doomed || broken_ || peer_ == nullptr || peer_->nic_->failed()) {
    ChainAbort(seq, op, StatusCode::kUnavailable);
    return;
  }
  // Each WAIT-gate re-consults the fault hooks: a link flap that opens
  // after hop N kills hop N+1 mid-chain (hop 0 is covered by the
  // post-time `doomed` roll, exactly like a plain READ).
  const uint32_t hop = op->cursor.hops_done();
  if (hop > 0 && hooks != nullptr &&
      hooks->WqeError(nic_->server(), peer_->nic_->server())) {
    ChainAbort(seq, op, StatusCode::kUnavailable);
    return;
  }

  const ChainHop& h = op->cursor.next();
  MemoryRegion* target = peer_->nic_->Resolve(h.key.rkey);
  const StatusCode code = op->cursor.Step(target, op->rpay);
  if (code != StatusCode::kOk) {
    if (code == StatusCode::kProtectionError) {
      peer_->nic_->CountProtectionError();
    }
    ChainAbort(seq, op, code);
    return;
  }
  if (h.is_write) target->NotifyRemoteWrite();

  nic_->CountChainHop();
  if (op->span != 0) {
    if (telemetry::SpanTracer* tr = ActiveTracer()) {
      const uint32_t tk = TraceTrack(*tr);
      tr->AsyncBegin(tk, "hop_fetch", "wqe", op->span, sim->Now(),
                     {"hop", hop});
      tr->AsyncEnd(tk, "hop_fetch", "wqe", op->span,
                   sim->Now() + p.pcie_fetch_ns);
    }
  }

  if (!op->cursor.done()) {
    // Next link fires once this hop's PCIe fetch retires and the NIC's
    // WAIT-on-CQ gate sequences the dependent WQE.
    const sim::SimTime next =
        sim->Now() + p.pcie_fetch_ns + p.nic_chain_step_ns;
    auto step = [this, seq, op]() { ChainStep(seq, op); };
    static_assert(sim::Simulation::Callback::fits_inline<decltype(step)>(),
                  "chain-step lambda must stay inline");
    sim->At(next, std::move(step));
    return;
  }

  // Last hop: the responder finishes its fetch, then serializes ONE
  // response carrying every read hop's payload back to the client.
  const uint64_t one_way =
      nic_->fabric()->OneWayNs(nic_->server(), peer_->nic_->server());
  const uint64_t resp_extra =
      hooks == nullptr
          ? 0
          : hooks->ExtraLatencyNs(peer_->nic_->server(), nic_->server());
  const sim::SimTime fetch_done = sim->Now() + p.pcie_fetch_ns;
  const sim::SimTime resp_wire_end =
      peer_->nic_->tx_link().Reserve(fetch_done, op->rpay->size());
  const sim::SimTime landed =
      resp_wire_end + one_way + p.nic_remote_dma_ns + resp_extra;
  if (op->span != 0) {
    if (telemetry::SpanTracer* tr = ActiveTracer()) {
      const uint32_t tk = TraceTrack(*tr);
      tr->AsyncBegin(tk, "resp_wire", "wqe", op->span, fetch_done);
      tr->AsyncEnd(tk, "resp_wire", "wqe", op->span, resp_wire_end);
      tr->AsyncEnd(tk, "chain", "wqe", op->span, landed);
    }
  }
  auto land = [this, seq, op]() { ChainLand(seq, op); };
  static_assert(sim::Simulation::Callback::fits_inline<decltype(land)>(),
                "chain-landing lambda must stay inline");
  sim->At(landed, std::move(land));
}

void QueuePair::ChainLand(uint64_t seq, ChainOp* op) {
  WorkCompletion wc{op->wr_id, Opcode::kChain, StatusCode::kOk,
                    static_cast<uint32_t>(op->rpay->size()), 0};
  if (broken_) {
    wc.status = StatusCode::kUnavailable;
    wc.byte_len = 0;  // a failed chain lands nothing
  } else {
    ScatterChainReads(op->mr, op->hops, op->num_hops, op->rpay->data());
  }
  const sim::SimTime now = nic_->sim()->Now();
  ReleaseChainOp(op);
  Complete(seq, wc, now);
}

Status QueuePair::PostSend(uint64_t wr_id, const MemoryRegion* mr,
                           uint64_t local_offset, uint64_t len) {
  REDY_RETURN_IF_ERROR(CheckPostable());
  if (!mr->InBounds(local_offset, len)) {
    return Status::OutOfRange("send source out of bounds");
  }
  sim::Simulation* sim = nic_->sim();
  const bool inlined = len <= nic_->params().inline_threshold_bytes;
  const Request r = StartRequest(!inlined, len);
  const sim::SimTime landed = r.arrive + nic_->params().nic_remote_dma_ns;
  if (telemetry::SpanTracer* tr = ActiveTracer()) {
    const uint32_t tk = TraceTrack(*tr);
    const uint64_t span = tr->NextId();
    tr->Instant(tk, "doorbell", "wqe", sim->Now(), {"wr_id", wr_id});
    tr->AsyncBegin(tk, "send", "wqe", span, r.issue, {"wr_id", wr_id},
                   {"len", len});
    if (!inlined) {
      tr->AsyncBegin(tk, "dma_fetch", "wqe", span, r.issue);
      tr->AsyncEnd(tk, "dma_fetch", "wqe", span, r.fetch_done);
    }
    tr->AsyncBegin(tk, "wire", "wqe", span, r.fetch_done);
    tr->AsyncEnd(tk, "wire", "wqe", span, r.wire_end);
    tr->AsyncEnd(tk, "send", "wqe", span, landed);
  }
  std::vector<uint8_t>* payload = AcquirePayload();
  payload->assign(mr->data() + local_offset, mr->data() + local_offset + len);

  auto land = [this, seq = r.seq, wr_id, len, payload, doomed = r.doomed]() {
    WorkCompletion wc{wr_id, Opcode::kSend, StatusCode::kOk,
                      static_cast<uint32_t>(len), 0};
    sim::SimTime back = nic_->sim()->Now();
    if (doomed || broken_ || peer_ == nullptr || peer_->nic_->failed()) {
      wc.status = StatusCode::kUnavailable;
    } else {
      back +=
          nic_->fabric()->OneWayNs(nic_->server(), peer_->nic_->server());
      wc.status = peer_->AcceptSend(payload->data(), len);
    }
    ReleasePayload(payload);
    Complete(seq, wc, back);
  };
  static_assert(sim::Simulation::Callback::fits_inline<decltype(land)>(),
                "send-landing lambda must stay inline");
  sim->At(landed, std::move(land));
  return Status::OK();
}

StatusCode QueuePair::AcceptSend(const uint8_t* data, uint64_t len) {
  // Receiver-not-ready: a real RC QP would retry; the Redy protocol
  // pre-posts receives, so it is an error.
  if (posted_recvs_.empty()) return StatusCode::kFailedPrecondition;
  const PostedRecv rv = posted_recvs_.front();
  posted_recvs_.pop_front();
  if (len > rv.capacity) return StatusCode::kOutOfRange;
  Deposit(rv.mr, rv.offset, data, len);
  rv.mr->NotifyRemoteWrite();
  recv_cq_.Push(WorkCompletion{rv.wr_id, Opcode::kRecv, StatusCode::kOk,
                               static_cast<uint32_t>(len), nic_->sim()->Now()});
  return StatusCode::kOk;
}

Status QueuePair::PostRecv(uint64_t wr_id, MemoryRegion* mr, uint64_t offset,
                           uint64_t capacity) {
  if (broken_) return Status::Unavailable("QP broken");
  if (!mr->InBounds(offset, capacity)) {
    return Status::OutOfRange("recv buffer out of bounds");
  }
  posted_recvs_.push_back(PostedRecv{wr_id, mr, offset, capacity});
  return Status::OK();
}

void QueuePair::Break() {
  if (broken_) return;
  broken_ = true;
  // In-flight operations observe broken_ when their events fire and
  // complete with kUnavailable, so outstanding_ drains naturally.
  //
  // Ring the send-CQ doorbell (without enqueueing anything): a poller
  // parked while waiting only on a remote response has no pending send
  // event to wake it, and this is the simulator's stand-in for the
  // async error event a real NIC raises on the QP error transition.
  send_cq_.Notify();
}

}  // namespace redy::rdma
