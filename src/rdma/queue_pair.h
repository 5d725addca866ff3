#ifndef REDY_RDMA_QUEUE_PAIR_H_
#define REDY_RDMA_QUEUE_PAIR_H_

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/slab_pool.h"
#include "common/status.h"
#include "rdma/completion_queue.h"
#include "rdma/memory_region.h"
#include "rdma/rdma.h"
#include "rdma/responder.h"
#include "sim/simulation.h"

namespace redy::telemetry {
class SpanTracer;
}  // namespace redy::telemetry

namespace redy::rdma {

class Nic;

/// A reliable-connected queue pair. Session-oriented: a QP talks only to
/// the QP it connected to; messages are delivered in post order with no
/// loss or duplication (Section 4.1). The simulator enforces in-order
/// completion delivery per QP and a bounded number of in-flight
/// operations (the queue depth).
///
/// The data path is allocation-free at steady state: payload snapshots
/// come from a per-QP buffer pool (capacity persists across ops), the
/// completion sequencer is a fixed ring sized by the queue depth, and
/// every event lambda is static_assert'd to fit the scheduler's inline
/// capture budget (DESIGN.md §10).
///
/// The post/connect surface is virtual: this class is both the verbs
/// interface and its simulated default implementation. The socket
/// backend (src/transport/) subclasses it to carry the same posts over
/// nonblocking TCP with real completions (DESIGN.md §13), so every
/// caller — CacheClient, CacheServer, migration — is backend-agnostic.
class QueuePair {
 public:
  QueuePair(Nic* nic, uint32_t max_depth);
  virtual ~QueuePair() = default;

  QueuePair(const QueuePair&) = delete;
  QueuePair& operator=(const QueuePair&) = delete;

  /// Connects this QP with `peer` (both directions).
  virtual Status Connect(QueuePair* peer);

  /// One-sided RDMA read: copy `len` bytes from (remote region `key`,
  /// `remote_offset`) into (local `mr`, `local_offset`). Completion is
  /// pushed to the send CQ when the data has landed locally.
  virtual Status PostRead(uint64_t wr_id, MemoryRegion* mr,
                          uint64_t local_offset, RemoteKey key,
                          uint64_t remote_offset, uint64_t len);

  /// One-sided RDMA write: copy `len` bytes from (local `mr`,
  /// `local_offset`) to (remote region `key`, `remote_offset`). Payloads
  /// up to the inline threshold avoid the PCIe DMA fetch.
  virtual Status PostWrite(uint64_t wr_id, const MemoryRegion* mr,
                           uint64_t local_offset, RemoteKey key,
                           uint64_t remote_offset, uint64_t len);

  /// NIC-offloaded dependent op chain: posts `num_hops` linked work
  /// requests as ONE doorbell. The responder NIC executes the hops
  /// strictly in order (WAIT-on-CQ gating between links), resolving
  /// `addr_from_prev` hops from the previous READ hop's landed payload
  /// — a remote pointer chase with no client-side RTT per hop. Cost per
  /// link is NIC-side (`FabricParams::nic_chain_step_ns` + PCIe fetch),
  /// and every hop is epoch-fenced: a mid-chain stale epoch, dropped
  /// region, or link fault aborts the remaining hops and delivers a
  /// single poisoned completion with byte_len 0 — no read payload lands
  /// locally and no write hop past the fault touches remote memory.
  /// On success one completion is delivered whose byte_len is the total
  /// read bytes, after every read hop's payload landed in `mr`.
  virtual Status PostChain(uint64_t wr_id, MemoryRegion* mr,
                           const ChainHop* hops, uint32_t num_hops);

  /// Two-sided send: delivers into the oldest posted receive buffer at
  /// the peer; a completion appears on the peer's recv CQ.
  virtual Status PostSend(uint64_t wr_id, const MemoryRegion* mr,
                          uint64_t local_offset, uint64_t len);

  /// Posts a receive buffer for incoming sends.
  virtual Status PostRecv(uint64_t wr_id, MemoryRegion* mr, uint64_t offset,
                          uint64_t capacity);

  CompletionQueue& send_cq() { return send_cq_; }
  CompletionQueue& recv_cq() { return recv_cq_; }

  /// In-flight (posted, not yet completed) send-side operations.
  uint32_t outstanding() const { return outstanding_; }
  uint32_t max_depth() const { return max_depth_; }
  virtual bool connected() const { return peer_ != nullptr; }
  bool broken() const { return broken_; }
  Nic* nic() const { return nic_; }
  QueuePair* peer() const { return peer_; }

  /// CPU nanoseconds a caller should charge for posting one work request
  /// with the given payload (doorbell + optional inline copy).
  virtual uint64_t PostCostNs(uint64_t inline_bytes) const;

  /// Flushes the QP: outstanding and future operations fail.
  virtual void Break();

  /// Stable fabric-wide trace ordinal (assigned at creation).
  uint64_t trace_id() const { return trace_id_; }

 protected:
  friend class Nic;

  struct PostedRecv {
    uint64_t wr_id;
    MemoryRegion* mr;
    uint64_t offset;
    uint64_t capacity;
  };

  /// One slot of the in-order completion sequencer. The window of
  /// sequenced-but-undelivered ops is bounded by the queue depth (an op
  /// holds its outstanding_ slot until its delivery event fires), so a
  /// fixed power-of-two ring indexed by `seq & mask` replaces the old
  /// std::map and its node allocation per completion.
  struct ReadySlot {
    WorkCompletion wc;
    sim::SimTime t = 0;
    bool used = false;
  };

  /// Pooled per-read state: the responder-arrival lambda needs nine
  /// fields of context, which would overflow the scheduler's inline
  /// capture budget and silently heap-allocate. Pooling the record keeps
  /// the capture at {this, seq, op*}.
  struct ReadOp {
    uint64_t wr_id;
    MemoryRegion* mr;
    uint64_t local_offset;
    RemoteKey key;
    uint64_t remote_offset;
    uint64_t len;
    uint64_t span;
    bool doomed;
  };

  /// Pooled per-chain state. The whole descriptor block and both
  /// payload staging buffers ride in one pooled record so every
  /// responder-side stepping event captures only {this, seq, op*} and
  /// the issue path stays allocation-free at steady state.
  struct ChainOp {
    uint64_t wr_id;
    MemoryRegion* mr;
    ChainHop hops[kMaxChainHops];
    uint32_t num_hops;
    ChainCursor cursor;          // responder progress through `hops`
    uint64_t span;               // chain trace span (0 = tracing off)
    bool doomed;                 // fault-injected at post time
    std::vector<uint8_t>* rpay;  // concatenated read payloads (pooled)
    std::vector<uint8_t>* wpay;  // concatenated write payloads (pooled)
  };

  /// Responder-side chain machinery (sim backend): executes one hop at
  /// the current sim time, then either schedules the next hop after the
  /// NIC's WAIT-gate + fetch cost, ships the single response, or aborts.
  void ChainStep(uint64_t seq, ChainOp* op);
  void ChainLand(uint64_t seq, ChainOp* op);
  void ChainAbort(uint64_t seq, ChainOp* op, StatusCode code);
  void ReleaseChainOp(ChainOp* op);

  /// Receiver side of a SEND, on both backends: lands `len` bytes in
  /// the oldest posted receive and pushes its completion, or returns
  /// why they cannot land.
  StatusCode AcceptSend(const uint8_t* data, uint64_t len);

  /// The requester half every post shares, computed at post time: a
  /// queue slot and the next post sequence number, the fault-hook roll,
  /// and the FIFO pipeline — issue, an optional PCIe fetch, `wire_bytes`
  /// of serialization on the transmit link, propagation.
  struct Request {
    uint64_t seq;
    bool doomed;
    sim::SimTime issue;
    sim::SimTime fetch_done;
    sim::SimTime wire_end;
    sim::SimTime arrive;  // at the responder NIC
  };
  Request StartRequest(bool fetch, uint64_t wire_bytes);

  Status CheckPostable() const;
  /// Reserves the NIC issue slot honoring the per-QP WQE rate cap.
  sim::SimTime IssueSlot(sim::SimTime earliest);
  /// Hands `wc` (for the op with post-sequence `seq`) to the completion
  /// sequencer, which releases completions strictly in post order, as a
  /// reliable-connected QP does.
  void Complete(uint64_t seq, WorkCompletion wc, sim::SimTime t);
  void DeliverReady();
  /// Borrows/returns a payload snapshot buffer. Buffer capacity persists
  /// across ops, so a settled workload snapshots without allocating.
  std::vector<uint8_t>* AcquirePayload() { return payload_pool_.Acquire(); }
  void ReleasePayload(std::vector<uint8_t>* p) { payload_pool_.Release(p); }
  /// The fabric's span tracer when telemetry is installed and tracing
  /// is enabled; nullptr otherwise (the common, zero-cost case).
  telemetry::SpanTracer* ActiveTracer() const;
  /// This QP's trace lane, registered on first use.
  uint32_t TraceTrack(telemetry::SpanTracer& tracer);

  Nic* nic_;
  QueuePair* peer_ = nullptr;
  uint32_t max_depth_;
  uint32_t outstanding_ = 0;
  bool broken_ = false;
  sim::SimTime next_issue_ = 0;
  sim::SimTime last_completion_ = 0;
  uint64_t next_post_seq_ = 0;
  uint64_t next_deliver_seq_ = 0;
  std::vector<ReadySlot> ready_;  // power-of-two ring, see ReadySlot
  common::SlabPool<std::vector<uint8_t>> payload_pool_;
  common::SlabPool<ReadOp> read_op_pool_;
  common::SlabPool<ChainOp> chain_op_pool_;
  CompletionQueue send_cq_;
  CompletionQueue recv_cq_;
  std::deque<PostedRecv> posted_recvs_;
  uint64_t trace_id_ = 0;
  uint32_t trace_track_ = 0;
};

}  // namespace redy::rdma

#endif  // REDY_RDMA_QUEUE_PAIR_H_
