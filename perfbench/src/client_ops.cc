#include "client_ops.h"

#include <algorithm>

namespace perfbench {

using redy::CacheClient;
using redy::Status;

namespace {
/// Latency recorded for a failed or refused op: above any real one.
constexpr float kFailedLatency = 1e15f;
}  // namespace

OpGen::OpGen(uint64_t seed, uint64_t keys, double read_fraction, bool zipf)
    : keys_(keys),
      read_fraction_(read_fraction),
      rng_(redy::SplitMix64(seed ^ 0x6F70676Eull)),
      zipf_(zipf ? std::make_unique<redy::ScrambledZipfianGenerator>(
                       keys, 0.99, redy::SplitMix64(seed))
                 : nullptr) {}

void LoadRecords(CacheClient& client, CacheClient::CacheId cache,
                 uint64_t keys, uint32_t record_bytes) {
  constexpr uint64_t kChunkKeys = 4096;
  std::vector<uint8_t> buf(kChunkKeys * record_bytes);
  for (uint64_t k0 = 0; k0 < keys; k0 += kChunkKeys) {
    const uint64_t n = std::min(kChunkKeys, keys - k0);
    for (uint64_t i = 0; i < n; i++) {
      record::Fill(buf.data() + i * record_bytes, record_bytes, k0 + i, 0);
    }
    const Status st =
        client.Poke(cache, k0 * record_bytes, buf.data(), n * record_bytes);
    REDY_CHECK(st.ok());
  }
}

NextOp DrawOp(OpGen& gen, const VersionBook& book) {
  NextOp op{gen.NextKey(), gen.NextIsRead()};
  for (int tries = 0; !op.read && book.writing(op.key); tries++) {
    if (tries == 8) {
      op.read = true;
      break;
    }
    op.key = gen.NextKey();
  }
  return op;
}

std::string VerifyRead(const uint8_t* buf, uint32_t record_bytes,
                       uint64_t key, uint64_t acked_at_issue,
                       const VersionBook& book) {
  uint64_t version = 0;
  if (!record::Check(buf, record_bytes, key, &version)) {
    return "read of key " + std::to_string(key) +
           " returned a record that fails its checksum or key";
  }
  if (!book.ReadOk(key, acked_at_issue, version)) {
    return "read of key " + std::to_string(key) + " returned version " +
           std::to_string(version) + ", expected at least " +
           std::to_string(acked_at_issue);
  }
  return "";
}

ClientLoad::ClientLoad(CacheClient* client, CacheClient::CacheId cache,
                       uint32_t record_bytes, uint32_t app_threads, OpGen gen,
                       redy::sim::Simulation* sim,
                       std::function<uint64_t()> clock, Tracer* tracer)
    : client_(client),
      cache_(cache),
      record_bytes_(record_bytes),
      app_threads_(app_threads),
      gen_(std::move(gen)),
      book_(client->capacity(cache) / record_bytes),
      sim_(sim),
      clock_(std::move(clock)),
      tracer_(tracer) {}

void ClientLoad::StartClosed(uint32_t outstanding) {
  closed_ = true;
  stop_ = false;
  for (uint32_t i = 0; i < outstanding; i++) Issue(clock_());
}

void ClientLoad::StartOpen(double rate, uint64_t seed,
                           redy::sim::SimTime until) {
  closed_ = false;
  stop_ = false;
  rate_ = rate;
  open_until_ = until;
  arrivals_ = redy::Rng(redy::SplitMix64(seed ^ 0x0A7E));
  Arrive();
}

void ClientLoad::BeginWindow() {
  measuring_ = true;
  window_ok_ = window_attempted_ = window_failed_ = 0;
  for (auto* v : {&lat_, &read_lat_, &write_lat_, &wall_lat_, &submit_ns_}) {
    v->clear();
  }
}

void ClientLoad::Reserve(size_t ops) {
  for (auto* v : {&lat_, &read_lat_, &write_lat_, &wall_lat_}) {
    v->reserve(ops);
  }
}

ClientLoad::Op* ClientLoad::NewOp() {
  if (free_.empty()) {
    pool_.push_back(std::make_unique<Op>());
    pool_.back()->buf.assign(record_bytes_, 0);
    return pool_.back().get();
  }
  Op* op = free_.back();
  free_.pop_back();
  return op;
}

void ClientLoad::Arrive() {
  const redy::sim::SimTime now = sim_->Now();
  if (stop_ || now >= open_until_) return;
  Issue(clock_());
  const double gap = arrivals_.Exponential(1e9 / rate_);
  sim_->At(now + 1 + static_cast<redy::sim::SimTime>(gap),
           [this] { Arrive(); });
}

void ClientLoad::Issue(uint64_t due) {
  if (stop_) return;
  Op* op = NewOp();
  const NextOp n = DrawOp(gen_, book_);
  op->key = n.key;
  op->read = n.read;
  op->acked = book_.acked(n.key);
  op->due = due;
  op->measured = measuring_;
  if (op->measured) window_attempted_++;
  if (!op->read) {
    op->version = book_.BeginWrite(op->key);
    record::Fill(op->buf.data(), record_bytes_, op->key, op->version);
  }
  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  const uint64_t span = tracing ? tracer_->NewId() : 0;
  const bool read = op->read, measured = op->measured;
  const uint64_t key = op->key, version = op->version;
  op->span = span;
  inflight_++;
  op->wall_start = NowNs();
  const uint64_t t0 = op->wall_start;
  auto cb = [this, op](Status st) { Done(op, st); };
  const uint64_t addr = key * record_bytes_;
  const uint32_t thread = static_cast<uint32_t>(issued_++ % app_threads_);
  // The callback may run before Read/Write returns and recycle `op`:
  // only the locals above are used after the call.
  const Status st =
      read ? client_->Read(cache_, addr, op->buf.data(), record_bytes_, cb,
                           thread)
           : client_->Write(cache_, addr, op->buf.data(), record_bytes_, cb,
                            thread);
  if (tracing) {
    const uint64_t t1 = NowNs();
    if (measured) submit_ns_.push_back(static_cast<float>(t1 - t0));
    tracer_->Span(read ? "client.Read" : "client.Write", span, t0, t1);
  }
  if (st.ok()) return;
  // Refused at the front door: a failed op; the slot retries later.
  inflight_--;
  if (!read) book_.EndWrite(key, version, false);
  if (measured) {
    window_failed_++;
    lat_.push_back(kFailedLatency);
    (read ? read_lat_ : write_lat_).push_back(kFailedLatency);
    wall_lat_.push_back(kFailedLatency);
  }
  free_.push_back(op);
  if (closed_) sim_->After(1000, [this, due] { Issue(due); });
}

void ClientLoad::Done(Op* op, Status st) {
  const uint64_t end = clock_();
  const uint64_t wall_end = NowNs();
  completed_total_++;
  inflight_--;
  if (st.ok() && op->read) {
    const std::string err =
        VerifyRead(op->buf.data(), record_bytes_, op->key, op->acked, book_);
    if (!err.empty() && bad_reads_++ == 0) first_error_ = err;
  }
  if (!op->read) book_.EndWrite(op->key, op->version, st.ok());
  if (measuring_ && st.ok()) window_ok_++;
  if (op->measured) {
    if (!st.ok()) window_failed_++;
    const float l = st.ok() ? static_cast<float>(end - op->due)
                            : kFailedLatency;
    lat_.push_back(l);
    (op->read ? read_lat_ : write_lat_).push_back(l);
    wall_lat_.push_back(st.ok() ? static_cast<float>(wall_end - op->wall_start)
                                : kFailedLatency);
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Span(op->read ? "op.read" : "op.write", op->span,
                  op->wall_start, wall_end, /*async=*/true);
  }
  free_.push_back(op);
  if (closed_) Issue(end);
}

void AddClientStats(const CacheClient::Stats& s, uint64_t batches, double ops,
                    Result* r) {
  r->Add("redy.client.ops_per_batch",
         batches ? static_cast<double>(s.batched_ops) / batches : 0, "1");
  r->Add("redy.client.retries_per_op", s.retries / ops, "1");
  r->Add("redy.client.timeouts", static_cast<double>(s.timeouts), "count");
  r->Add("redy.client.busy_pushbacks", static_cast<double>(s.busy_pushbacks),
         "count");
  r->Add("redy.client.parked_ops", static_cast<double>(s.parked_ops),
         "count");
  r->Add("redy.client.fence_redirects",
         static_cast<double>(s.fence_redirects), "count");
}

void CorruptionCheck::Start(CacheClient& client, CacheClient::CacheId cache,
                            uint32_t record_bytes, uint64_t key) {
  const uint64_t addr = key * record_bytes;
  good_.assign(record_bytes, 0);
  read_.assign(record_bytes, 0);
  REDY_CHECK(client.Peek(cache, addr, good_.data(), record_bytes).ok());
  bad_ = good_;
  bad_[record_bytes - 1] ^= 0x40;  // one payload bit
  REDY_CHECK(client.Poke(cache, addr, bad_.data(), record_bytes).ok());
  const Status st = client.Read(
      cache, addr, read_.data(), record_bytes,
      [this, &client, cache, addr, key, record_bytes](Status s) {
        uint64_t version = 0;
        verdict_ = !s.ok() ? kReadFailed
                   : record::Check(read_.data(), record_bytes, key, &version)
                       ? kMissed
                       : kCaught;
        REDY_CHECK(client.Poke(cache, addr, good_.data(), record_bytes).ok());
      });
  if (!st.ok()) verdict_ = kReadFailed;
}

}  // namespace perfbench
