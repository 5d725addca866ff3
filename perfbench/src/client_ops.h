#ifndef PERFBENCH_CLIENT_OPS_H_
#define PERFBENCH_CLIENT_OPS_H_

// Generated, verified Read/Write traffic against a CacheClient, shared
// by the socket and migration workloads: the seeded op generator, the
// bulk load, closed- and open-loop load, the client-layer metrics, and
// the corruption self-check.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/zipfian.h"
#include "harness.h"
#include "redy/cache_client.h"

namespace perfbench {

/// The seeded key/op stream: Zipfian (scrambled, theta 0.99) or uniform
/// keys and a Bernoulli read/write mix.
class OpGen {
 public:
  OpGen(uint64_t seed, uint64_t keys, double read_fraction, bool zipf);
  uint64_t NextKey() { return zipf_ ? zipf_->Next() : rng_.Uniform(keys_); }
  bool NextIsRead() { return rng_.Bernoulli(read_fraction_); }

 private:
  uint64_t keys_;
  double read_fraction_;
  redy::Rng rng_;
  std::unique_ptr<redy::ScrambledZipfianGenerator> zipf_;
};

/// Writes version 0 of every record straight into region memory.
void LoadRecords(redy::CacheClient& client, redy::CacheClient::CacheId cache,
                 uint64_t keys, uint32_t record_bytes);

/// Picks the next op, keeping at most one write per key in flight (a
/// write drawn for a key that is being written redraws the key).
struct NextOp {
  uint64_t key;
  bool read;
};
NextOp DrawOp(OpGen& gen, const VersionBook& book);

/// Checks one completed read; returns an error message or "".
std::string VerifyRead(const uint8_t* buf, uint32_t record_bytes,
                       uint64_t key, uint64_t acked_at_issue,
                       const VersionBook& book);

/// Verified Read/Write load on one cache, driven from the thread that
/// runs the client's simulation (the loop thread on the socket backend).
///
/// Closed mode keeps N ops outstanding and issues each slot's next op
/// from the previous one's completion callback. Open mode issues ops at
/// Poisson arrival times on the simulated clock regardless of
/// completions. Either way an op's latency runs from when it was due —
/// its arrival, or the completion that freed its slot — to its
/// completion, on `clock`; failed or refused ops rank above every
/// latency. Ops due between BeginWindow and EndWindow are measured.
class ClientLoad {
 public:
  ClientLoad(redy::CacheClient* client, redy::CacheClient::CacheId cache,
             uint32_t record_bytes, uint32_t app_threads, OpGen gen,
             redy::sim::Simulation* sim, std::function<uint64_t()> clock,
             Tracer* tracer);

  void StartClosed(uint32_t outstanding);
  /// Poisson arrivals at `rate` ops/s from now until `until`.
  void StartOpen(double rate, uint64_t seed, redy::sim::SimTime until);
  /// Stops issuing; in-flight ops still complete.
  void Stop() { stop_ = true; }
  void BeginWindow();
  void EndWindow() { measuring_ = false; }
  /// Reserves the latency vectors for `ops` measured ops, so that their
  /// pages are touched only as samples arrive and the peak RSS grows
  /// with the op count instead of in capacity doublings.
  void Reserve(size_t ops);

  uint64_t inflight() const { return inflight_; }
  uint64_t completed_total() const { return completed_total_; }
  /// Ops completed successfully while the window was open.
  uint64_t window_ok() const { return window_ok_; }
  uint64_t window_attempted() const { return window_attempted_; }
  uint64_t window_failed() const { return window_failed_; }
  uint64_t bad_reads() const { return bad_reads_; }
  const std::string& first_error() const { return first_error_; }
  /// Latencies of measured ops in clock units, all / reads / writes.
  std::vector<float>& latency() { return lat_; }
  std::vector<float>& read_latency() { return read_lat_; }
  std::vector<float>& write_latency() { return write_lat_; }
  /// Wall ns from the Read/Write call to the completion.
  std::vector<float>& wall_latency() { return wall_lat_; }
  /// Wall ns inside Read/Write (recorded only when tracing).
  std::vector<float>& submit_ns() { return submit_ns_; }

 private:
  struct Op {
    std::vector<uint8_t> buf;
    uint64_t key = 0, version = 0, acked = 0, due = 0, wall_start = 0;
    uint64_t span = 0;
    bool read = true, measured = false;
  };
  Op* NewOp();
  void Issue(uint64_t due);
  void Done(Op* op, redy::Status st);
  void Arrive();

  redy::CacheClient* client_;
  redy::CacheClient::CacheId cache_;
  uint32_t record_bytes_;
  uint32_t app_threads_;
  OpGen gen_;
  VersionBook book_;
  redy::sim::Simulation* sim_;
  std::function<uint64_t()> clock_;
  Tracer* tracer_;
  std::vector<std::unique_ptr<Op>> pool_;
  std::vector<Op*> free_;
  bool closed_ = false, stop_ = false, measuring_ = false;
  redy::Rng arrivals_{0};
  double rate_ = 0;
  redy::sim::SimTime open_until_ = 0;
  uint64_t issued_ = 0, inflight_ = 0, completed_total_ = 0;
  uint64_t window_ok_ = 0, window_attempted_ = 0, window_failed_ = 0;
  uint64_t bad_reads_ = 0;
  std::string first_error_;
  std::vector<float> lat_, read_lat_, write_lat_, wall_lat_, submit_ns_;
};

/// Adds the redy.client.* metrics from a Stats delta over `ops` ops and
/// `batches` server batches.
void AddClientStats(const redy::CacheClient::Stats& s, uint64_t batches,
                    double ops, Result* r);

/// The verifier's self-check: flips one payload byte of `key` behind
/// the client with Poke, reads the record back through the client and
/// records whether verification rejected it, then restores the record.
class CorruptionCheck {
 public:
  enum Verdict { kPending, kCaught, kMissed, kReadFailed };
  /// Call on the client's thread; the verdict arrives with the read.
  void Start(redy::CacheClient& client, redy::CacheClient::CacheId cache,
             uint32_t record_bytes, uint64_t key);
  Verdict verdict() const { return verdict_; }

 private:
  std::vector<uint8_t> good_, bad_, read_;
  Verdict verdict_ = kPending;
};

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_OPS_H_
