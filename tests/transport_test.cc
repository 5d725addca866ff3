// Tests of the real-transport backend (DESIGN.md §13): the wall-clock
// driver's park/wake arm, and a slice of the rdma_test.cc /
// redy_cache_test.cc surface parameterized over BOTH backends — the
// deterministic simulator and the socket-loopback transport — so the
// verbs contract (data movement, in-order completions, queue depth,
// epoch fencing, error flushes) is pinned to be backend-independent.
// Everything here is bounded to a few wall-clock seconds: this file is
// the tier-1 loopback smoke test.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "net/topology.h"
#include "rdma/nic.h"
#include "rdma/queue_pair.h"
#include "redy/testbed.h"
#include "sim/simulation.h"
#include "telemetry/telemetry.h"
#include "transport/loopback.h"
#include "transport/socket_fabric.h"
#include "transport/wall_clock.h"

namespace redy {
namespace {

using rdma::MemoryRegion;
using rdma::Nic;
using rdma::QueuePair;
using rdma::WorkCompletion;
using transport::LoopbackRig;
using transport::LoopbackRigOptions;
using transport::SocketFabric;
using transport::WallClockDriver;

bool SpinUntil(const std::function<bool()>& pred, uint64_t timeout_ms) {
  const uint64_t deadline =
      WallClockDriver::MonotonicNs() + timeout_ms * 1'000'000ull;
  while (!pred()) {
    if (WallClockDriver::MonotonicNs() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Satellite: the park/wake machinery has a real futex arm.

TEST(WallClockDriverTest, IdleLoopParksAndPostWakesIt) {
  sim::Simulation sim;
  WallClockDriver driver(&sim);
  driver.Start();
  // With an empty event queue the loop must park (block in epoll_wait),
  // not spin.
  ASSERT_TRUE(SpinUntil([&] { return driver.idle_blocks() > 0; }, 2'000))
      << "idle driver never parked";
  const uint64_t wakeups_before = driver.wakeups();
  std::atomic<bool> ran{false};
  driver.Post([&] { ran.store(true, std::memory_order_release); });
  ASSERT_TRUE(SpinUntil([&] { return ran.load(std::memory_order_acquire); },
                        2'000))
      << "posted work did not run";
  // The post found the loop parked (or about to park) and woke it
  // through the eventfd doorbell.
  EXPECT_TRUE(SpinUntil([&] { return driver.wakeups() > wakeups_before; },
                        2'000));
  driver.Stop();
}

TEST(WallClockDriverTest, TimersFireAgainstTheWallClock) {
  sim::Simulation sim;
  WallClockDriver driver(&sim);
  std::atomic<int> fired{0};
  driver.Start();
  driver.Call([&] {
    sim.After(2 * kMillisecond, [&] { fired.fetch_add(1); });
  });
  ASSERT_TRUE(SpinUntil([&] { return fired.load() >= 1; }, 2'000));
  driver.Stop();
}

// ---------------------------------------------------------------------------
// Backend-parameterized verbs tests (satellite: the same contract slice
// runs on the simulator and over real loopback sockets).

enum class Backend { kSim, kSocket };

/// Uniform driver for both worlds. Run() executes a functor in the
/// backend's single-threaded context (inline for the simulator, on the
/// loop thread for the socket backend); Await() pumps the backend until
/// the predicate holds.
class BackendHarness {
 public:
  virtual ~BackendHarness() = default;
  virtual rdma::Fabric& fabric() = 0;
  /// The backend's event world (driven by the loop on the socket side).
  virtual sim::Simulation& sim() = 0;
  virtual void Run(const std::function<void()>& fn) = 0;
  virtual bool Await(const std::function<bool()>& pred) = 0;
};

class SimHarness : public BackendHarness {
 public:
  SimHarness() : fabric_(&sim_, net::Topology(2, 2, 4)) {}
  rdma::Fabric& fabric() override { return fabric_; }
  sim::Simulation& sim() override { return sim_; }
  void Run(const std::function<void()>& fn) override { fn(); }
  bool Await(const std::function<bool()>& pred) override {
    sim_.Run();
    return pred();
  }

 private:
  sim::Simulation sim_;
  rdma::Fabric fabric_;
};

class SocketHarness : public BackendHarness {
 public:
  SocketHarness() : driver_(&sim_) {
    driver_.Start();
    driver_.Call([&] {
      SocketFabric::Options opts;
      opts.workers = 2;
      fabric_ = std::make_unique<SocketFabric>(
          &sim_, &driver_, net::Topology(2, 2, 4), net::FabricParams{}, opts);
    });
  }
  ~SocketHarness() override {
    fabric_->ShutdownTransport();
    driver_.Stop();
    fabric_.reset();
  }
  rdma::Fabric& fabric() override { return *fabric_; }
  void Run(const std::function<void()>& fn) override { driver_.Call(fn); }
  bool Await(const std::function<bool()>& pred) override {
    const uint64_t deadline =
        WallClockDriver::MonotonicNs() + 10ull * 1'000'000'000;
    while (true) {
      if (driver_.Call(pred)) return true;
      if (WallClockDriver::MonotonicNs() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  WallClockDriver& driver() { return driver_; }
  sim::Simulation& sim() override { return sim_; }

 private:
  sim::Simulation sim_;
  WallClockDriver driver_;
  std::unique_ptr<SocketFabric> fabric_;
};

class BackendRdmaTest : public ::testing::TestWithParam<Backend> {
 protected:
  BackendRdmaTest() {
    if (GetParam() == Backend::kSim) {
      harness_ = std::make_unique<SimHarness>();
    } else {
      harness_ = std::make_unique<SocketHarness>();
    }
    harness_->Run([&] {
      client_nic_ = harness_->fabric().NicAt(0);
      server_nic_ = harness_->fabric().NicAt(1);
      cqp_ = client_nic_->CreateQueuePair(16);
      sqp_ = server_nic_->CreateQueuePair(16);
      connect_ok_ = cqp_->Connect(sqp_).ok();
      local_ = client_nic_->RegisterMemory(64 * kKiB);
      remote_ = server_nic_->RegisterMemory(64 * kKiB);
    });
    EXPECT_TRUE(connect_ok_);
  }
  ~BackendRdmaTest() override {
    if (tel_) harness_->Run([&] { harness_->fabric().set_telemetry(nullptr); });
  }

  void InstallTelemetry() {
    tel_ = std::make_unique<telemetry::Telemetry>(&harness_->sim());
    harness_->Run([&] { harness_->fabric().set_telemetry(tel_.get()); });
  }

  /// Per-NIC counter `name` of NIC `server` (InstallTelemetry first).
  uint64_t NicCounter(const char* name, net::ServerId server) {
    uint64_t v = 0;
    harness_->Run([&] {
      v = tel_->metrics()
              .GetCounter(name, {{"server", std::to_string(server)}})
              ->Value();
    });
    return v;
  }

  /// Pumps the backend until `n` completions surfaced on cqp_'s send CQ.
  std::vector<WorkCompletion> DrainN(size_t n) {
    std::vector<WorkCompletion> out;
    harness_->Await([&] {
      WorkCompletion wc;
      while (cqp_->send_cq().Poll(&wc, 1) == 1) out.push_back(wc);
      return out.size() >= n;
    });
    return out;
  }

  std::unique_ptr<BackendHarness> harness_;
  std::unique_ptr<telemetry::Telemetry> tel_;
  Nic* client_nic_ = nullptr;
  Nic* server_nic_ = nullptr;
  QueuePair* cqp_ = nullptr;
  QueuePair* sqp_ = nullptr;
  MemoryRegion* local_ = nullptr;
  MemoryRegion* remote_ = nullptr;
  bool connect_ok_ = false;
};

TEST_P(BackendRdmaTest, OneSidedWriteMovesBytes) {
  const char msg[] = "hello remote memory";
  std::memcpy(local_->data() + 100, msg, sizeof(msg));
  bool posted = false;
  harness_->Run([&] {
    posted = cqp_->PostWrite(7, local_, 100, remote_->remote_key(), 200,
                             sizeof(msg))
                 .ok();
  });
  ASSERT_TRUE(posted);
  auto wcs = DrainN(1);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].wr_id, 7u);
  EXPECT_EQ(wcs[0].status, StatusCode::kOk);
  EXPECT_EQ(wcs[0].opcode, rdma::Opcode::kWrite);
  EXPECT_EQ(std::memcmp(remote_->data() + 200, msg, sizeof(msg)), 0);
}

TEST_P(BackendRdmaTest, OneSidedReadMovesBytes) {
  const char msg[] = "data on the server";
  std::memcpy(remote_->data() + 64, msg, sizeof(msg));
  bool posted = false;
  harness_->Run([&] {
    posted = cqp_->PostRead(9, local_, 0, remote_->remote_key(), 64,
                            sizeof(msg))
                 .ok();
  });
  ASSERT_TRUE(posted);
  auto wcs = DrainN(1);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kOk);
  EXPECT_EQ(std::memcmp(local_->data(), msg, sizeof(msg)), 0);
}

TEST_P(BackendRdmaTest, CompletionsArriveInPostOrder) {
  harness_->Run([&] {
    EXPECT_TRUE(
        cqp_->PostWrite(1, local_, 0, remote_->remote_key(), 0, 16 * kKiB)
            .ok());
    EXPECT_TRUE(
        cqp_->PostWrite(2, local_, 0, remote_->remote_key(), 0, 8).ok());
    EXPECT_TRUE(
        cqp_->PostRead(3, local_, 0, remote_->remote_key(), 0, 8 * kKiB)
            .ok());
    EXPECT_TRUE(
        cqp_->PostWrite(4, local_, 0, remote_->remote_key(), 0, 8).ok());
  });
  auto wcs = DrainN(4);
  ASSERT_EQ(wcs.size(), 4u);
  for (size_t i = 0; i < wcs.size(); i++) EXPECT_EQ(wcs[i].wr_id, i + 1);
}

TEST_P(BackendRdmaTest, QueueDepthIsEnforced) {
  int accepted = 0;
  QueuePair* qp4 = nullptr;
  harness_->Run([&] {
    qp4 = client_nic_->CreateQueuePair(4);
    QueuePair* sqp4 = server_nic_->CreateQueuePair(4);
    EXPECT_TRUE(qp4->Connect(sqp4).ok());
    for (int i = 0; i < 10; i++) {
      if (qp4->PostWrite(i, local_, 0, remote_->remote_key(), 0, 8).ok()) {
        accepted++;
      }
    }
  });
  EXPECT_EQ(accepted, 4);
  std::vector<WorkCompletion> out;
  ASSERT_TRUE(harness_->Await([&] {
    WorkCompletion wc;
    while (qp4->send_cq().Poll(&wc, 1) == 1) out.push_back(wc);
    return out.size() >= 4;
  }));
  bool reposted = false;
  harness_->Run([&] {
    reposted =
        qp4->PostWrite(99, local_, 0, remote_->remote_key(), 0, 8).ok();
  });
  EXPECT_TRUE(reposted);
}

TEST_P(BackendRdmaTest, StaleEpochWriteIsFencedFreshKeySucceeds) {
  const rdma::RemoteKey stale = remote_->remote_key();
  std::memset(remote_->data(), 0, 16);
  std::memset(local_->data(), 0x5A, 16);
  bool posted = false;
  harness_->Run([&] {
    remote_->RevokeEpoch();
    posted = cqp_->PostWrite(1, local_, 0, stale, 0, 16).ok();
  });
  ASSERT_TRUE(posted);
  auto wcs = DrainN(1);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kProtectionError);
  for (int i = 0; i < 16; i++) {
    ASSERT_EQ(remote_->data()[i], 0) << "fenced write landed at byte " << i;
  }

  // A key minted after the revocation carries the new epoch and works.
  harness_->Run([&] {
    posted = cqp_->PostWrite(2, local_, 0, remote_->remote_key(), 0, 16).ok();
  });
  ASSERT_TRUE(posted);
  wcs = DrainN(1);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kOk);
  EXPECT_EQ(remote_->data()[0], 0x5A);
}

TEST_P(BackendRdmaTest, ReadsSurviveEpochRevocation) {
  const char msg[] = "still readable";
  std::memcpy(remote_->data(), msg, sizeof(msg));
  const rdma::RemoteKey stale = remote_->remote_key();
  bool posted = false;
  harness_->Run([&] {
    remote_->RevokeEpoch();
    posted = cqp_->PostRead(1, local_, 0, stale, 0, sizeof(msg)).ok();
  });
  ASSERT_TRUE(posted);
  auto wcs = DrainN(1);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kOk);
  EXPECT_EQ(std::memcmp(local_->data(), msg, sizeof(msg)), 0);
}

// The responder NIC counts every access it fences: to a dropped region,
// read or write, as well as under a stale epoch.
TEST_P(BackendRdmaTest, ProtectionErrorsCountEveryFencedAccess) {
  InstallTelemetry();
  rdma::RemoteKey dropped;
  rdma::RemoteKey stale;
  harness_->Run([&] {
    MemoryRegion* mr = server_nic_->RegisterMemory(4 * kKiB);
    dropped = mr->remote_key();
    server_nic_->DeregisterMemory(mr);
    stale = remote_->remote_key();
    remote_->RevokeEpoch();
  });
  const std::function<Status()> posts[] = {
      [&] { return cqp_->PostWrite(1, local_, 0, dropped, 0, 64); },
      [&] { return cqp_->PostRead(2, local_, 0, dropped, 0, 64); },
      [&] { return cqp_->PostWrite(3, local_, 0, stale, 0, 64); },
  };
  for (uint64_t i = 0; i < 3; i++) {
    bool posted = false;
    harness_->Run([&] { posted = posts[i]().ok(); });
    ASSERT_TRUE(posted);
    auto wcs = DrainN(1);
    ASSERT_EQ(wcs.size(), 1u);
    EXPECT_EQ(wcs[0].status, StatusCode::kProtectionError);
    EXPECT_EQ(NicCounter("rdma.protection_errors", 1), i + 1);
  }
  EXPECT_EQ(NicCounter("rdma.protection_errors", 0), 0u);
}

TEST_P(BackendRdmaTest, RemoteOutOfBoundsAborts) {
  MemoryRegion* tiny = nullptr;
  bool posted = false;
  harness_->Run([&] {
    tiny = server_nic_->RegisterMemory(128);
    posted = cqp_->PostWrite(1, local_, 0, tiny->remote_key(), 120, 64).ok();
  });
  ASSERT_TRUE(posted);
  auto wcs = DrainN(1);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kAborted);
}

TEST_P(BackendRdmaTest, SendRecvDeliversToPostedBuffer) {
  const char msg[] = "rpc payload";
  std::memcpy(local_->data(), msg, sizeof(msg));
  harness_->Run([&] {
    EXPECT_TRUE(sqp_->PostRecv(42, remote_, 0, 4096).ok());
    EXPECT_TRUE(cqp_->PostSend(7, local_, 0, sizeof(msg)).ok());
  });
  WorkCompletion rwc;
  bool got = false;
  ASSERT_TRUE(harness_->Await([&] {
    if (!got && sqp_->recv_cq().Poll(&rwc, 1) == 1) got = true;
    return got;
  }));
  EXPECT_EQ(rwc.wr_id, 42u);
  EXPECT_EQ(rwc.status, StatusCode::kOk);
  EXPECT_EQ(std::memcmp(remote_->data(), msg, sizeof(msg)), 0);
}

// A SEND is acked by the receiver's application loop, a WRITE by the
// responder as it lands; the later WRITE's ack can overtake the SEND's,
// and must still complete after it.
TEST_P(BackendRdmaTest, SendThenWritesCompleteInPostOrder) {
  harness_->Run([&] {
    EXPECT_TRUE(sqp_->PostRecv(42, remote_, 0, 4096).ok());
    EXPECT_TRUE(cqp_->PostSend(1, local_, 0, 64).ok());
    for (uint64_t i = 2; i <= 6; i++) {
      EXPECT_TRUE(
          cqp_->PostWrite(i, local_, 0, remote_->remote_key(), 8192, 64).ok());
    }
  });
  auto wcs = DrainN(6);
  ASSERT_EQ(wcs.size(), 6u);
  for (size_t i = 0; i < wcs.size(); i++) {
    EXPECT_EQ(wcs[i].wr_id, i + 1);
    EXPECT_EQ(wcs[i].status, StatusCode::kOk);
  }
}

TEST_P(BackendRdmaTest, NicFailureFlushesInFlightOps) {
  harness_->Run([&] {
    for (int i = 0; i < 4; i++) {
      EXPECT_TRUE(
          cqp_->PostWrite(i, local_, 0, remote_->remote_key(), 0, 8).ok());
    }
    server_nic_->Fail();
  });
  auto wcs = DrainN(4);
  ASSERT_EQ(wcs.size(), 4u);
  for (const auto& wc : wcs) {
    EXPECT_EQ(wc.status, StatusCode::kUnavailable);
  }
  bool reposted = true;
  harness_->Run([&] {
    reposted =
        cqp_->PostWrite(9, local_, 0, remote_->remote_key(), 0, 8).ok();
  });
  EXPECT_FALSE(reposted);
}

// ---------------------------------------------------------------------------
// NIC-offloaded op chains (DESIGN.md §15): one doorbell drives a
// dependent multi-op sequence on the responder NIC; the client sees a
// single completion (and thus a single poller wakeup) per chain.

TEST_P(BackendRdmaTest, ChainPointerChaseFollowsMaskedRemotePointer) {
  // Remote layout: a tagged pointer word at offset 256 whose upper bits
  // name the data offset (<< 4, low nibble is tag bits the mask strips).
  const char msg[] = "chased through the NIC";
  constexpr uint64_t kDataOff = 1024;
  std::memcpy(remote_->data() + kDataOff, msg, sizeof(msg));
  const uint64_t word = (kDataOff << 4) | 0x9;  // tag bits must be masked
  std::memcpy(remote_->data() + 256, &word, sizeof(word));

  rdma::ChainHop hops[2];
  hops[0].key = remote_->remote_key();
  hops[0].remote_offset = 256;
  hops[0].local_offset = 0;
  hops[0].len = 8;
  hops[1].key = remote_->remote_key();
  hops[1].remote_offset = 0;
  hops[1].local_offset = 64;
  hops[1].len = sizeof(msg);
  hops[1].addr_from_prev = true;
  hops[1].addr_mask = ~uint64_t{0xF};
  hops[1].addr_shift = 4;
  bool posted = false;
  harness_->Run(
      [&] { posted = cqp_->PostChain(11, local_, hops, 2).ok(); });
  ASSERT_TRUE(posted);
  auto wcs = DrainN(1);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].wr_id, 11u);
  EXPECT_EQ(wcs[0].status, StatusCode::kOk);
  EXPECT_EQ(wcs[0].opcode, rdma::Opcode::kChain);
  // Both read hops landed: the pointer word and the chased payload.
  EXPECT_EQ(wcs[0].byte_len, 8 + sizeof(msg));
  uint64_t landed_word = 0;
  std::memcpy(&landed_word, local_->data(), sizeof(landed_word));
  EXPECT_EQ(landed_word, word);
  EXPECT_EQ(std::memcmp(local_->data() + 64, msg, sizeof(msg)), 0);
}

TEST_P(BackendRdmaTest, ChainWaitOnCqGatesDependentHop) {
  // A write hop followed by a read of the SAME remote range: the read
  // fires only after the write's completion (WAIT-on-CQ), so it must
  // observe the written bytes, not the old contents.
  std::memset(remote_->data(), 0, 64);
  const char msg[] = "write-then-read, in order";
  std::memcpy(local_->data(), msg, sizeof(msg));
  rdma::ChainHop hops[2];
  hops[0].key = remote_->remote_key();
  hops[0].remote_offset = 32;
  hops[0].local_offset = 0;
  hops[0].len = sizeof(msg);
  hops[0].is_write = true;
  hops[1].key = remote_->remote_key();
  hops[1].remote_offset = 32;
  hops[1].local_offset = 4096;
  hops[1].len = sizeof(msg);
  bool posted = false;
  harness_->Run(
      [&] { posted = cqp_->PostChain(12, local_, hops, 2).ok(); });
  ASSERT_TRUE(posted);
  auto wcs = DrainN(1);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kOk);
  EXPECT_EQ(wcs[0].byte_len, sizeof(msg));  // only the read hop lands
  EXPECT_EQ(std::memcmp(remote_->data() + 32, msg, sizeof(msg)), 0);
  EXPECT_EQ(std::memcmp(local_->data() + 4096, msg, sizeof(msg)), 0);
}

TEST_P(BackendRdmaTest, ChainAbortsOnStaleEpochMidChainWithZeroBytes) {
  // Hop 0 is fine; hop 1 carries a stale epoch; hop 2 would write. The
  // chain must deliver ONE poisoned completion with byte_len 0, land no
  // read bytes locally, and never execute the write hop.
  const uint64_t word = 512;
  std::memcpy(remote_->data(), &word, sizeof(word));
  std::memset(remote_->data() + 2048, 0, 16);
  std::memset(local_->data(), 0, 256);
  std::memset(local_->data() + 128, 0x7C, 16);  // write-hop source
  rdma::RemoteKey stale = remote_->remote_key();
  stale.epoch -= 1;  // models racing an epoch bump between hops
  rdma::ChainHop hops[3];
  hops[0].key = remote_->remote_key();
  hops[0].remote_offset = 0;
  hops[0].local_offset = 0;
  hops[0].len = 8;
  hops[1].key = stale;
  hops[1].remote_offset = 0;
  hops[1].local_offset = 64;
  hops[1].len = 64;
  hops[1].addr_from_prev = true;
  hops[2].key = remote_->remote_key();
  hops[2].remote_offset = 2048;
  hops[2].local_offset = 128;
  hops[2].len = 16;
  hops[2].is_write = true;
  bool posted = false;
  harness_->Run(
      [&] { posted = cqp_->PostChain(13, local_, hops, 3).ok(); });
  ASSERT_TRUE(posted);
  auto wcs = DrainN(1);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].wr_id, 13u);
  EXPECT_EQ(wcs[0].status, StatusCode::kProtectionError);
  EXPECT_EQ(wcs[0].byte_len, 0u);
  // Zero bytes touched past the fence: no read payload landed locally
  // (not even hop 0's), and the tail write hop never ran.
  for (int i = 0; i < 128; i++) {
    ASSERT_EQ(local_->data()[i], 0) << "aborted chain landed byte " << i;
  }
  for (int i = 0; i < 16; i++) {
    ASSERT_EQ(remote_->data()[2048 + i], 0)
        << "tail write hop ran at byte " << i;
  }
  // The QP stays usable after an aborted chain.
  harness_->Run([&] {
    posted = cqp_->PostRead(14, local_, 0, remote_->remote_key(), 0, 8).ok();
  });
  ASSERT_TRUE(posted);
  wcs = DrainN(1);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kOk);
}

TEST_P(BackendRdmaTest, ChainDeliversExactlyOneCompletionAndOneNotify) {
  // Park-through-chain contract: a parked poller is woken once per
  // chain, not once per hop. Counted at the CQ notifier — the exact
  // doorbell sim::Poller parks against.
  auto notifies = std::make_shared<std::atomic<uint64_t>>(0);
  const uint64_t word = 256;
  std::memcpy(remote_->data(), &word, sizeof(word));
  harness_->Run([&] {
    std::atomic<uint64_t>* n = notifies.get();
    auto notify = [n] { n->fetch_add(1, std::memory_order_relaxed); };
    static_assert(sim::Simulation::Callback::fits_inline<decltype(notify)>());
    cqp_->send_cq().SetNotifier(notify);
  });

  // Baseline: two dependent plain reads ring the doorbell twice.
  bool posted = false;
  harness_->Run([&] {
    posted = cqp_->PostRead(1, local_, 0, remote_->remote_key(), 0, 8).ok();
  });
  ASSERT_TRUE(posted);
  ASSERT_EQ(DrainN(1).size(), 1u);
  harness_->Run([&] {
    posted =
        cqp_->PostRead(2, local_, 64, remote_->remote_key(), word, 32).ok();
  });
  ASSERT_TRUE(posted);
  ASSERT_EQ(DrainN(1).size(), 1u);
  EXPECT_EQ(notifies->load(), 2u);

  // The same dependent pair as one chain: one completion, one notify.
  notifies->store(0);
  rdma::ChainHop hops[2];
  hops[0].key = remote_->remote_key();
  hops[0].remote_offset = 0;
  hops[0].local_offset = 0;
  hops[0].len = 8;
  hops[1].key = remote_->remote_key();
  hops[1].remote_offset = 0;
  hops[1].local_offset = 64;
  hops[1].len = 32;
  hops[1].addr_from_prev = true;
  harness_->Run(
      [&] { posted = cqp_->PostChain(3, local_, hops, 2).ok(); });
  ASSERT_TRUE(posted);
  auto wcs = DrainN(1);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kOk);
  EXPECT_EQ(notifies->load(), 1u);
}

TEST_P(BackendRdmaTest, ChainRejectsMalformedDescriptors) {
  rdma::ChainHop hops[2];
  hops[0].key = remote_->remote_key();
  hops[0].len = 8;
  hops[1].key = remote_->remote_key();
  hops[1].len = 8;
  hops[1].addr_from_prev = true;
  harness_->Run([&] {
    // Zero hops / too many hops.
    EXPECT_FALSE(cqp_->PostChain(1, local_, hops, 0).ok());
    EXPECT_FALSE(
        cqp_->PostChain(2, local_, hops, rdma::kMaxChainHops + 1).ok());
    // A dependent hop 0 has no prior read to chase from.
    rdma::ChainHop bad[1];
    bad[0].key = remote_->remote_key();
    bad[0].len = 8;
    bad[0].addr_from_prev = true;
    EXPECT_FALSE(cqp_->PostChain(3, local_, bad, 1).ok());
    // A dependent hop after a write hop (no landed word to chase).
    rdma::ChainHop wr_then_dep[2] = {hops[0], hops[1]};
    wr_then_dep[0].is_write = true;
    EXPECT_FALSE(cqp_->PostChain(4, local_, wr_then_dep, 2).ok());
    // Local range outside the MR.
    rdma::ChainHop oob[1];
    oob[0].key = remote_->remote_key();
    oob[0].local_offset = 64 * kKiB;
    oob[0].len = 8;
    EXPECT_FALSE(cqp_->PostChain(5, local_, oob, 1).ok());
    // A shift of 64 or more has no defined result.
    rdma::ChainHop wide[2] = {hops[0], hops[1]};
    wide[1].addr_shift = 64;
    EXPECT_EQ(cqp_->PostChain(6, local_, wide, 2).code(),
              StatusCode::kInvalidArgument);
  });
}

// A chain in flight when the responder's NIC fails completes once, as
// kUnavailable with byte_len 0: a failed chain lands nothing.
TEST_P(BackendRdmaTest, NicFailureMidChainReportsZeroBytes) {
  InstallTelemetry();
  const uint64_t word = 256;
  std::memcpy(remote_->data(), &word, sizeof(word));
  rdma::ChainHop hops[2];
  hops[0].key = remote_->remote_key();
  hops[0].len = 8;
  hops[1].key = remote_->remote_key();
  hops[1].local_offset = 64;
  hops[1].len = 32;
  hops[1].addr_from_prev = true;
  const bool sim = GetParam() == Backend::kSim;
  bool posted = false;
  harness_->Run([&] {
    posted = cqp_->PostChain(21, local_, hops, 2).ok();
    // The response cannot reach the loop before this task ends.
    if (!sim) server_nic_->Fail();
  });
  ASSERT_TRUE(posted);
  if (sim) {
    // Fail once the responder ran every hop: the response is on the wire.
    while (NicCounter("rdma.chain_hops", 0) < 2) {
      ASSERT_TRUE(harness_->sim().Step());
    }
    server_nic_->Fail();
  }
  auto wcs = DrainN(1);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].wr_id, 21u);
  EXPECT_EQ(wcs[0].status, StatusCode::kUnavailable);
  EXPECT_EQ(wcs[0].byte_len, 0u);
  int more = -1;
  harness_->Await([] { return true; });
  harness_->Run([&] {
    WorkCompletion wc;
    more = cqp_->send_cq().Poll(&wc, 1);
  });
  EXPECT_EQ(more, 0);
}

std::string BackendName(const ::testing::TestParamInfo<Backend>& info) {
  return info.param == Backend::kSim ? "Sim" : "SocketLoopback";
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendRdmaTest,
                         ::testing::Values(Backend::kSim, Backend::kSocket),
                         BackendName);

// ---------------------------------------------------------------------------
// Socket streams: posts write the socket on the loop thread, workers
// write acks on the same stream, and a send that would block hands its
// remainder to the owning worker.

class SocketStreamTest : public ::testing::Test {
 protected:
  SocketStreamTest() : tel_(&h_.sim()) {
    h_.Run([&] {
      h_.fabric().set_telemetry(&tel_);
      client_nic_ = h_.fabric().NicAt(0);
    });
  }
  ~SocketStreamTest() override {
    h_.Run([&] { h_.fabric().set_telemetry(nullptr); });
  }

  /// Connects a client QP on client_nic_ to a QP on NIC `server`.
  void Connect(net::ServerId server, QueuePair** cqp, QueuePair** sqp) {
    h_.Run([&] {
      *cqp = client_nic_->CreateQueuePair(16);
      *sqp = h_.fabric().NicAt(server)->CreateQueuePair(16);
      EXPECT_TRUE((*cqp)->Connect(*sqp).ok());
    });
  }

  uint64_t CommandsEnqueued() {
    return tel_.metrics()
        .GetCounter("transport.worker_commands_enqueued")
        ->Value();
  }

  /// Pumps until `n` completions surfaced on `qp`'s send CQ.
  std::vector<WorkCompletion> DrainN(QueuePair* qp, size_t n) {
    std::vector<WorkCompletion> out;
    h_.Await([&] {
      WorkCompletion wc;
      while (qp->send_cq().Poll(&wc, 1) == 1) out.push_back(wc);
      return out.size() >= n;
    });
    return out;
  }

  SocketHarness h_;
  telemetry::Telemetry tel_;
  Nic* client_nic_ = nullptr;
};

// 8 MiB frames overrun the socket buffer, so every big write leaves a
// remainder for the owning worker to finish (EPOLLOUT), while that
// worker keeps writing acks for the peer's writes onto the same stream.
TEST_F(SocketStreamTest, BigWritesAndReverseAcksShareTheStream) {
  constexpr uint64_t kBig = 8 * kMiB;
  constexpr int kBigWrites = 3;
  constexpr int kSmallWrites = 12;
  QueuePair* cqp = nullptr;
  QueuePair* sqp = nullptr;
  Connect(1, &cqp, &sqp);
  MemoryRegion* src = nullptr;
  MemoryRegion* dst = nullptr;
  MemoryRegion* back_src = nullptr;
  MemoryRegion* back_dst = nullptr;
  h_.Run([&] {
    src = client_nic_->RegisterMemory(kBig);
    back_dst = client_nic_->RegisterMemory(64 * kKiB);
    dst = h_.fabric().NicAt(1)->RegisterMemory(kBigWrites * kBig);
    back_src = h_.fabric().NicAt(1)->RegisterMemory(64 * kKiB);
  });
  auto fill = [](int write, uint8_t* out) {
    for (uint64_t i = 0; i < kBig; i++) {
      out[i] = static_cast<uint8_t>((i * 131 + i / 4093 + write * 71) & 0xff);
    }
  };
  for (uint64_t i = 0; i < 64 * kKiB; i++) {
    back_src->data()[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  h_.Run([&] {
    int small = 0;
    for (int w = 0; w < kBigWrites; w++) {
      // The same source buffer, rewritten after every post: each frame
      // must carry the bytes as they were at its post.
      fill(w, src->data());
      EXPECT_TRUE(cqp->PostWrite(w, src, 0, dst->remote_key(), w * kBig, kBig)
                      .ok());
      for (int k = 0; k < kSmallWrites / kBigWrites; k++, small++) {
        EXPECT_TRUE(sqp->PostWrite(100 + small, back_src, small * 4 * kKiB,
                                   back_dst->remote_key(), small * 4 * kKiB,
                                   4 * kKiB)
                        .ok());
      }
    }
  });
  const auto big = DrainN(cqp, kBigWrites);
  const auto back = DrainN(sqp, kSmallWrites);
  ASSERT_EQ(big.size(), static_cast<size_t>(kBigWrites));
  ASSERT_EQ(back.size(), static_cast<size_t>(kSmallWrites));
  std::vector<uint8_t> want(kBig);
  for (int w = 0; w < kBigWrites; w++) {
    EXPECT_EQ(big[w].wr_id, static_cast<uint64_t>(w));
    EXPECT_EQ(big[w].status, StatusCode::kOk);
    fill(w, want.data());
    EXPECT_EQ(std::memcmp(dst->data() + w * kBig, want.data(), kBig), 0)
        << "write " << w << " landed corrupted";
  }
  for (int k = 0; k < kSmallWrites; k++) {
    EXPECT_EQ(back[k].wr_id, static_cast<uint64_t>(100 + k));
    EXPECT_EQ(back[k].status, StatusCode::kOk);
  }
  EXPECT_EQ(std::memcmp(back_dst->data(), back_src->data(),
                        kSmallWrites * 4 * kKiB),
            0);
}

// The listener side binds a dialed stream through the loop's mailbox,
// but the dialer's first requests land in its memory straight from the
// worker. A listener QP answering them before the bind ran must still
// find its stream.
TEST_F(SocketStreamTest, ListenerPostsBeforeTheBindReachesTheLoop) {
  MemoryRegion* local = nullptr;
  MemoryRegion* remote = nullptr;
  bool landed = false;
  Status answer = Status::Internal("unset");
  QueuePair* cqp = nullptr;
  QueuePair* sqp = nullptr;
  h_.Run([&] {
    local = client_nic_->RegisterMemory(4 * kKiB);
    remote = h_.fabric().NicAt(1)->RegisterMemory(4 * kKiB);
    cqp = client_nic_->CreateQueuePair(16);
    sqp = h_.fabric().NicAt(1)->CreateQueuePair(16);
    ASSERT_TRUE(cqp->Connect(sqp).ok());
    const uint64_t word = 0x5EED;
    std::memcpy(local->data(), &word, sizeof(word));
    ASSERT_TRUE(
        cqp->PostWrite(1, local, 0, remote->remote_key(), 0, 8).ok());
    // Hold the loop until the request has landed: the bind queued
    // behind it in the mailbox cannot run meanwhile.
    const uint64_t deadline = WallClockDriver::MonotonicNs() + 5'000'000'000;
    while (!landed && WallClockDriver::MonotonicNs() < deadline) {
      landed = std::atomic_ref<uint64_t>(
                   *reinterpret_cast<uint64_t*>(remote->data()))
                   .load(std::memory_order_acquire) == word;
    }
    answer = sqp->PostWrite(2, remote, 0, local->remote_key(), 64, 8);
  });
  ASSERT_TRUE(landed);
  ASSERT_TRUE(answer.ok()) << answer.ToString();
  const auto wcs = DrainN(sqp, 1);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kOk);
  ASSERT_EQ(DrainN(cqp, 1).size(), 1u);
}

// A post from the loop writes the socket itself: once the streams are
// up, no post, ack or response hands a worker a command.
TEST_F(SocketStreamTest, SteadyStatePostsEnqueueNoWorkerCommands) {
  const uint64_t before_connect = CommandsEnqueued();
  QueuePair* cqp = nullptr;
  QueuePair* sqp = nullptr;
  Connect(1, &cqp, &sqp);
  MemoryRegion* local = nullptr;
  MemoryRegion* remote = nullptr;
  h_.Run([&] {
    local = client_nic_->RegisterMemory(64 * kKiB);
    remote = h_.fabric().NicAt(1)->RegisterMemory(64 * kKiB);
  });
  // Warm-up: the accepted stream's set-up (install on its worker, the
  // kConnect bind) finishes before the measured window.
  h_.Run([&] {
    EXPECT_TRUE(cqp->PostWrite(0, local, 0, remote->remote_key(), 0, 64).ok());
  });
  ASSERT_EQ(DrainN(cqp, 1).size(), 1u);
  const uint64_t steady = CommandsEnqueued();
  EXPECT_GT(steady, before_connect) << "connection set-up is not counted";

  constexpr int kRounds = 50;
  for (int r = 0; r < kRounds; r++) {
    h_.Run([&] {
      EXPECT_TRUE(sqp->PostRecv(r, remote, 4096, 64).ok());
      EXPECT_TRUE(cqp->PostSend(r, local, 0, 64).ok());
      EXPECT_TRUE(
          cqp->PostWrite(r, local, 0, remote->remote_key(), 0, 256).ok());
      EXPECT_TRUE(
          cqp->PostRead(r, local, 512, remote->remote_key(), 0, 256).ok());
      EXPECT_TRUE(
          sqp->PostWrite(r, remote, 8192, local->remote_key(), 1024, 64).ok());
    });
    ASSERT_EQ(DrainN(cqp, 3).size(), 3u);
    ASSERT_EQ(DrainN(sqp, 1).size(), 1u);
  }
  EXPECT_EQ(CommandsEnqueued(), steady);
}

// Break()/Fail() on the loop while the loop keeps posting and the
// streams still carry big frames: the worker closing the fd races the
// loop's direct sends and the EPOLLOUT remainder. Every post fails at
// post time or completes exactly once, as kOk (acked before the break)
// or kUnavailable (flushed).
TEST_F(SocketStreamTest, BreakAndFailRacePostsFromTheLoop) {
  constexpr uint64_t kLen = 256 * kKiB;
  MemoryRegion* local = nullptr;
  h_.Run([&] { local = client_nic_->RegisterMemory(kLen); });
  for (net::ServerId server = 1; server <= 6; server++) {
    QueuePair* cqp = nullptr;
    QueuePair* sqp = nullptr;
    Connect(server, &cqp, &sqp);
    MemoryRegion* remote = nullptr;
    h_.Run([&] { remote = h_.fabric().NicAt(server)->RegisterMemory(kLen); });
    int accepted = 0;
    int rejected = 0;
    auto burst = [&] {
      for (int i = 0; i < 4; i++) {
        if (cqp->PostWrite(accepted, local, 0, remote->remote_key(), 0, kLen)
                .ok()) {
          accepted++;
        } else {
          rejected++;
        }
      }
    };
    // The break lands between bursts posted as separate loop tasks, so
    // it meets frames still queued for EPOLLOUT and acks in flight.
    for (int b = 0; b < 3; b++) h_.driver().Post(burst);
    h_.driver().Post([&, server, cqp, sqp] {
      switch (server % 3) {
        case 0:
          h_.fabric().NicAt(server)->Fail();
          break;
        case 1:
          sqp->Break();  // the client learns it from the stream closing
          break;
        default:
          cqp->Break();
          break;
      }
    });
    for (int b = 0; b < 3; b++) h_.driver().Post(burst);
    ASSERT_TRUE(h_.Await([&] { return cqp->broken(); }));
    h_.Run(burst);
    int completed = 0;
    ASSERT_TRUE(h_.Await([&] {
      WorkCompletion wc;
      while (cqp->send_cq().Poll(&wc, 1) == 1) {
        EXPECT_EQ(wc.wr_id, static_cast<uint64_t>(completed));
        EXPECT_TRUE(wc.status == StatusCode::kOk ||
                    wc.status == StatusCode::kUnavailable)
            << static_cast<int>(wc.status);
        completed++;
      }
      return completed == accepted;
    })) << completed << " of " << accepted << " posts completed";
    EXPECT_GT(rejected, 0);
    EXPECT_EQ(accepted + rejected, 28);
  }
}

// The responder holds a kChain frame from any peer, possibly another
// process, to the shape rules a local PostChain enforces: a malformed
// chain is refused whole, before any hop touches memory.
TEST_F(SocketStreamTest, MalformedChainFramesAreRefusedWhole) {
  constexpr uint64_t kLen = 4 * kKiB;
  MemoryRegion* remote = nullptr;
  uint64_t qp_token = 0;
  std::vector<uint8_t> before;
  h_.Run([&] {
    Nic* server = h_.fabric().NicAt(1);
    remote = server->RegisterMemory(kLen);
    for (uint64_t i = 0; i < kLen; i++) remote->data()[i] = (i * 13) & 0xff;
    const uint64_t word = 512;
    std::memcpy(remote->data(), &word, sizeof(word));
    before.assign(remote->data(), remote->data() + kLen);
    // An unconnected QP for the raw stream to bind to.
    qp_token = static_cast<transport::SocketQueuePair*>(
                   server->CreateQueuePair(16))
                   ->token();
  });

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<SocketFabric&>(h_.fabric()).port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                    sizeof(addr)),
            0);
  struct timeval timeout = {5, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  auto send_all = [fd](const std::vector<uint8_t>& buf) {
    return ::send(fd, buf.data(), buf.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(buf.size());
  };
  transport::FrameHeader connect_hdr;
  connect_hdr.type = static_cast<uint8_t>(transport::FrameType::kConnect);
  connect_hdr.aux = qp_token;
  ASSERT_TRUE(send_all(transport::EncodeFrame(connect_hdr, nullptr, 0)));

  // Each chain ends in a 16 B write hop that must never run.
  auto hop = [&](uint64_t remote_offset, uint64_t len, uint8_t flags) {
    transport::ChainHopWire w;
    w.rkey = remote->remote_key().rkey;
    w.epoch = remote->remote_key().epoch;
    w.remote_offset = remote_offset;
    w.len = len;
    w.addr_mask = ~uint64_t{0};
    w.flags = flags;
    return w;
  };
  using Wire = transport::ChainHopWire;
  transport::ChainHopWire shift64 = hop(0, 16, Wire::kAddrFromPrev);
  shift64.addr_shift = 64;
  const std::vector<std::vector<transport::ChainHopWire>> chains = {
      {hop(0, 8, 0), shift64, hop(1024, 16, Wire::kIsWrite)},
      {hop(0, 8, Wire::kAddrFromPrev), hop(1024, 16, Wire::kIsWrite)},
  };
  for (size_t c = 0; c < chains.size(); c++) {
    const auto& hops = chains[c];
    std::vector<uint8_t> payload(hops.size() * sizeof(Wire) + 16, 0xEE);
    std::memcpy(payload.data(), hops.data(), hops.size() * sizeof(Wire));
    transport::FrameHeader h;
    h.type = static_cast<uint8_t>(transport::FrameType::kChain);
    h.token = 100 + c;
    h.aux = hops.size();
    ASSERT_TRUE(
        send_all(transport::EncodeFrame(h, payload.data(), payload.size())));
    transport::FrameHeader resp;
    ASSERT_EQ(recv(fd, &resp, sizeof(resp), MSG_WAITALL),
              static_cast<ssize_t>(sizeof(resp)))
        << "no answer to chain " << c;
    EXPECT_EQ(resp.type,
              static_cast<uint8_t>(transport::FrameType::kChainResp));
    EXPECT_EQ(resp.token, 100 + c);
    EXPECT_EQ(resp.status, static_cast<uint8_t>(StatusCode::kInvalidArgument))
        << "chain " << c;
    EXPECT_EQ(resp.aux, 0u) << "chain " << c << " ran hops";
    std::vector<uint8_t> data(resp.payload_len);
    if (!data.empty()) {
      ASSERT_EQ(recv(fd, data.data(), data.size(), MSG_WAITALL),
                static_cast<ssize_t>(data.size()));
    }
  }
  close(fd);
  bool untouched = false;
  h_.Run([&] {
    untouched = std::memcmp(remote->data(), before.data(), kLen) == 0;
  });
  EXPECT_TRUE(untouched) << "a refused chain changed remote bytes";
}

// ---------------------------------------------------------------------------
// Differential test: one seeded op script runs on both backends. Ops in
// one step touch disjoint remote ranges, so the outcome depends on the
// responder rules alone, never on timing: every step must give the same
// statuses and byte counts, and the regions and the responder counters
// must end up the same.

struct ScriptOutcome {
  std::vector<std::string> events;
  std::vector<uint8_t> local;
  std::vector<uint8_t> remote;
  std::vector<uint8_t> dropped;  // as it was when deregistered
  std::vector<uint64_t> counters;
};

ScriptOutcome RunOpScript(BackendHarness& h, uint64_t seed) {
  constexpr uint64_t kLane = 4 * kKiB;
  constexpr int kRemoteLanes = 16;   // lanes of `remote`
  constexpr int kLanes = 20;         // then 4 lanes of `dropped`
  constexpr int kSteps = 240;
  constexpr int kRevokeStep = kSteps / 3;
  constexpr int kDeregisterStep = kSteps / 2;
  constexpr int kFailStep = kSteps * 9 / 10;

  ScriptOutcome out;
  telemetry::Telemetry tel(&h.sim());
  Nic* client = nullptr;
  Nic* server = nullptr;
  QueuePair* cqp = nullptr;
  QueuePair* sqp = nullptr;
  MemoryRegion* local = nullptr;
  MemoryRegion* remote = nullptr;
  MemoryRegion* dropped = nullptr;
  rdma::RemoteKey first_key;  // stale once `remote` is revoked
  Rng fill(seed * 31 + 7);
  h.Run([&] {
    h.fabric().set_telemetry(&tel);
    client = h.fabric().NicAt(0);
    server = h.fabric().NicAt(1);
    cqp = client->CreateQueuePair(16);
    sqp = server->CreateQueuePair(16);
    EXPECT_TRUE(cqp->Connect(sqp).ok());
    local = client->RegisterMemory(kLanes * kLane);
    remote = server->RegisterMemory(kRemoteLanes * kLane);
    dropped = server->RegisterMemory((kLanes - kRemoteLanes) * kLane);
    first_key = remote->remote_key();
    for (MemoryRegion* mr : {local, remote, dropped}) {
      for (uint64_t i = 0; i < mr->size(); i++) {
        mr->data()[i] = static_cast<uint8_t>(fill.Next());
      }
    }
    // Each remote lane starts with a tagged pointer into itself.
    for (MemoryRegion* mr : {remote, dropped}) {
      for (uint64_t base = 0; base < mr->size(); base += kLane) {
        const uint64_t word = (fill.Uniform(2048) << 4) | fill.Uniform(16);
        std::memcpy(mr->data() + base, &word, sizeof(word));
      }
    }
  });

  Rng rng(seed);
  for (int step = 0; step < kSteps; step++) {
    if (step == kRevokeStep) {
      h.Run([&] { remote->RevokeEpoch(); });
      continue;
    }
    if (step == kDeregisterStep) {
      h.Run([&] {
        out.dropped.assign(dropped->data(), dropped->data() + dropped->size());
        server->DeregisterMemory(dropped);
      });
      continue;
    }
    if (step == kFailStep) {
      h.Run([&] { server->Fail(); });
      continue;
    }
    // Pick this step's ops from the seed alone, each on its own lane.
    std::vector<std::function<Status()>> posts;
    bool sent = false;
    uint64_t lanes_used = 0;
    const int num_ops = 1 + static_cast<int>(rng.Uniform(3));
    for (int k = 0; k < num_ops; k++) {
      uint64_t lane = rng.Uniform(kLanes);
      while (lanes_used & (uint64_t{1} << lane)) lane = (lane + 1) % kLanes;
      lanes_used |= uint64_t{1} << lane;
      const bool in_remote = lane < kRemoteLanes;
      const uint64_t base = (in_remote ? lane : lane - kRemoteLanes) * kLane;
      const uint64_t lbase = lane * kLane;
      const bool use_first_key = rng.Uniform(4) == 0;
      auto key = [=, &remote, &dropped, &first_key] {
        if (!in_remote) return dropped->remote_key();
        return use_first_key ? first_key : remote->remote_key();
      };
      auto target = [=, &remote, &dropped] {
        return in_remote ? remote->remote_key() : dropped->remote_key();
      };
      const uint64_t wr = static_cast<uint64_t>(step) * 8 + k;
      const uint64_t off = rng.Uniform(kLane - 1);
      const uint64_t len =
          1 + rng.Uniform(std::min<uint64_t>(kLane - off, 1024));
      uint64_t kind = rng.Uniform(20);
      if (kind >= 7 && kind < 10 && (sent || !in_remote)) kind = 5;
      if (kind < 5) {
        posts.push_back([=, &cqp, &local] {
          return cqp->PostWrite(wr, local, lbase + off, key(), base + off, len);
        });
      } else if (kind < 7) {
        posts.push_back([=, &cqp, &local] {
          return cqp->PostRead(wr, local, lbase + off, key(), base + off, len);
        });
      } else if (kind < 10) {
        // SEND into a receive posted on the same lane; sometimes too
        // small, sometimes missing.
        sent = true;
        const uint64_t cap = rng.Uniform(8) == 0 ? len / 2 : len;
        const bool recv = rng.Uniform(8) != 0;
        posts.push_back([=, &cqp, &sqp, &remote, &local] {
          if (recv) {
            const Status r = sqp->PostRecv(wr, remote, base + off, cap);
            if (!r.ok()) return r;
          }
          return cqp->PostSend(wr, local, lbase + off, len);
        });
      } else if (kind < 11) {
        // Remote out of bounds: past the end of the region.
        const bool write = rng.Uniform(2) == 0;
        posts.push_back([=, &cqp, &local] {
          const uint64_t past = kRemoteLanes * kLane + off;
          return write ? cqp->PostWrite(wr, local, lbase, target(), past, len)
                       : cqp->PostRead(wr, local, lbase, target(), past, len);
        });
      } else {
        // A pointer chase inside the lane: read the tagged word, follow
        // it (mask keeps the target in the lane), maybe write a tail.
        rdma::ChainHop hops[3];
        const uint32_t n = 2 + static_cast<uint32_t>(rng.Uniform(2));
        hops[0].remote_offset = base;
        hops[0].local_offset = lbase;
        hops[0].len = 8;
        hops[1].remote_offset = base;
        hops[1].local_offset = lbase + 64;
        hops[1].len = 1 + rng.Uniform(512);
        hops[1].addr_from_prev = true;
        hops[1].addr_mask = uint64_t{0x7FF0};
        hops[1].addr_shift = 4;
        hops[2].remote_offset = base + 2600 + rng.Uniform(1000);
        hops[2].local_offset = lbase + 3000;
        hops[2].len = 1 + rng.Uniform(256);
        hops[2].is_write = true;
        const uint64_t variant = rng.Uniform(10);
        if (variant == 0) hops[1].addr_shift = 64;         // refused
        if (variant == 1) hops[0].addr_from_prev = true;   // refused
        if (variant == 2) {                                // aborts at hop 1
          hops[1].addr_from_prev = false;
          hops[1].remote_offset = kRemoteLanes * kLane - 4;
        }
        const uint64_t stale_hop = rng.Uniform(8);  // >= n: none stale
        posts.push_back([=, &cqp, &local, &first_key]() mutable {
          for (uint32_t i = 0; i < n; i++) {
            hops[i].key = (i == stale_hop && in_remote) ? first_key : target();
          }
          return cqp->PostChain(wr, local, hops, n);
        });
      }
    }

    size_t accepted = 0;
    h.Run([&] {
      for (size_t k = 0; k < posts.size(); k++) {
        const Status st = posts[k]();
        out.events.push_back("step " + std::to_string(step) + " op " +
                             std::to_string(k) + " post " +
                             std::string(StatusCodeToString(st.code())));
        if (st.ok()) accepted++;
      }
    });
    std::vector<WorkCompletion> wcs;
    EXPECT_TRUE(h.Await([&] {
      WorkCompletion wc;
      while (cqp->send_cq().Poll(&wc, 1) == 1) wcs.push_back(wc);
      return wcs.size() >= accepted;
    })) << "step " << step << " stalled";
    h.Run([&] {
      WorkCompletion wc;
      while (sqp->recv_cq().Poll(&wc, 1) == 1) wcs.push_back(wc);
    });
    for (const WorkCompletion& wc : wcs) {
      out.events.push_back(
          "step " + std::to_string(step) + " wr " + std::to_string(wc.wr_id) +
          " opcode " + std::to_string(static_cast<int>(wc.opcode)) + " " +
          std::string(StatusCodeToString(wc.status)) + " bytes " +
          std::to_string(wc.byte_len));
    }
  }

  h.Run([&] {
    out.local.assign(local->data(), local->data() + local->size());
    out.remote.assign(remote->data(), remote->data() + remote->size());
    for (const char* name :
         {"rdma.protection_errors", "rdma.chain_hops", "rdma.chain_aborted"}) {
      for (const char* nic : {"0", "1"}) {
        out.counters.push_back(
            tel.metrics().GetCounter(name, {{"server", nic}})->Value());
      }
    }
    h.fabric().set_telemetry(nullptr);
  });
  return out;
}

class BackendDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BackendDifferentialTest, SameScriptSameOutcomeOnBothBackends) {
  SimHarness sim;
  const ScriptOutcome want = RunOpScript(sim, GetParam());
  SocketHarness socket;
  const ScriptOutcome got = RunOpScript(socket, GetParam());
  ASSERT_FALSE(want.events.empty());
  for (size_t i = 0; i < std::min(want.events.size(), got.events.size());
       i++) {
    ASSERT_EQ(got.events[i], want.events[i]) << "first divergence, event " << i;
  }
  ASSERT_EQ(got.events.size(), want.events.size());
  EXPECT_TRUE(got.local == want.local) << "local region bytes differ";
  EXPECT_TRUE(got.remote == want.remote) << "remote region bytes differ";
  EXPECT_TRUE(got.dropped == want.dropped) << "dropped region bytes differ";
  EXPECT_EQ(got.counters, want.counters)
      << "protection_errors/chain_hops/chain_aborted on NICs 0 and 1";
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendDifferentialTest,
                         ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------------
// Full-stack slice: the unmodified CacheClient/CacheServer stack runs
// the same round trips on both backends.

class BackendCacheTest : public ::testing::TestWithParam<Backend> {
 protected:
  explicit BackendCacheTest(bool chain_reads = false) {
    if (GetParam() == Backend::kSim) {
      TestbedOptions o;
      o.pods = 2;
      o.racks_per_pod = 2;
      o.servers_per_rack = 4;
      o.client.region_bytes = 4 * kMiB;
      o.client.chain_reads = chain_reads;
      tb_ = std::make_unique<Testbed>(o);
    } else {
      LoopbackRigOptions o;
      o.servers_per_rack = 4;
      o.client.region_bytes = 4 * kMiB;
      o.client.chain_reads = chain_reads;
      rig_ = std::make_unique<LoopbackRig>(o);
    }
  }

  CacheClient& client() { return tb_ ? tb_->client() : rig_->client(); }

  void Run(const std::function<void()>& fn) {
    if (tb_) {
      fn();
    } else {
      rig_->Call(fn);
    }
  }

  bool Await(const std::function<bool()>& pred) {
    if (tb_) {
      for (int i = 0; i < 2'000'000; i++) {
        if (pred()) return true;
        if (!tb_->sim().Step()) return pred();
      }
      return pred();
    }
    return rig_->AwaitTrue(pred);
  }

  std::unique_ptr<Testbed> tb_;
  std::unique_ptr<LoopbackRig> rig_;
};

TEST_P(BackendCacheTest, OneSidedWriteReadRoundTrip) {
  Result<CacheClient::CacheId> id_or = Status::Internal("unset");
  Run([&] {
    id_or = client().CreateWithConfig(8 * kMiB, RdmaConfig{1, 0, 1, 4},
                                      /*record_bytes=*/64);
  });
  ASSERT_TRUE(id_or.ok()) << id_or.status().ToString();
  const auto id = *id_or;

  const char msg[] = "stranded memory as a cache";
  std::atomic<bool> wrote{false};
  Run([&] {
    EXPECT_TRUE(client()
                    .Write(id, 4096, msg, sizeof(msg),
                           [&](Status st) {
                             EXPECT_TRUE(st.ok()) << st.ToString();
                             wrote.store(true, std::memory_order_release);
                           })
                    .ok());
  });
  ASSERT_TRUE(Await([&] { return wrote.load(std::memory_order_acquire); }));

  char out[64] = {};
  std::atomic<bool> read{false};
  Run([&] {
    EXPECT_TRUE(client()
                    .Read(id, 4096, out, sizeof(msg),
                          [&](Status st) {
                            EXPECT_TRUE(st.ok()) << st.ToString();
                            read.store(true, std::memory_order_release);
                          })
                    .ok());
  });
  ASSERT_TRUE(Await([&] { return read.load(std::memory_order_acquire); }));
  EXPECT_STREQ(out, msg);
  Run([&] { EXPECT_TRUE(client().Delete(id).ok()); });
}

TEST_P(BackendCacheTest, BatchedTwoSidedRoundTrip) {
  Result<CacheClient::CacheId> id_or = Status::Internal("unset");
  Run([&] {
    id_or = client().CreateWithConfig(8 * kMiB, RdmaConfig{2, 1, 8, 4},
                                      /*record_bytes=*/32);
  });
  ASSERT_TRUE(id_or.ok()) << id_or.status().ToString();
  const auto id = *id_or;

  constexpr int kOps = 32;
  std::vector<std::vector<uint8_t>> payloads(kOps);
  std::atomic<int> writes_done{0};
  Run([&] {
    for (int i = 0; i < kOps; i++) {
      payloads[i].assign(32, static_cast<uint8_t>(i + 1));
      EXPECT_TRUE(client()
                      .Write(id, i * 32, payloads[i].data(), 32,
                             [&](Status st) {
                               EXPECT_TRUE(st.ok()) << st.ToString();
                               writes_done.fetch_add(1);
                             },
                             /*app_thread=*/i % 2)
                      .ok());
    }
  });
  ASSERT_TRUE(Await([&] { return writes_done.load() == kOps; }));

  std::vector<std::vector<uint8_t>> got(kOps, std::vector<uint8_t>(32));
  std::atomic<int> reads_done{0};
  Run([&] {
    for (int i = 0; i < kOps; i++) {
      EXPECT_TRUE(client()
                      .Read(id, i * 32, got[i].data(), 32,
                            [&](Status st) {
                              EXPECT_TRUE(st.ok()) << st.ToString();
                              reads_done.fetch_add(1);
                            },
                            /*app_thread=*/i % 2)
                      .ok());
    }
  });
  ASSERT_TRUE(Await([&] { return reads_done.load() == kOps; }));
  for (int i = 0; i < kOps; i++) {
    EXPECT_EQ(got[i], payloads[i]) << "record " << i;
  }
  Run([&] { EXPECT_TRUE(client().Delete(id).ok()); });
}

TEST_P(BackendCacheTest, IndirectReadFallbackChasesHopByHop) {
  // chain_reads is off in this fixture: ReadIndirect decomposes into
  // two dependent one-sided round trips (the chain_bench baseline).
  Result<CacheClient::CacheId> id_or = Status::Internal("unset");
  Run([&] {
    id_or = client().CreateWithConfig(8 * kMiB, RdmaConfig{1, 0, 1, 4},
                                      /*record_bytes=*/64);
  });
  ASSERT_TRUE(id_or.ok()) << id_or.status().ToString();
  const auto id = *id_or;

  const char msg[] = "pointer-chased record";
  const uint64_t ptr_word = 4096;  // region-relative offset of the data
  std::atomic<int> writes_done{0};
  Run([&] {
    auto wrote = [&](Status st) {
      EXPECT_TRUE(st.ok()) << st.ToString();
      writes_done.fetch_add(1);
    };
    EXPECT_TRUE(client().Write(id, 4096, msg, sizeof(msg), wrote).ok());
    EXPECT_TRUE(
        client().Write(id, 8192, &ptr_word, sizeof(ptr_word), wrote).ok());
  });
  ASSERT_TRUE(Await([&] { return writes_done.load() == 2; }));

  char out[64] = {};
  std::atomic<bool> read{false};
  Run([&] {
    EXPECT_TRUE(client()
                    .ReadIndirect(id, 8192, out, sizeof(msg),
                                  [&](Status st) {
                                    EXPECT_TRUE(st.ok()) << st.ToString();
                                    read.store(true,
                                               std::memory_order_release);
                                  })
                    .ok());
  });
  ASSERT_TRUE(Await([&] { return read.load(std::memory_order_acquire); }));
  EXPECT_STREQ(out, msg);
  Run([&] {
    const CacheClient::Stats* s = client().stats(id);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->indirect_reads, 1u);
    EXPECT_EQ(s->chain_fallbacks, 1u);
    EXPECT_EQ(s->chained_reads, 0u);
    EXPECT_TRUE(client().Delete(id).ok());
  });
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendCacheTest,
                         ::testing::Values(Backend::kSim, Backend::kSocket),
                         BackendName);

/// Same full-stack slice with Options::chain_reads on: the whole chase
/// is one chained doorbell on the client NIC.
class BackendChainCacheTest : public BackendCacheTest {
 protected:
  BackendChainCacheTest() : BackendCacheTest(/*chain_reads=*/true) {}
};

TEST_P(BackendChainCacheTest, IndirectReadUsesOneChainedDoorbell) {
  Result<CacheClient::CacheId> id_or = Status::Internal("unset");
  Run([&] {
    id_or = client().CreateWithConfig(8 * kMiB, RdmaConfig{1, 0, 1, 4},
                                      /*record_bytes=*/64);
  });
  ASSERT_TRUE(id_or.ok()) << id_or.status().ToString();
  const auto id = *id_or;

  const char msg[] = "one doorbell, one wakeup";
  const uint64_t ptr_word = 64 * kKiB;  // data parked deeper in region 0
  std::atomic<int> writes_done{0};
  Run([&] {
    auto wrote = [&](Status st) {
      EXPECT_TRUE(st.ok()) << st.ToString();
      writes_done.fetch_add(1);
    };
    EXPECT_TRUE(
        client().Write(id, 64 * kKiB, msg, sizeof(msg), wrote).ok());
    EXPECT_TRUE(
        client().Write(id, 128, &ptr_word, sizeof(ptr_word), wrote).ok());
  });
  ASSERT_TRUE(Await([&] { return writes_done.load() == 2; }));

  char out[64] = {};
  std::atomic<bool> read{false};
  Run([&] {
    EXPECT_TRUE(client()
                    .ReadIndirect(id, 128, out, sizeof(msg),
                                  [&](Status st) {
                                    EXPECT_TRUE(st.ok()) << st.ToString();
                                    read.store(true,
                                               std::memory_order_release);
                                  })
                    .ok());
  });
  ASSERT_TRUE(Await([&] { return read.load(std::memory_order_acquire); }));
  EXPECT_STREQ(out, msg);
  Run([&] {
    const CacheClient::Stats* s = client().stats(id);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->indirect_reads, 1u);
    EXPECT_EQ(s->chained_reads, 1u);
    EXPECT_EQ(s->chain_fallbacks, 0u);
    EXPECT_TRUE(client().Delete(id).ok());
  });
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendChainCacheTest,
                         ::testing::Values(Backend::kSim, Backend::kSocket),
                         BackendName);

// Two-sided parity (sim): with singleton conversion off and a message
// ring configured, ReadIndirect rides the batch path and the SERVER
// chases the pointer (protocol.h kReadPtr) — still one round trip.
TEST(IndirectReadTwoSidedTest, ServerChasesPointerInOneRoundTrip) {
  TestbedOptions o;
  o.pods = 2;
  o.racks_per_pod = 2;
  o.servers_per_rack = 4;
  o.client.region_bytes = 4 * kMiB;
  o.costs.one_sided_singletons = false;  // Testbed copies costs into client
  Testbed tb(o);
  auto id_or = tb.client().CreateWithConfig(
      8 * kMiB, RdmaConfig{2, 1, 8, 4}, /*record_bytes=*/64);
  ASSERT_TRUE(id_or.ok()) << id_or.status().ToString();
  const auto id = *id_or;

  const char msg[] = "server-side chase";
  const uint64_t ptr_word = 4096;
  int writes_done = 0;
  auto wrote = [&](Status st) {
    EXPECT_TRUE(st.ok()) << st.ToString();
    writes_done++;
  };
  ASSERT_TRUE(tb.client().Write(id, 4096, msg, sizeof(msg), wrote).ok());
  ASSERT_TRUE(
      tb.client().Write(id, 8192, &ptr_word, sizeof(ptr_word), wrote).ok());
  tb.sim().Run();
  ASSERT_EQ(writes_done, 2);

  char out[64] = {};
  bool read = false;
  ASSERT_TRUE(tb.client()
                  .ReadIndirect(id, 8192, out, sizeof(msg),
                                [&](Status st) {
                                  EXPECT_TRUE(st.ok()) << st.ToString();
                                  read = true;
                                })
                  .ok());
  tb.sim().Run();
  ASSERT_TRUE(read);
  EXPECT_STREQ(out, msg);
  const CacheClient::Stats* s = tb.client().stats(id);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->indirect_reads, 1u);
  // Served by the server-side chase: no NIC chain, no client fallback —
  // the indirect read rode the message ring like the two writes did.
  EXPECT_EQ(s->chained_reads, 0u);
  EXPECT_EQ(s->chain_fallbacks, 0u);
  EXPECT_EQ(s->batched_ops, 3u);
}

}  // namespace
}  // namespace redy
