#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/units.h"
#include "net/topology.h"
#include "rdma/nic.h"
#include "rdma/queue_pair.h"
#include "redy/cache_server.h"
#include "sim/simulation.h"

namespace redy {
namespace {

using rdma::Fabric;
using rdma::MemoryRegion;
using rdma::Nic;
using rdma::Opcode;
using rdma::QueuePair;
using rdma::WorkCompletion;

class RdmaTest : public ::testing::Test {
 protected:
  RdmaTest()
      : fabric_(&sim_, net::Topology(/*pods=*/2, /*racks=*/2, /*servers=*/4)) {
    client_nic_ = fabric_.NicAt(0);
    server_nic_ = fabric_.NicAt(1);  // same rack: 1 switch
    cqp_ = client_nic_->CreateQueuePair(16);
    sqp_ = server_nic_->CreateQueuePair(16);
    EXPECT_TRUE(cqp_->Connect(sqp_).ok());
  }

  // Drains the sim and returns all completions from cqp_'s send CQ.
  std::vector<WorkCompletion> Drain() {
    sim_.Run();
    std::vector<WorkCompletion> out;
    WorkCompletion wc;
    while (cqp_->send_cq().Poll(&wc, 1) == 1) out.push_back(wc);
    return out;
  }

  sim::Simulation sim_;
  Fabric fabric_;
  Nic* client_nic_;
  Nic* server_nic_;
  QueuePair* cqp_;
  QueuePair* sqp_;
};

TEST_F(RdmaTest, OneSidedWriteMovesBytes) {
  MemoryRegion* local = client_nic_->RegisterMemory(4096);
  MemoryRegion* remote = server_nic_->RegisterMemory(4096);

  const char msg[] = "hello remote memory";
  std::memcpy(local->data() + 100, msg, sizeof(msg));
  ASSERT_TRUE(cqp_->PostWrite(7, local, 100, remote->remote_key(), 200,
                              sizeof(msg))
                  .ok());
  auto wcs = Drain();
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].wr_id, 7u);
  EXPECT_EQ(wcs[0].status, StatusCode::kOk);
  EXPECT_EQ(wcs[0].opcode, Opcode::kWrite);
  EXPECT_EQ(std::memcmp(remote->data() + 200, msg, sizeof(msg)), 0);
}

TEST_F(RdmaTest, OneSidedReadMovesBytes) {
  MemoryRegion* local = client_nic_->RegisterMemory(4096);
  MemoryRegion* remote = server_nic_->RegisterMemory(4096);

  const char msg[] = "data on the server";
  std::memcpy(remote->data() + 64, msg, sizeof(msg));
  ASSERT_TRUE(
      cqp_->PostRead(9, local, 0, remote->remote_key(), 64, sizeof(msg)).ok());
  auto wcs = Drain();
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kOk);
  EXPECT_EQ(std::memcmp(local->data(), msg, sizeof(msg)), 0);
}

TEST_F(RdmaTest, SmallOpLatencyIsAFewMicroseconds) {
  // The fabric is calibrated to the paper's testbed: one-sided small ops
  // land at roughly 3-5us overall (Section 7.2, Fig. 11).
  MemoryRegion* local = client_nic_->RegisterMemory(4096);
  MemoryRegion* remote = server_nic_->RegisterMemory(4096);

  ASSERT_TRUE(cqp_->PostWrite(1, local, 0, remote->remote_key(), 0, 8).ok());
  auto wcs = Drain();
  ASSERT_EQ(wcs.size(), 1u);
  const double us = ToMicros(wcs[0].completed_at);
  EXPECT_GT(us, 1.0);
  EXPECT_LT(us, 6.0);
}

TEST_F(RdmaTest, InlineWriteIsFasterThanNonInline) {
  MemoryRegion* local = client_nic_->RegisterMemory(64 * kKiB);
  MemoryRegion* remote = server_nic_->RegisterMemory(64 * kKiB);
  const uint32_t threshold = fabric_.params().inline_threshold_bytes;

  ASSERT_TRUE(
      cqp_->PostWrite(1, local, 0, remote->remote_key(), 0, threshold).ok());
  auto wcs1 = Drain();
  ASSERT_EQ(wcs1.size(), 1u);
  const sim::SimTime t_inline = wcs1[0].completed_at;

  sim::Simulation sim2;
  Fabric fabric2(&sim2, net::Topology(2, 2, 4));
  Nic* cn = fabric2.NicAt(0);
  Nic* sn = fabric2.NicAt(1);
  QueuePair* cq = cn->CreateQueuePair(16);
  QueuePair* sq = sn->CreateQueuePair(16);
  ASSERT_TRUE(cq->Connect(sq).ok());
  MemoryRegion* l2 = cn->RegisterMemory(64 * kKiB);
  MemoryRegion* r2 = sn->RegisterMemory(64 * kKiB);
  ASSERT_TRUE(
      cq->PostWrite(1, l2, 0, r2->remote_key(), 0, threshold + 1).ok());
  sim2.Run();
  WorkCompletion wc;
  ASSERT_EQ(cq->send_cq().Poll(&wc, 1), 1);
  // The non-inline write pays the PCIe fetch.
  EXPECT_GT(wc.completed_at, t_inline);
  EXPECT_GE(wc.completed_at - t_inline, fabric2.params().pcie_fetch_ns / 2);
}

TEST_F(RdmaTest, ReadLatencyGrowsWithDistance) {
  // Servers 0 and 1 share a rack (1 hop); server 0 and the last server
  // are in different pods (5 hops).
  sim::Simulation sim2;
  Fabric fabric2(&sim2, net::Topology(2, 2, 4));
  Nic* cn = fabric2.NicAt(0);
  Nic* far = fabric2.NicAt(15);
  ASSERT_EQ(fabric2.SwitchHops(0, 1), 1);
  ASSERT_EQ(fabric2.SwitchHops(0, 15), 5);
  QueuePair* cq = cn->CreateQueuePair(16);
  QueuePair* fq = far->CreateQueuePair(16);
  ASSERT_TRUE(cq->Connect(fq).ok());
  MemoryRegion* l2 = cn->RegisterMemory(4096);
  MemoryRegion* r2 = far->RegisterMemory(4096);
  ASSERT_TRUE(cq->PostRead(1, l2, 0, r2->remote_key(), 0, 8).ok());
  sim2.Run();
  WorkCompletion far_wc;
  ASSERT_EQ(cq->send_cq().Poll(&far_wc, 1), 1);

  MemoryRegion* local = client_nic_->RegisterMemory(4096);
  MemoryRegion* remote = server_nic_->RegisterMemory(4096);
  ASSERT_TRUE(
      cqp_->PostRead(1, local, 0, remote->remote_key(), 0, 8).ok());
  auto near_wcs = Drain();
  ASSERT_EQ(near_wcs.size(), 1u);
  // 4 extra switch crossings each way.
  EXPECT_GT(far_wc.completed_at, near_wcs[0].completed_at);
}

TEST_F(RdmaTest, QueueDepthIsEnforced) {
  MemoryRegion* local = client_nic_->RegisterMemory(4096);
  MemoryRegion* remote = server_nic_->RegisterMemory(4096);
  QueuePair* qp4 = client_nic_->CreateQueuePair(4);
  QueuePair* sqp4 = server_nic_->CreateQueuePair(4);
  ASSERT_TRUE(qp4->Connect(sqp4).ok());

  int accepted = 0;
  for (int i = 0; i < 10; i++) {
    if (qp4->PostWrite(i, local, 0, remote->remote_key(), 0, 8).ok()) {
      accepted++;
    }
  }
  EXPECT_EQ(accepted, 4);
  sim_.Run();
  // After completion, the depth frees up.
  EXPECT_TRUE(qp4->PostWrite(99, local, 0, remote->remote_key(), 0, 8).ok());
}

TEST_F(RdmaTest, CompletionsArriveInPostOrder) {
  MemoryRegion* local = client_nic_->RegisterMemory(64 * kKiB);
  MemoryRegion* remote = server_nic_->RegisterMemory(64 * kKiB);
  // Mix large and small ops; completions must still be FIFO per QP.
  ASSERT_TRUE(
      cqp_->PostWrite(1, local, 0, remote->remote_key(), 0, 16 * kKiB).ok());
  ASSERT_TRUE(cqp_->PostWrite(2, local, 0, remote->remote_key(), 0, 8).ok());
  ASSERT_TRUE(
      cqp_->PostRead(3, local, 0, remote->remote_key(), 0, 8 * kKiB).ok());
  ASSERT_TRUE(cqp_->PostWrite(4, local, 0, remote->remote_key(), 0, 8).ok());
  auto wcs = Drain();
  ASSERT_EQ(wcs.size(), 4u);
  for (size_t i = 0; i < wcs.size(); i++) {
    EXPECT_EQ(wcs[i].wr_id, i + 1);
  }
  for (size_t i = 1; i < wcs.size(); i++) {
    EXPECT_GE(wcs[i].completed_at, wcs[i - 1].completed_at);
  }
}

TEST_F(RdmaTest, RemoteAccessToInvalidRegionFails) {
  MemoryRegion* local = client_nic_->RegisterMemory(4096);
  MemoryRegion* remote = server_nic_->RegisterMemory(4096);
  rdma::RemoteKey key = remote->remote_key();
  server_nic_->DeregisterMemory(remote);
  ASSERT_TRUE(cqp_->PostWrite(1, local, 0, key, 0, 8).ok());
  auto wcs = Drain();
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kProtectionError);
}

TEST_F(RdmaTest, DeregisterWhileWriteInFlightNeverTouchesBytes) {
  MemoryRegion* local = client_nic_->RegisterMemory(4096);
  MemoryRegion* remote = server_nic_->RegisterMemory(4096);
  const rdma::RemoteKey key = remote->remote_key();
  std::memset(remote->data(), 0xAB, 64);

  std::memset(local->data(), 0xCD, 64);
  ASSERT_TRUE(cqp_->PostWrite(1, local, 0, key, 0, 64).ok());
  // Deregister while the WQE is in flight. The region's storage stays
  // alive through the NIC's retirement grace period, so the old bytes
  // remain observable — and must remain untouched.
  server_nic_->DeregisterMemory(remote);

  auto wcs = Drain();
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kProtectionError);
  for (int i = 0; i < 64; i++) {
    ASSERT_EQ(remote->data()[i], 0xAB) << "freed byte " << i << " mutated";
  }
}

TEST_F(RdmaTest, StaleEpochWriteIsFencedFreshKeySucceeds) {
  MemoryRegion* local = client_nic_->RegisterMemory(4096);
  MemoryRegion* remote = server_nic_->RegisterMemory(4096);
  const rdma::RemoteKey stale = remote->remote_key();
  std::memset(remote->data(), 0, 16);

  remote->RevokeEpoch();
  std::memset(local->data(), 0x5A, 16);
  ASSERT_TRUE(cqp_->PostWrite(1, local, 0, stale, 0, 16).ok());
  auto wcs = Drain();
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kProtectionError);
  for (int i = 0; i < 16; i++) {
    ASSERT_EQ(remote->data()[i], 0) << "fenced write landed at byte " << i;
  }

  // A key minted after the revocation carries the new epoch and works.
  ASSERT_TRUE(
      cqp_->PostWrite(2, local, 0, remote->remote_key(), 0, 16).ok());
  wcs = Drain();
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kOk);
  EXPECT_EQ(remote->data()[0], 0x5A);
}

TEST_F(RdmaTest, ReadsSurviveEpochRevocation) {
  // A revoked region is write-frozen but stays readable until
  // deregistration: migration chunk copies and unpaused reads keep
  // flowing through the cutover.
  MemoryRegion* local = client_nic_->RegisterMemory(4096);
  MemoryRegion* remote = server_nic_->RegisterMemory(4096);
  const char msg[] = "still readable";
  std::memcpy(remote->data(), msg, sizeof(msg));
  const rdma::RemoteKey stale = remote->remote_key();
  remote->RevokeEpoch();

  ASSERT_TRUE(cqp_->PostRead(1, local, 0, stale, 0, sizeof(msg)).ok());
  auto wcs = Drain();
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kOk);
  EXPECT_EQ(std::memcmp(local->data(), msg, sizeof(msg)), 0);
}

TEST_F(RdmaTest, RemoteOutOfBoundsFails) {
  MemoryRegion* local = client_nic_->RegisterMemory(4096);
  MemoryRegion* remote = server_nic_->RegisterMemory(128);
  ASSERT_TRUE(
      cqp_->PostWrite(1, local, 0, remote->remote_key(), 120, 64).ok());
  auto wcs = Drain();
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kAborted);
}

TEST_F(RdmaTest, NicFailureFlushesInFlightOps) {
  MemoryRegion* local = client_nic_->RegisterMemory(4096);
  MemoryRegion* remote = server_nic_->RegisterMemory(4096);
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(
        cqp_->PostWrite(i, local, 0, remote->remote_key(), 0, 8).ok());
  }
  server_nic_->Fail();
  auto wcs = Drain();
  ASSERT_EQ(wcs.size(), 4u);
  for (const auto& wc : wcs) {
    EXPECT_EQ(wc.status, StatusCode::kUnavailable);
  }
  // New posts on a broken QP are rejected synchronously.
  EXPECT_FALSE(cqp_->PostWrite(9, local, 0, remote->remote_key(), 0, 8).ok());
}

TEST_F(RdmaTest, ServerShutdownFencesInFlightWrites) {
  // CacheServer::Shutdown deregisters every region it serves. A write
  // already in flight against one of them must complete with
  // kProtectionError and leave the (retired, still-observable) bytes
  // untouched.
  cluster::Vm vm;
  vm.id = 1;
  vm.server = 1;
  vm.memory_bytes = 64 * kMiB;
  redy::CacheServer server(&sim_, &fabric_, vm, redy::CostModel{});
  auto keys_or = server.AllocateRegions(1, 4096);
  ASSERT_TRUE(keys_or.ok());
  rdma::MemoryRegion* region = server.region(0);
  ASSERT_NE(region, nullptr);
  std::memset(region->data(), 0x11, 32);

  MemoryRegion* local = client_nic_->RegisterMemory(4096);
  std::memset(local->data(), 0x22, 32);
  ASSERT_TRUE(cqp_->PostWrite(5, local, 0, (*keys_or)[0], 0, 32).ok());
  server.Shutdown();

  auto wcs = Drain();
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kProtectionError);
  for (int i = 0; i < 32; i++) {
    ASSERT_EQ(region->data()[i], 0x11) << "freed byte " << i << " mutated";
  }
}

TEST_F(RdmaTest, ServerRegionLookupIsBoundsChecked) {
  // Revocation can look a region up on an agent that Shutdown already
  // emptied; out-of-range indices must read as "no region", never as a
  // stale pointer.
  cluster::Vm vm;
  vm.id = 1;
  vm.server = 1;
  vm.memory_bytes = 64 * kMiB;
  redy::CacheServer server(&sim_, &fabric_, vm, redy::CostModel{});
  ASSERT_TRUE(server.AllocateRegions(2, 4096).ok());
  EXPECT_NE(server.region(0), nullptr);
  EXPECT_NE(server.region(1), nullptr);
  EXPECT_EQ(server.region(2), nullptr);
  server.Shutdown();
  EXPECT_EQ(server.num_regions(), 0u);
  EXPECT_EQ(server.region(0), nullptr);
}

TEST_F(RdmaTest, SendRecvDeliversToPostedBuffer) {
  MemoryRegion* src = client_nic_->RegisterMemory(4096);
  MemoryRegion* dst = server_nic_->RegisterMemory(4096);
  const char msg[] = "rpc payload";
  std::memcpy(src->data(), msg, sizeof(msg));
  ASSERT_TRUE(sqp_->PostRecv(42, dst, 0, 4096).ok());
  ASSERT_TRUE(cqp_->PostSend(7, src, 0, sizeof(msg)).ok());
  sim_.Run();
  WorkCompletion rwc;
  ASSERT_EQ(sqp_->recv_cq().Poll(&rwc, 1), 1);
  EXPECT_EQ(rwc.wr_id, 42u);
  EXPECT_EQ(rwc.status, StatusCode::kOk);
  EXPECT_EQ(std::memcmp(dst->data(), msg, sizeof(msg)), 0);
}

TEST_F(RdmaTest, PipeliningImprovesThroughput) {
  // Queue depth q ops overlap the round trip: q=8 must finish ~8 ops in
  // scarcely more than one RTT, not 8 RTTs (fully-loaded QPs, Section 4.3).
  MemoryRegion* local = client_nic_->RegisterMemory(4096);
  MemoryRegion* remote = server_nic_->RegisterMemory(4096);

  ASSERT_TRUE(cqp_->PostWrite(0, local, 0, remote->remote_key(), 0, 8).ok());
  auto first = Drain();
  ASSERT_EQ(first.size(), 1u);
  const sim::SimTime one_rtt = first[0].completed_at;

  const sim::SimTime start = sim_.Now();
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(
        cqp_->PostWrite(i, local, 0, remote->remote_key(), 0, 8).ok());
  }
  auto wcs = Drain();
  ASSERT_EQ(wcs.size(), 8u);
  const sim::SimTime batch_time = wcs.back().completed_at - start;
  EXPECT_LT(batch_time, 3 * one_rtt);
}

}  // namespace
}  // namespace redy
