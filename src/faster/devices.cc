#include "faster/devices.h"

#include <algorithm>

namespace redy::faster {
namespace {

/// Extract-and-release before firing: the callback may re-enter the
/// device and reuse the record.
void Fire(common::SlabPool<DeviceIo>& pool, DeviceIo* io, const Status& s) {
  IDevice::Callback cb = std::move(io->cb);
  io->cb = IDevice::Callback();
  pool.Release(io);
  if (cb) cb(s);
}

}  // namespace

void LocalMemoryDevice::ReadAsync(uint64_t offset, void* dst, uint64_t len,
                                  Callback cb) {
  store_.Read(offset, dst, len);
  DeviceIo* io = io_pool_.Acquire();
  io->cb = std::move(cb);
  auto fire = [this, io] { Fire(io_pool_, io, Status::OK()); };
  static_assert(sim::Simulation::Callback::fits_inline<decltype(fire)>(),
                "device completion must not heap-allocate");
  sim_->After(latency_ns_, fire);
}

void LocalMemoryDevice::WriteAsync(uint64_t offset, const void* src,
                                   uint64_t len, Callback cb) {
  store_.Write(offset, src, len);
  DeviceIo* io = io_pool_.Acquire();
  io->cb = std::move(cb);
  auto fire = [this, io] { Fire(io_pool_, io, Status::OK()); };
  static_assert(sim::Simulation::Callback::fits_inline<decltype(fire)>(),
                "device completion must not heap-allocate");
  sim_->After(latency_ns_, fire);
}

sim::SimTime SsdDevice::Schedule(uint64_t len, bool is_write) {
  // Least-loaded internal channel.
  auto it = std::min_element(channel_free_.begin(), channel_free_.end());
  const sim::SimTime start = std::max(*it, sim_->Now());
  uint64_t service = params_.base_latency_ns +
                     static_cast<uint64_t>(static_cast<double>(len) * 8.0 /
                                           params_.bandwidth_bps * 1e9);
  if (rng_.Bernoulli(params_.gc_probability)) {
    service += static_cast<uint64_t>(
        rng_.Exponential(static_cast<double>(params_.gc_stall_mean_ns)));
  }
  if (is_write) service += service / 4;  // program is slower than read
  *it = start + service;
  return *it;
}

void SsdDevice::ReadAsync(uint64_t offset, void* dst, uint64_t len,
                          Callback cb) {
  reads_++;
  const sim::SimTime done = Schedule(len, /*is_write=*/false);
  // Snapshot semantics: the data is captured at completion time.
  DeviceIo* io = io_pool_.Acquire();
  io->cb = std::move(cb);
  io->offset = offset;
  io->dst = dst;
  io->len = len;
  auto fire = [this, io] {
    store_.Read(io->offset, io->dst, io->len);
    Fire(io_pool_, io, Status::OK());
  };
  static_assert(sim::Simulation::Callback::fits_inline<decltype(fire)>(),
                "device completion must not heap-allocate");
  sim_->At(done, fire);
}

void SsdDevice::WriteAsync(uint64_t offset, const void* src, uint64_t len,
                           Callback cb) {
  writes_++;
  // The device DMA-reads the caller's buffer at submission.
  store_.Write(offset, src, len);
  const sim::SimTime done = Schedule(len, /*is_write=*/true);
  DeviceIo* io = io_pool_.Acquire();
  io->cb = std::move(cb);
  auto fire = [this, io] { Fire(io_pool_, io, Status::OK()); };
  static_assert(sim::Simulation::Callback::fits_inline<decltype(fire)>(),
                "device completion must not heap-allocate");
  sim_->At(done, fire);
}

sim::SimTime SmbDirectDevice::Schedule(uint64_t len) {
  auto it = std::min_element(worker_free_.begin(), worker_free_.end());
  const sim::SimTime start = std::max(*it, sim_->Now());
  const uint64_t service =
      params_.server_stack_ns +
      static_cast<uint64_t>(static_cast<double>(len) * 8.0 /
                            params_.bandwidth_bps * 1e9);
  *it = start + service;
  return *it + params_.network_rtt_ns;
}

void SmbDirectDevice::ReadAsync(uint64_t offset, void* dst, uint64_t len,
                                Callback cb) {
  const sim::SimTime done = Schedule(len);
  DeviceIo* io = io_pool_.Acquire();
  io->cb = std::move(cb);
  io->offset = offset;
  io->dst = dst;
  io->len = len;
  auto fire = [this, io] {
    store_.Read(io->offset, io->dst, io->len);
    Fire(io_pool_, io, Status::OK());
  };
  static_assert(sim::Simulation::Callback::fits_inline<decltype(fire)>(),
                "device completion must not heap-allocate");
  sim_->At(done, fire);
}

void SmbDirectDevice::WriteAsync(uint64_t offset, const void* src,
                                 uint64_t len, Callback cb) {
  store_.Write(offset, src, len);
  const sim::SimTime done = Schedule(len);
  DeviceIo* io = io_pool_.Acquire();
  io->cb = std::move(cb);
  auto fire = [this, io] { Fire(io_pool_, io, Status::OK()); };
  static_assert(sim::Simulation::Callback::fits_inline<decltype(fire)>(),
                "device completion must not heap-allocate");
  sim_->At(done, fire);
}

}  // namespace redy::faster
