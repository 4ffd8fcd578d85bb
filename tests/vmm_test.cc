#include "src/vmm/virtual_block_device.h"
#include "src/vmm/vm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <span>
#include <vector>

#include "src/microkernel/kernel.h"
#include "src/sim/simulator.h"
#include "src/storage/block_device.h"

namespace rlvmm {
namespace {

using rlkern::Kernel;
using rlkern::KernelStatus;
using rlkern::ObjectType;
using rlkern::SlotAddr;
using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;
using rlsim::TimePoint;
using rlstor::BlockStatus;

TEST(VirtualMachineTest, ComputeChargesOverhead) {
  Simulator sim;
  VirtualMachine vm(sim);
  sim.Spawn([](VirtualMachine& v) -> Task<void> {
    co_await v.Compute(Duration::Millis(10));
  }(vm));
  sim.Run();
  // 5% virtualisation overhead.
  EXPECT_EQ(sim.now(), TimePoint::Origin() + Duration::Micros(10'500));
}

TEST(VirtualMachineTest, CrashUnwindsGuestWork) {
  Simulator sim;
  VirtualMachine vm(sim);
  bool crashed_seen = false;
  bool finished = false;
  sim.Spawn([](VirtualMachine& v, bool& crashed, bool& done) -> Task<void> {
    try {
      co_await v.Compute(Duration::Millis(10));
      done = true;
    } catch (const GuestCrashed&) {
      crashed = true;
    }
  }(vm, crashed_seen, finished));
  sim.Schedule(Duration::Millis(5), [&] { vm.Crash(); });
  sim.Run();
  EXPECT_TRUE(crashed_seen);
  EXPECT_FALSE(finished);
}

TEST(VirtualMachineTest, ResetBumpsIncarnation) {
  Simulator sim;
  VirtualMachine vm(sim);
  const uint64_t before = vm.incarnation();
  vm.Crash();
  vm.Reset();
  EXPECT_EQ(vm.incarnation(), before + 1);
  EXPECT_TRUE(vm.running());
}

TEST(VirtualMachineTest, StaleIncarnationDetected) {
  Simulator sim;
  VirtualMachine vm(sim);
  const uint64_t old = vm.incarnation();
  vm.Crash();
  vm.Reset();
  EXPECT_THROW(vm.CheckAlive(old), GuestCrashed);
  vm.CheckAlive(vm.incarnation());  // current one is fine
}

// Full paravirtual stack: guest -> VM exit -> kernel IPC -> backend ->
// physical disk, and back.
struct StackFixture {
  explicit StackFixture(
      rlstor::WriteCachePolicy policy = rlstor::WriteCachePolicy::kWriteBack)
      : kernel(sim),
        vm(sim),
        disk(sim,
             rlstor::SimBlockDevice::Options{
                 .geometry = {.sector_count = 1 << 16},
                 .cache_policy = policy},
             rlstor::MakeDefaultHdd()) {
    root = kernel.BootstrapCNode(64);
    EXPECT_EQ(kernel.BootstrapUntyped(root, 0, 1 << 20), KernelStatus::kOk);
    EXPECT_EQ(kernel.Retype(SlotAddr{root, 0}, ObjectType::kEndpoint, 0, root,
                            1, 1),
              KernelStatus::kOk);
    backend = std::make_unique<BlockBackend>(sim, kernel, SlotAddr{root, 1},
                                             disk);
    backend->Start();
    vdisk = std::make_unique<VirtualBlockDevice>(sim, vm, kernel,
                                                 SlotAddr{root, 1},
                                                 disk.geometry(),
                                                 disk.volatile_write_cache());
  }

  Simulator sim;
  Kernel kernel;
  VirtualMachine vm;
  rlstor::SimBlockDevice disk;
  rlkern::ObjectId root = rlkern::kNullObject;
  std::unique_ptr<BlockBackend> backend;
  std::unique_ptr<VirtualBlockDevice> vdisk;
};

TEST(VirtualBlockDeviceTest, WriteReadRoundTrip) {
  StackFixture f;
  BlockStatus wst = BlockStatus::kDeviceOff;
  BlockStatus rst = BlockStatus::kDeviceOff;
  std::vector<uint8_t> got(1024);
  f.sim.Spawn([](VirtualBlockDevice& d, BlockStatus& w, BlockStatus& r,
                 std::vector<uint8_t>& out) -> Task<void> {
    const std::vector<uint8_t> data(1024, 0x42);
    w = co_await d.Write(10, data, false);
    r = co_await d.Read(10, out);
  }(*f.vdisk, wst, rst, got));
  f.sim.Run();
  EXPECT_EQ(wst, BlockStatus::kOk);
  EXPECT_EQ(rst, BlockStatus::kOk);
  EXPECT_EQ(got, std::vector<uint8_t>(1024, 0x42));
  EXPECT_EQ(f.backend->requests_served(), 2u);
}

TEST(VirtualBlockDeviceTest, VirtualisationAddsLatency) {
  StackFixture f;
  Duration direct_latency;
  Duration virt_latency;
  f.sim.Spawn([](Simulator& s, StackFixture& fx, Duration& direct,
                 Duration& virt) -> Task<void> {
    const std::vector<uint8_t> data(512, 1);
    TimePoint t0 = s.now();
    co_await fx.disk.Write(0, data, false);
    direct = s.now() - t0;
    t0 = s.now();
    co_await fx.vdisk->Write(8, data, false);
    virt = s.now() - t0;
  }(f.sim, f, direct_latency, virt_latency));
  f.sim.Run();
  EXPECT_GT(virt_latency, direct_latency);
  // Overhead is microseconds, not milliseconds.
  EXPECT_LT(virt_latency - direct_latency, Duration::Micros(50));
}

TEST(VirtualBlockDeviceTest, FlushForwardedToBackend) {
  StackFixture f;
  BlockStatus fst = BlockStatus::kDeviceOff;
  f.sim.Spawn([](VirtualBlockDevice& d, BlockStatus& out) -> Task<void> {
    co_await d.Write(0, std::vector<uint8_t>(512, 9), false);
    out = co_await d.Flush();
  }(*f.vdisk, fst));
  f.sim.Run();
  EXPECT_EQ(fst, BlockStatus::kOk);
  EXPECT_TRUE(f.disk.image().IsDurable(0));
}

TEST(VirtualBlockDeviceTest, FlushToCacheFreeBackendCompletesInGuest) {
  // The backend answered "no volatile cache" at probe time: a flush costs no
  // VM exit and no backend request, and takes no time.
  StackFixture f(rlstor::WriteCachePolicy::kBatteryBackedWriteBack);
  EXPECT_FALSE(f.vdisk->volatile_write_cache());
  BlockStatus fst = BlockStatus::kDeviceOff;
  Duration flush_latency = Duration::Seconds(1);
  f.sim.Spawn([](Simulator& s, VirtualBlockDevice& d, BlockStatus& out,
                 Duration& lat) -> Task<void> {
    co_await d.Write(0, std::vector<uint8_t>(512, 9), false);
    const TimePoint t0 = s.now();
    out = co_await d.Flush();
    lat = s.now() - t0;
  }(f.sim, *f.vdisk, fst, flush_latency));
  f.sim.Run();
  EXPECT_EQ(fst, BlockStatus::kOk);
  EXPECT_EQ(flush_latency, Duration::Zero());
  EXPECT_TRUE(f.disk.image().IsDurable(0));
  EXPECT_EQ(f.backend->requests_served(), 1u);
  EXPECT_EQ(f.vdisk->stats().flushes.value(), 0);
  EXPECT_EQ(f.vdisk->stats().elided_flushes.value(), 1);
}

TEST(VirtualBlockDeviceTest, FlushToWriteBackBackendIsARequest) {
  StackFixture f;
  EXPECT_TRUE(f.vdisk->volatile_write_cache());
  f.sim.Spawn([](VirtualBlockDevice& d) -> Task<void> {
    EXPECT_EQ(co_await d.Flush(), BlockStatus::kOk);
  }(*f.vdisk));
  f.sim.Run();
  EXPECT_EQ(f.backend->requests_served(), 1u);
  EXPECT_EQ(f.vdisk->stats().flushes.value(), 1);
  EXPECT_EQ(f.vdisk->stats().elided_flushes.value(), 0);
}

TEST(VirtualBlockDeviceTest, ElidedFlushOfACrashedGuestUnwinds) {
  StackFixture f(rlstor::WriteCachePolicy::kBatteryBackedWriteBack);
  f.vm.Crash();
  bool crashed_seen = false;
  f.sim.Spawn([](VirtualBlockDevice& d, bool& crashed) -> Task<void> {
    try {
      co_await d.Flush();
    } catch (const GuestCrashed&) {
      crashed = true;
    }
  }(*f.vdisk, crashed_seen));
  f.sim.Run();
  EXPECT_TRUE(crashed_seen);
}

TEST(VirtualBlockDeviceTest, GuestCrashDuringIoUnwinds) {
  StackFixture f;
  bool crashed_seen = false;
  f.sim.Spawn([](VirtualBlockDevice& d, bool& crashed) -> Task<void> {
    try {
      // FUA write: slow mechanical path so the crash lands mid-request.
      co_await d.Write(0, std::vector<uint8_t>(512, 7), /*fua=*/true);
    } catch (const GuestCrashed&) {
      crashed = true;
    }
  }(*f.vdisk, crashed_seen));
  f.sim.Schedule(Duration::Micros(100), [&] { f.vm.Crash(); });
  f.sim.Run();
  EXPECT_TRUE(crashed_seen);
  // The write had left the guest before the crash: it still lands.
  EXPECT_TRUE(f.disk.image().IsDurable(0));
  // The backend took the call and answered it; the kernel holds nothing of
  // the dead guest's request.
  EXPECT_EQ(f.kernel.queued_calls(SlotAddr{f.root, 1}), 0u);
  f.kernel.CheckInvariants();
}

TEST(VirtualBlockDeviceTest, ErrorStatusPropagates) {
  StackFixture f;
  BlockStatus st = BlockStatus::kOk;
  f.sim.Spawn([](VirtualBlockDevice& d, BlockStatus& out) -> Task<void> {
    // Beyond the 1<<16-sector disk.
    out = co_await d.Write(1 << 20, std::vector<uint8_t>(512, 1), false);
  }(*f.vdisk, st));
  f.sim.Run();
  EXPECT_EQ(st, BlockStatus::kOutOfRange);
}

TEST(VirtualBlockDeviceTest, ConcurrentRequestsAllComplete) {
  StackFixture f;
  int completed = 0;
  for (int i = 0; i < 16; ++i) {
    f.sim.Spawn([](VirtualBlockDevice& d, int idx, int& done) -> Task<void> {
      const std::vector<uint8_t> data(512, static_cast<uint8_t>(idx));
      const BlockStatus st =
          co_await d.Write(static_cast<uint64_t>(idx) * 16, data, false);
      EXPECT_EQ(st, BlockStatus::kOk);
      ++done;
    }(*f.vdisk, i, completed));
  }
  f.sim.Run();
  EXPECT_EQ(completed, 16);
  EXPECT_EQ(f.backend->requests_served(), 16u);
  EXPECT_EQ(f.kernel.queued_calls(SlotAddr{f.root, 1}), 0u);
  f.kernel.CheckInvariants();
}

// A backend target that records the buffers the backend hands it.
class RecordingDevice : public rlstor::BlockDevice {
 public:
  explicit RecordingDevice(Simulator& sim) : sim_(sim) {}

  const rlstor::Geometry& geometry() const override { return geometry_; }
  bool volatile_write_cache() const override { return false; }

  Task<BlockStatus> Read(uint64_t lba, std::span<uint8_t> out) override {
    read_at = out.data();
    read_bytes = out.size();
    co_await sim_.Sleep(Duration::Micros(5));
    std::fill(out.begin(), out.end(), static_cast<uint8_t>(lba));
    co_return status;
  }
  Task<BlockStatus> Write(uint64_t lba, std::span<const uint8_t> data,
                          bool fua) override {
    (void)lba;
    write_at = data.data();
    write_bytes = data.size();
    write_fua = fua;
    co_await sim_.Sleep(Duration::Micros(5));
    co_return status;
  }
  Task<BlockStatus> Flush() override { co_return status; }

  BlockStatus status = BlockStatus::kOk;
  const uint8_t* read_at = nullptr;
  size_t read_bytes = 0;
  const uint8_t* write_at = nullptr;
  size_t write_bytes = 0;
  bool write_fua = false;

 private:
  Simulator& sim_;
  rlstor::Geometry geometry_{.sector_count = 1 << 16};
};

struct RecordingFixture {
  RecordingFixture() : kernel(sim), vm(sim), target(sim) {
    root = kernel.BootstrapCNode(64);
    EXPECT_EQ(kernel.BootstrapUntyped(root, 0, 1 << 20), KernelStatus::kOk);
    EXPECT_EQ(kernel.Retype(SlotAddr{root, 0}, ObjectType::kEndpoint, 0, root,
                            1, 1),
              KernelStatus::kOk);
    backend = std::make_unique<BlockBackend>(sim, kernel, ep(), target);
    backend->Start();
    vdisk = std::make_unique<VirtualBlockDevice>(
        sim, vm, kernel, ep(), target.geometry(), target.volatile_write_cache());
  }
  SlotAddr ep() const { return SlotAddr{root, 1}; }

  Simulator sim;
  Kernel kernel;
  VirtualMachine vm;
  RecordingDevice target;
  rlkern::ObjectId root = rlkern::kNullObject;
  std::unique_ptr<BlockBackend> backend;
  std::unique_ptr<VirtualBlockDevice> vdisk;
};

// The block payload is a frame the guest grants for the length of the call:
// the backend's target sees the guest's own buffer on a write, and a read
// lands straight in the guest's span. Nothing in between copies it.
TEST(VirtualBlockDeviceTest, TargetSeesTheGuestFrame) {
  RecordingFixture f;
  std::vector<uint8_t> data(1024, 0x5A);
  std::vector<uint8_t> out(2048, 0);
  BlockStatus wst = BlockStatus::kDeviceOff;
  BlockStatus rst = BlockStatus::kDeviceOff;
  f.sim.Spawn([](VirtualBlockDevice& d, std::vector<uint8_t>& w,
                 std::vector<uint8_t>& r, BlockStatus& ws,
                 BlockStatus& rs) -> Task<void> {
    ws = co_await d.Write(3, w, /*fua=*/true);
    rs = co_await d.Read(9, r);
  }(*f.vdisk, data, out, wst, rst));
  f.sim.Run();
  EXPECT_EQ(wst, BlockStatus::kOk);
  EXPECT_EQ(rst, BlockStatus::kOk);
  EXPECT_EQ(f.target.write_at, data.data());
  EXPECT_EQ(f.target.write_bytes, data.size());
  EXPECT_TRUE(f.target.write_fua);
  EXPECT_EQ(f.target.read_at, out.data());
  EXPECT_EQ(f.target.read_bytes, out.size());
  EXPECT_EQ(out, std::vector<uint8_t>(2048, 9));
  f.kernel.CheckInvariants();
}

// The backend answers in message register 0, and the guest's status is
// what it finds there.
TEST(VirtualBlockDeviceTest, StatusComesBackInRegisterZero) {
  RecordingFixture f;
  f.target.status = BlockStatus::kIoError;
  std::vector<uint8_t> data(512, 1);
  rlkern::IpcMessage reply;
  BlockStatus guest_st = BlockStatus::kOk;
  f.sim.Spawn([](Kernel& k, SlotAddr ep, std::span<const uint8_t> frame,
                 rlkern::IpcMessage& out) -> Task<void> {
    const rlkern::IpcMessage msg{
        .label = kBlkWrite, .words = {0, 0}, .send = frame};
    EXPECT_EQ(co_await k.Call(ep, msg, &out), KernelStatus::kOk);
  }(f.kernel, f.ep(), data, reply));
  f.sim.Spawn([](VirtualBlockDevice& d, std::vector<uint8_t>& w,
                 BlockStatus& st) -> Task<void> {
    st = co_await d.Write(8, w, false);
  }(*f.vdisk, data, guest_st));
  f.sim.Run();
  EXPECT_EQ(reply.words,
            (std::array<uint64_t, rlkern::kMsgRegisters>{
                static_cast<uint64_t>(BlockStatus::kIoError)}));
  EXPECT_EQ(guest_st, BlockStatus::kIoError);
  EXPECT_EQ(f.backend->requests_served(), 2u);
}

}  // namespace
}  // namespace rlvmm
