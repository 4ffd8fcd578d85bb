// The paravirtual block path.
//
// Guest side: VirtualBlockDevice implements rlstor::BlockDevice; each
// request costs a VM exit, a microkernel IPC Call to the host-side backend
// component, and a completion-interrupt injection — the virtualisation
// overhead the paper measures.
//
// Host side: BlockBackend is a trusted component that serves one endpoint
// and forwards requests to any rlstor::BlockDevice. Pointing it at a
// physical SimBlockDevice gives the "virt" configuration; pointing the log
// disk's backend at a rapilog::RapiLogDevice gives the "rapilog"
// configuration — the guest is unmodified either way, exactly as in the
// paper.
//
// Like a virtio-blk driver reading the FLUSH feature bit at probe time, the
// guest device is told once whether its backend keeps acknowledged writes in
// a volatile cache. A RapiLog backend does not (its buffer is covered by the
// hold-up guarantee), nor does a battery-backed disk, so the guest completes
// their flushes itself, with no VM exit. A write-back backend still receives
// every flush.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/microkernel/kernel.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/storage/block_device.h"
#include "src/vmm/vm.h"

namespace rlvmm {

// IPC message labels of the block protocol.
inline constexpr uint64_t kBlkRead = 1;
inline constexpr uint64_t kBlkWrite = 2;
inline constexpr uint64_t kBlkFlush = 3;

// Host-side backend component: serves `service_ep` forever, forwarding to
// `target`. Each request is handled in its own task, so requests the target
// can overlap (cache hits) do overlap.
class BlockBackend {
 public:
  BlockBackend(rlsim::Simulator& sim, rlkern::Kernel& kernel,
               rlkern::SlotAddr service_ep, rlstor::BlockDevice& target,
               std::string name = "blk-backend");

  // Spawns the service loop on the simulator.
  void Start();

  uint64_t requests_served() const { return requests_served_; }

 private:
  rlsim::Task<void> ServiceLoop();
  rlsim::Task<void> HandleRequest(rlkern::Received request);

  rlsim::Simulator& sim_;
  rlkern::Kernel& kernel_;
  rlkern::SlotAddr service_ep_;
  rlstor::BlockDevice& target_;
  std::string name_;
  uint64_t requests_served_ = 0;
};

// Guest-side virtual disk.
class VirtualBlockDevice : public rlstor::BlockDevice {
 public:
  struct Stats {
    rlsim::Counter reads;
    rlsim::Counter writes;
    rlsim::Counter flushes;            // sent to the backend
    rlsim::Counter elided_flushes;     // completed in the guest, no VM exit
    rlsim::Histogram request_latency;  // ns, guest-observed
  };

  // `geometry` and `volatile_write_cache` are the backend's answers, read
  // once when the device is built. `name` labels this device's trace spans
  // ("guest-log-vblk" etc.), so a testbed with several virtual disks stays
  // distinguishable in a trace.
  VirtualBlockDevice(rlsim::Simulator& sim, VirtualMachine& vm,
                     rlkern::Kernel& kernel, rlkern::SlotAddr backend_ep,
                     rlstor::Geometry geometry, bool volatile_write_cache,
                     std::string name = "vblk");

  const rlstor::Geometry& geometry() const override { return geometry_; }
  bool volatile_write_cache() const override { return volatile_write_cache_; }

  rlsim::Task<rlstor::BlockStatus> Read(uint64_t lba,
                                        std::span<uint8_t> out) override;
  rlsim::Task<rlstor::BlockStatus> Write(uint64_t lba,
                                         std::span<const uint8_t> data,
                                         bool fua) override;
  rlsim::Task<rlstor::BlockStatus> Flush() override;

  const Stats& stats() const { return stats_; }
  Stats& stats() { return stats_; }

 private:
  rlsim::Task<rlstor::BlockStatus> Transact(rlkern::IpcMessage msg,
                                            std::string_view kind,
                                            int64_t arg);

  rlsim::Simulator& sim_;
  VirtualMachine& vm_;
  rlkern::Kernel& kernel_;
  rlkern::SlotAddr backend_ep_;
  rlstor::Geometry geometry_;
  bool volatile_write_cache_;
  std::string name_;
  Stats stats_;
};

}  // namespace rlvmm
