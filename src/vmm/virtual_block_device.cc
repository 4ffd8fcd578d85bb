#include "src/vmm/virtual_block_device.h"

#include <utility>

#include "src/sim/check.h"

namespace rlvmm {

using rlkern::IpcMessage;
using rlkern::KernelStatus;
using rlkern::Received;
using rlsim::Task;
using rlstor::BlockStatus;

BlockBackend::BlockBackend(rlsim::Simulator& sim, rlkern::Kernel& kernel,
                           rlkern::SlotAddr service_ep,
                           rlstor::BlockDevice& target, std::string name)
    : sim_(sim),
      kernel_(kernel),
      service_ep_(service_ep),
      target_(target),
      name_(std::move(name)) {}

void BlockBackend::Start() { sim_.Spawn(ServiceLoop(), name_); }

rlsim::Task<void> BlockBackend::ServiceLoop() {
  while (true) {
    Received request;
    const KernelStatus st = co_await kernel_.Recv(service_ep_, &request);
    RL_CHECK_MSG(st == KernelStatus::kOk,
                 "backend receive failed: " << rlkern::ToString(st));
    sim_.Spawn(HandleRequest(std::move(request)));
  }
}

// Reads land in, and writes come from, the frame the guest granted: the
// one copy of a written block is the one its target makes.
rlsim::Task<void> BlockBackend::HandleRequest(Received request) {
  const IpcMessage& msg = request.message;
  const uint64_t lba = msg.words[0];
  BlockStatus status = BlockStatus::kOutOfRange;
  switch (msg.label) {
    case kBlkRead:
      status = co_await target_.Read(lba, msg.recv);
      break;
    case kBlkWrite:
      status = co_await target_.Write(lba, msg.send, msg.words[1] != 0);
      break;
    case kBlkFlush:
      status = co_await target_.Flush();
      break;
    default:
      RL_UNREACHABLE("unknown block opcode");
  }
  ++requests_served_;
  kernel_.Reply(request.reply,
                IpcMessage{.words = {static_cast<uint64_t>(status)}});
}

VirtualBlockDevice::VirtualBlockDevice(rlsim::Simulator& sim,
                                       VirtualMachine& vm,
                                       rlkern::Kernel& kernel,
                                       rlkern::SlotAddr backend_ep,
                                       rlstor::Geometry geometry,
                                       bool volatile_write_cache,
                                       std::string name)
    : sim_(sim),
      vm_(vm),
      kernel_(kernel),
      backend_ep_(backend_ep),
      geometry_(geometry),
      volatile_write_cache_(volatile_write_cache),
      name_(std::move(name)) {}

Task<BlockStatus> VirtualBlockDevice::Transact(IpcMessage msg,
                                               std::string_view kind,
                                               int64_t arg) {
  // Covers the whole guest-observed request: VM exit, backend IPC, physical
  // I/O, and completion-interrupt injection.
  rlsim::SpanScope span(sim_, name_, kind, arg);
  const uint64_t incarnation = vm_.incarnation();
  const rlsim::TimePoint start = sim_.now();
  co_await vm_.VmExit();

  IpcMessage reply;
  const KernelStatus st = co_await kernel_.Call(backend_ep_, msg, &reply);
  RL_CHECK_MSG(st == KernelStatus::kOk,
               "backend IPC failed: " << rlkern::ToString(st));

  // The physical effect (if any) has happened; now deliver the completion to
  // the guest — which may have died in the meantime.
  vm_.CheckAlive(incarnation);
  co_await vm_.InjectIrq();
  vm_.CheckAlive(incarnation);
  stats_.request_latency.RecordDuration(sim_.now() - start);
  co_return static_cast<BlockStatus>(reply.words[0]);
}

// The guest's buffer is the granted frame: the caller keeps it alive and
// unchanged until the request completes, as it would for a real DMA.
Task<BlockStatus> VirtualBlockDevice::Read(uint64_t lba,
                                           std::span<uint8_t> out) {
  stats_.reads.Add();
  return Transact({.label = kBlkRead, .words = {lba}, .recv = out},
                  "vblk-read", static_cast<int64_t>(lba));
}

Task<BlockStatus> VirtualBlockDevice::Write(uint64_t lba,
                                            std::span<const uint8_t> data,
                                            bool fua) {
  stats_.writes.Add();
  return Transact({.label = kBlkWrite, .words = {lba, fua ? 1u : 0u},
                   .send = data},
                  "vblk-write", static_cast<int64_t>(lba));
}

Task<BlockStatus> VirtualBlockDevice::Flush() {
  if (!volatile_write_cache_) {
    // Every acknowledged write is already durable: nothing to ask the host.
    // A crashed guest still unwinds here, as it would at the VM exit.
    vm_.CheckAlive(vm_.incarnation());
    stats_.elided_flushes.Add();
    co_return BlockStatus::kOk;
  }
  stats_.flushes.Add();
  co_return co_await Transact({.label = kBlkFlush}, "vblk-flush", 0);
}

}  // namespace rlvmm
