// Guest virtual machine container.
//
// A VirtualMachine does not interpret instructions; it accounts for guest
// execution (CPU work is charged through Compute(), inflated by the
// virtualisation overhead factor) and owns the guest's failure domain:
// Crash() stops the guest, Reset() restarts it under a new incarnation, and
// guest-side code carries the incarnation it started under — when the guest
// is down or the incarnations disagree, that code's effects must be
// discarded (the coroutine unwinds at its next Compute/IO point).
// The trusted layer below the VM (microkernel, VMM, RapiLog) is unaffected
// by guest crashes.
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>

#include "src/sim/simulator.h"

namespace rlvmm {

// Thrown inside guest coroutines when the guest they belong to has crashed;
// harnesses catch it at the top of each guest task.
class GuestCrashed : public std::exception {
 public:
  const char* what() const noexcept override { return "guest crashed"; }
};

class VirtualMachine;

// Awaitable charge of `cost` of time: one timer event, no coroutine frame.
// With `vm` set, the awaiter throws GuestCrashed on resumption if that
// guest crashed (or was rebooted) since incarnation `started`.
struct Charge {
  rlsim::Simulator& sim;
  rlsim::Duration cost;
  const VirtualMachine* vm = nullptr;
  uint64_t started = 0;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    sim.Schedule(cost, [h] { h.resume(); });
  }
  void await_resume() const;
};

class VirtualMachine {
 public:
  explicit VirtualMachine(rlsim::Simulator& sim) : sim_(sim) {}

  // Charges `work` of guest CPU time (scaled by the overhead factor).
  // Throws GuestCrashed if the calling code's guest no longer exists.
  Charge Compute(rlsim::Duration work) {
    return {Running().sim_, work * kCpuOverhead, this, incarnation_};
  }

  // Charges one VM exit/entry pair (a dead guest makes no exits).
  Charge VmExit() { return {Running().sim_, kVmExitCost}; }

  // Charges the completion-interrupt path.
  Charge InjectIrq() { return {sim_, kIrqInjectCost}; }

  // Kills the guest OS (or the whole VM): all in-flight guest work unwinds
  // with GuestCrashed at its next cancellation point.
  void Crash();

  // Boots a fresh incarnation after a crash.
  void Reset();

  bool running() const { return running_; }
  uint64_t incarnation() const { return incarnation_; }

  // Throws GuestCrashed unless the guest is running in the same incarnation.
  void CheckAlive(uint64_t incarnation) const;

 private:
  // Multiplier on guest CPU time (1.0 = bare metal, 1.05 = 5% overhead —
  // the ballpark the paper attributes to virtualisation).
  static constexpr double kCpuOverhead = 1.05;
  // Cost of a VM exit + entry pair (paravirtual I/O kick).
  static constexpr rlsim::Duration kVmExitCost = rlsim::Duration::Micros(2);
  // Cost of injecting a completion interrupt into the guest.
  static constexpr rlsim::Duration kIrqInjectCost = rlsim::Duration::Micros(1);

  VirtualMachine& Running() { return running_ ? *this : throw GuestCrashed(); }

  rlsim::Simulator& sim_;
  bool running_ = true;
  uint64_t incarnation_ = 1;
};

}  // namespace rlvmm
