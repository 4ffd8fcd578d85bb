// Where the engine's CPU work is charged: directly to the simulator when
// running "native", or to a VirtualMachine (overhead factor, crash unwinding)
// when running inside a guest. A charge is a plain awaitable (rlvmm::Charge):
// one timer event and no coroutine frame.
#pragma once

#include "src/sim/simulator.h"
#include "src/vmm/vm.h"

namespace rldb {

class CpuContext {
 public:
  virtual ~CpuContext() = default;

  rlvmm::Charge Compute(rlsim::Duration work) {
    return vm_ != nullptr ? vm_->Compute(work) : rlvmm::Charge{*sim_, work};
  }

 protected:
  explicit CpuContext(rlsim::Simulator& sim) : sim_(&sim) {}
  explicit CpuContext(rlvmm::VirtualMachine& vm) : vm_(&vm) {}

 private:
  rlsim::Simulator* sim_ = nullptr;
  rlvmm::VirtualMachine* vm_ = nullptr;  // null when native
};

class NativeCpu : public CpuContext {
 public:
  explicit NativeCpu(rlsim::Simulator& sim) : CpuContext(sim) {}
};

class GuestCpu : public CpuContext {
 public:
  explicit GuestCpu(rlvmm::VirtualMachine& vm) : CpuContext(vm) {}
};

}  // namespace rldb
