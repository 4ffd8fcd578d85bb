#include "src/vmm/vm.h"

#include "src/sim/check.h"

namespace rlvmm {

void VirtualMachine::Crash() { running_ = false; }

void VirtualMachine::Reset() {
  RL_CHECK_MSG(!running_, "Reset() of a running guest");
  running_ = true;
  ++incarnation_;
}

void Charge::await_resume() const {
  if (vm != nullptr) {
    vm->CheckAlive(started);
  }
}

void VirtualMachine::CheckAlive(uint64_t incarnation) const {
  if (!running_ || incarnation_ != incarnation) {
    throw GuestCrashed();
  }
}

}  // namespace rlvmm
