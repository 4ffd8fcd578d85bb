#include "src/vmm/vm.h"

#include "src/sim/check.h"

namespace rlvmm {

VirtualMachine::VirtualMachine(rlsim::Simulator& sim, VmParams params)
    : sim_(sim), params_(params) {
  RL_CHECK(params_.cpu_overhead >= 1.0);
}

void VirtualMachine::Crash() {
  if (!running_) {
    return;
  }
  running_ = false;
  for (const auto& cb : crash_callbacks_) {
    cb();
  }
}

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

void VirtualMachine::OnCrash(std::function<void()> callback) {
  crash_callbacks_.push_back(std::move(callback));
}

}  // namespace rlvmm
