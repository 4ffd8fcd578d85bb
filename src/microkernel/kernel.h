// The seL4-like kernel: object table, untyped memory retyped into CNodes and
// endpoints, and synchronous Call/Recv/Reply IPC over endpoints.
//
// "Verification" is modelled by construction (see DESIGN.md): this component
// is part of the trusted computing base, is exempt from fault injection, and
// asserts its own invariants — CheckInvariants() validates the full kernel
// state and is called liberally from tests (including randomised operation
// fuzzing).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/microkernel/types.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace rlkern {

// Handle a receiver uses to answer a Call. Single-use. It names the call by
// number, not by address, so a token whose caller is gone answers nothing.
class ReplyToken {
 public:
  bool valid() const { return call_ != 0; }

 private:
  friend class Kernel;
  uint64_t call_ = 0;  // the call's sequence number; 0 once used
};

// Result of a successful Recv: the caller's message and the token that
// answers it.
struct Received {
  IpcMessage message;
  ReplyToken reply;
};

class Kernel {
 public:
  explicit Kernel(rlsim::Simulator& sim);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- Bootstrap (no capability checks; used to set up the initial task) ---

  // Creates a root CNode with `slots` slots. No capability names it.
  ObjectId BootstrapCNode(size_t slots);
  // Creates an untyped region of `bytes` and places its capability at
  // slot `dest` of `cnode`.
  KernelStatus BootstrapUntyped(ObjectId cnode, CPtr dest, size_t bytes);

  // --- Capability-space operations -----------------------------------------

  // seL4_Untyped_Retype: carves `count` objects of `type` out of the untyped
  // capability at `untyped`, placing their capabilities into consecutive
  // slots starting at `dest`. `obj_bytes` is the per-object footprint of a
  // CNode; an endpoint has a fixed cost and ignores it.
  KernelStatus Retype(SlotAddr untyped, ObjectType type, size_t obj_bytes,
                      ObjectId dest_cnode, CPtr dest_first, size_t count);

  // Looks up the capability at `slot`.
  KernelStatus Lookup(SlotAddr slot, Capability* out) const;

  // --- IPC -----------------------------------------------------------------

  // Blocking receive: waits for a Call on the endpoint.
  rlsim::Task<KernelStatus> Recv(SlotAddr ep_cap, Received* out);

  // Call: send and block for the receiver's Reply. The call is kept in this
  // coroutine's frame, so it allocates nothing.
  rlsim::Task<KernelStatus> Call(SlotAddr ep_cap, IpcMessage msg,
                                 IpcMessage* reply_out);

  // Answers a Call; consumes the token. kInvalidArgument if the token was
  // already used or its caller's frame is gone.
  KernelStatus Reply(ReplyToken& token, IpcMessage msg);

  // --- Introspection ---------------------------------------------------------

  // Validates every kernel invariant; throws rlsim::CheckFailure on
  // violation. Cheap enough to call after every operation in tests.
  void CheckInvariants() const;

  // Calls sent to the endpoint at `ep_cap` that no Recv has taken yet.
  size_t queued_calls(SlotAddr ep_cap) const;

 private:
  struct Object;
  struct PendingCall;

  Object& Obj(ObjectId id);
  const Object& Obj(ObjectId id) const;
  ObjectId AllocateObject(ObjectType type, size_t bytes);
  KernelStatus ResolveSlot(SlotAddr slot, bool must_hold_cap,
                           Capability** cap_out) const;
  KernelStatus ResolveEndpoint(SlotAddr slot, Object** ep_out) const;

  rlsim::Simulator& sim_;
  std::vector<std::unique_ptr<Object>> objects_;  // index = ObjectId - 1
  // Calls not yet answered, in arrival order, on every endpoint.
  std::vector<PendingCall*> calls_;
  uint64_t calls_made_ = 0;
};

}  // namespace rlkern
