#include "src/microkernel/kernel.h"

#include <algorithm>
#include <coroutine>
#include <optional>
#include <utility>

#include "src/sim/check.h"

namespace rlkern {

using rlsim::Duration;
using rlsim::Task;
using rlsim::WaitQueue;

std::string ToString(KernelStatus s) {
  switch (s) {
    case KernelStatus::kOk:
      return "ok";
    case KernelStatus::kInvalidSlot:
      return "invalid-slot";
    case KernelStatus::kEmptySlot:
      return "empty-slot";
    case KernelStatus::kSlotOccupied:
      return "slot-occupied";
    case KernelStatus::kTypeMismatch:
      return "type-mismatch";
    case KernelStatus::kOutOfMemory:
      return "out-of-memory";
    case KernelStatus::kInvalidArgument:
      return "invalid-argument";
  }
  return "unknown";
}

namespace {

// Kernel entry and IPC costs, in the vicinity of published seL4 numbers on
// period hardware.
constexpr Duration kSyscallOverhead = Duration::Nanos(300);
constexpr Duration kIpcTransfer = Duration::Nanos(700);

constexpr size_t kEndpointBytes = 16;
constexpr size_t kBytesPerCNodeSlot = 32;

}  // namespace

struct Kernel::Object {
  ObjectType type = ObjectType::kUntyped;
  size_t bytes = 0;
  ObjectId parent_untyped = kNullObject;

  // kCNode.
  std::vector<std::optional<Capability>> slots;
  // kUntyped: bytes handed out so far, and the objects they became.
  size_t watermark = 0;
  std::vector<ObjectId> children;
  // kEndpoint: receivers waiting for a call.
  std::unique_ptr<WaitQueue> recv_wait;
};

// A call from its Call until its Reply. It lives in the caller's frame; a
// frame destroyed before the reply (simulator teardown) takes its call off
// the kernel's books, so neither the kernel nor a reply token is left
// pointing at it. Awaiting it parks the caller until Reply.
struct Kernel::PendingCall {
  IpcMessage msg;
  uint64_t seq = 0;
  const Object* ep = nullptr;  // queued on; null once a Recv has taken it
  Kernel* kernel = nullptr;    // null once answered or once the kernel is gone
  IpcMessage reply{};
  std::coroutine_handle<> caller{};

  ~PendingCall() {
    if (kernel != nullptr) {
      std::erase(kernel->calls_, this);
    }
  }
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) noexcept { caller = h; }
  void await_resume() const noexcept {}
};

Kernel::Kernel(rlsim::Simulator& sim) : sim_(sim) {}

Kernel::~Kernel() {
  // Calls still outstanding live on in their callers' frames, which are
  // destroyed with the simulator; they must not reach back into this kernel.
  for (PendingCall* call : calls_) {
    call->kernel = nullptr;
  }
}

Kernel::Object& Kernel::Obj(ObjectId id) {
  RL_CHECK_MSG(id != kNullObject && id <= objects_.size(),
               "bad object id " << id);
  return *objects_[id - 1];
}

const Kernel::Object& Kernel::Obj(ObjectId id) const {
  RL_CHECK_MSG(id != kNullObject && id <= objects_.size(),
               "bad object id " << id);
  return *objects_[id - 1];
}

ObjectId Kernel::AllocateObject(ObjectType type, size_t bytes) {
  auto obj = std::make_unique<Object>();
  obj->type = type;
  obj->bytes = bytes;
  if (type == ObjectType::kCNode) {
    obj->slots.resize(std::max<size_t>(1, bytes / kBytesPerCNodeSlot));
  } else if (type == ObjectType::kEndpoint) {
    obj->recv_wait = std::make_unique<WaitQueue>(sim_);
  }
  objects_.push_back(std::move(obj));
  return objects_.size();
}

KernelStatus Kernel::ResolveSlot(SlotAddr slot, bool must_hold_cap,
                                 Capability** cap_out) const {
  if (slot.cnode == kNullObject || slot.cnode > objects_.size()) {
    return KernelStatus::kInvalidSlot;
  }
  const Object& cn = Obj(slot.cnode);
  if (cn.type != ObjectType::kCNode || slot.index >= cn.slots.size()) {
    return KernelStatus::kInvalidSlot;
  }
  auto& entry = const_cast<Object&>(cn).slots[slot.index];
  if (must_hold_cap && !entry.has_value()) {
    return KernelStatus::kEmptySlot;
  }
  if (!must_hold_cap && entry.has_value()) {
    return KernelStatus::kSlotOccupied;
  }
  if (cap_out != nullptr && entry.has_value()) {
    *cap_out = &*entry;
  }
  return KernelStatus::kOk;
}

KernelStatus Kernel::ResolveEndpoint(SlotAddr slot, Object** ep_out) const {
  Capability* cap = nullptr;
  if (KernelStatus st = ResolveSlot(slot, true, &cap);
      st != KernelStatus::kOk) {
    return st;
  }
  if (cap->type != ObjectType::kEndpoint) {
    return KernelStatus::kTypeMismatch;
  }
  *ep_out = const_cast<Object*>(&Obj(cap->object));
  return KernelStatus::kOk;
}

ObjectId Kernel::BootstrapCNode(size_t slots) {
  RL_CHECK(slots > 0);
  return AllocateObject(ObjectType::kCNode, slots * kBytesPerCNodeSlot);
}

KernelStatus Kernel::BootstrapUntyped(ObjectId cnode, CPtr dest,
                                      size_t bytes) {
  if (bytes == 0) {
    return KernelStatus::kInvalidArgument;
  }
  const SlotAddr dst{cnode, dest};
  if (KernelStatus st = ResolveSlot(dst, /*must_hold_cap=*/false, nullptr);
      st != KernelStatus::kOk) {
    return st;
  }
  const ObjectId id = AllocateObject(ObjectType::kUntyped, bytes);
  Obj(cnode).slots[dest] = Capability{id, ObjectType::kUntyped};
  return KernelStatus::kOk;
}

KernelStatus Kernel::Retype(SlotAddr untyped, ObjectType type,
                            size_t obj_bytes, ObjectId dest_cnode,
                            CPtr dest_first, size_t count) {
  if (count == 0 || type == ObjectType::kUntyped) {
    return KernelStatus::kInvalidArgument;
  }
  Capability* ut_cap = nullptr;
  if (KernelStatus st = ResolveSlot(untyped, true, &ut_cap);
      st != KernelStatus::kOk) {
    return st;
  }
  if (ut_cap->type != ObjectType::kUntyped) {
    return KernelStatus::kTypeMismatch;
  }
  const size_t per_obj =
      type == ObjectType::kEndpoint ? kEndpointBytes : obj_bytes;
  if (per_obj == 0) {
    return KernelStatus::kInvalidArgument;
  }
  const ObjectId ut_id = ut_cap->object;
  Object& ut = Obj(ut_id);
  if (ut.watermark + per_obj * count > ut.bytes) {
    return KernelStatus::kOutOfMemory;
  }
  // All destination slots must exist and be empty.
  for (size_t i = 0; i < count; ++i) {
    const SlotAddr dst{dest_cnode, dest_first + i};
    if (KernelStatus st = ResolveSlot(dst, false, nullptr);
        st != KernelStatus::kOk) {
      return st;
    }
  }
  for (size_t i = 0; i < count; ++i) {
    const ObjectId id = AllocateObject(type, per_obj);
    Obj(id).parent_untyped = ut_id;
    ut.children.push_back(id);
    ut.watermark += per_obj;
    Obj(dest_cnode).slots[dest_first + i] = Capability{id, type};
  }
  return KernelStatus::kOk;
}

KernelStatus Kernel::Lookup(SlotAddr slot, Capability* out) const {
  Capability* cap = nullptr;
  if (KernelStatus st = ResolveSlot(slot, true, &cap);
      st != KernelStatus::kOk) {
    return st;
  }
  if (out != nullptr) {
    *out = *cap;
  }
  return KernelStatus::kOk;
}

Task<KernelStatus> Kernel::Recv(SlotAddr ep_cap, Received* out) {
  RL_CHECK(out != nullptr);
  Object* ep = nullptr;
  if (KernelStatus st = ResolveEndpoint(ep_cap, &ep);
      st != KernelStatus::kOk) {
    co_return st;
  }
  co_await sim_.Sleep(kSyscallOverhead);
  const auto queued = [ep](const PendingCall* c) { return c->ep == ep; };
  while (std::none_of(calls_.begin(), calls_.end(), queued)) {
    co_await ep->recv_wait->Wait();
  }
  PendingCall& call = **std::find_if(calls_.begin(), calls_.end(), queued);
  call.ep = nullptr;
  out->message = call.msg;
  out->reply.call_ = call.seq;
  co_await sim_.Sleep(kIpcTransfer);
  co_return KernelStatus::kOk;
}

Task<KernelStatus> Kernel::Call(SlotAddr ep_cap, IpcMessage msg,
                                IpcMessage* reply_out) {
  RL_CHECK(reply_out != nullptr);
  Object* ep = nullptr;
  if (KernelStatus st = ResolveEndpoint(ep_cap, &ep);
      st != KernelStatus::kOk) {
    co_return st;
  }
  co_await sim_.Sleep(kSyscallOverhead);
  PendingCall call{.msg = msg, .seq = ++calls_made_, .ep = ep, .kernel = this};
  calls_.push_back(&call);
  ep->recv_wait->NotifyOne();
  co_await call;
  *reply_out = call.reply;
  co_return KernelStatus::kOk;
}

KernelStatus Kernel::Reply(ReplyToken& token, IpcMessage msg) {
  const uint64_t seq = std::exchange(token.call_, 0);
  const auto it = std::find_if(
      calls_.begin(), calls_.end(),
      [seq](const PendingCall* c) { return c->seq == seq; });
  if (it == calls_.end()) {
    return KernelStatus::kInvalidArgument;
  }
  PendingCall& call = **it;
  calls_.erase(it);
  call.kernel = nullptr;
  call.reply = msg;
  sim_.Schedule(Duration::Zero(), [h = call.caller] { h.resume(); });
  return KernelStatus::kOk;
}

size_t Kernel::queued_calls(SlotAddr ep_cap) const {
  Object* ep = nullptr;
  RL_CHECK(ResolveEndpoint(ep_cap, &ep) == KernelStatus::kOk);
  return static_cast<size_t>(std::count_if(
      calls_.begin(), calls_.end(),
      [ep](const PendingCall* c) { return c->ep == ep; }));
}

void Kernel::CheckInvariants() const {
  std::vector<size_t> cap_tallies(objects_.size() + 1, 0);
  for (const auto& obj : objects_) {
    for (const auto& entry : obj->slots) {
      if (!entry.has_value()) {
        continue;
      }
      // I1: every capability names an existing object of the recorded type.
      RL_CHECK_MSG(entry->object != kNullObject &&
                       entry->object <= objects_.size(),
                   "dangling capability");
      RL_CHECK_MSG(Obj(entry->object).type == entry->type,
                   "capability type mismatch on object " << entry->object);
      ++cap_tallies[entry->object];
    }
  }
  for (ObjectId id = 1; id <= objects_.size(); ++id) {
    const Object& obj = Obj(id);
    // I2: a root CNode is named by no capability, every other object by
    // exactly one (nothing copies a capability).
    const bool root_cnode = obj.type == ObjectType::kCNode &&
                            obj.parent_untyped == kNullObject;
    const size_t caps = cap_tallies[id];
    RL_CHECK_MSG(caps == (root_cnode ? 0 : 1),
                 "object " << id << " named by " << caps << " capabilities");
    // I3: untyped accounting: the watermark is exactly what the region's
    // children occupy, and never exceeds the region.
    if (obj.type == ObjectType::kUntyped) {
      size_t used = 0;
      for (ObjectId child : obj.children) {
        RL_CHECK_MSG(Obj(child).parent_untyped == id,
                     "untyped child parent mismatch");
        used += Obj(child).bytes;
      }
      RL_CHECK_MSG(used == obj.watermark && obj.watermark <= obj.bytes,
                   "untyped " << id << " watermark " << obj.watermark
                              << " != children " << used);
    }
  }
  // I4: every call not yet answered is on the books of this kernel, queued
  // on an endpoint or taken by a Recv, and its caller is parked for the
  // reply.
  for (const PendingCall* call : calls_) {
    RL_CHECK_MSG(call->kernel == this && call->caller &&
                     (call->ep == nullptr ||
                      call->ep->type == ObjectType::kEndpoint),
                 "call " << call->seq << " is not awaiting a reply");
  }
}

}  // namespace rlkern
