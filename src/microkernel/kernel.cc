#include "src/microkernel/kernel.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <utility>

#include "src/sim/check.h"

namespace rlkern {

using rlsim::Completion;
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

struct Kernel::PendingCall {
  IpcMessage msg;
  std::shared_ptr<Completion<IpcMessage>> reply;
};

struct Kernel::Object {
  ObjectType type = ObjectType::kUntyped;
  size_t bytes = 0;
  ObjectId parent_untyped = kNullObject;

  // kCNode.
  std::vector<std::optional<Capability>> slots;
  // kUntyped: bytes handed out so far, and the objects they became.
  size_t watermark = 0;
  std::vector<ObjectId> children;
  // kEndpoint.
  std::deque<PendingCall> callers;
  std::unique_ptr<WaitQueue> recv_wait;
};

Kernel::Kernel(rlsim::Simulator& sim) : sim_(sim) {}

Kernel::~Kernel() = default;

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
  while (ep->callers.empty()) {
    co_await ep->recv_wait->Wait();
  }
  PendingCall call = std::move(ep->callers.front());
  ep->callers.pop_front();
  co_await sim_.Sleep(kIpcTransfer);
  out->message = std::move(call.msg);
  out->reply = ReplyToken(std::move(call.reply));
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
  auto reply = std::make_shared<Completion<IpcMessage>>(sim_);
  ep->callers.push_back(PendingCall{std::move(msg), reply});
  ep->recv_wait->NotifyOne();
  *reply_out = co_await reply->Wait();
  co_return KernelStatus::kOk;
}

KernelStatus Kernel::Reply(ReplyToken& token, IpcMessage msg) {
  if (!token.valid()) {
    return KernelStatus::kInvalidArgument;
  }
  token.completion_->Complete(std::move(msg));
  token.completion_.reset();
  return KernelStatus::kOk;
}

size_t Kernel::queued_calls(SlotAddr ep_cap) const {
  Object* ep = nullptr;
  RL_CHECK(ResolveEndpoint(ep_cap, &ep) == KernelStatus::kOk);
  return ep->callers.size();
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
    // I4: every queued call still awaits its reply.
    for (const PendingCall& call : obj.callers) {
      RL_CHECK_MSG(call.reply != nullptr && !call.reply->completed(),
                   "queued call on endpoint " << id << " already answered");
    }
  }
}

}  // namespace rlkern
