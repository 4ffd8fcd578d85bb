// Core types of the seL4-like microkernel model.
//
// The model keeps what the VMM's I/O path rests on: a small kernel whose
// state obeys machine-checkable invariants (here enforced with runtime checks
// and exercised by fuzz tests), capabilities as the only naming mechanism,
// untyped memory as the only source of kernel objects, and synchronous
// Call/Recv/Reply IPC.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace rlkern {

// Index into the kernel object table; 0 is the null object.
using ObjectId = uint64_t;
inline constexpr ObjectId kNullObject = 0;

// Slot index within a CNode.
using CPtr = uint64_t;

enum class ObjectType : uint8_t {
  kUntyped,
  kCNode,
  kEndpoint,
};

// A capability as stored in a CNode slot. Every capability carries full
// authority over its object: nothing derives a weaker one.
struct Capability {
  ObjectId object = kNullObject;
  ObjectType type = ObjectType::kUntyped;
};

// Global address of a capability slot.
struct SlotAddr {
  ObjectId cnode = kNullObject;
  CPtr index = 0;
};

enum class KernelStatus {
  kOk,
  kInvalidSlot,      // slot address does not name a valid slot
  kEmptySlot,        // expected a capability, slot is empty
  kSlotOccupied,     // destination slot already holds a capability
  kTypeMismatch,     // capability names an object of the wrong type
  kOutOfMemory,      // untyped exhausted
  kInvalidArgument,
};

std::string ToString(KernelStatus s);

// Message registers an IPC carries; seL4's x86-64 fastpath carries 4.
inline constexpr size_t kMsgRegisters = 4;

// An IPC message: a label, the message registers, and the frames the caller
// grants the receiver for the length of a synchronous Call, as a CAmkES
// dataport would: `send` holds data the receiver may read and `recv` is
// where it may write. Nothing is copied through the kernel; the caller keeps
// both frames alive and unchanged until the reply, which carries registers
// only.
struct IpcMessage {
  uint64_t label = 0;
  std::array<uint64_t, kMsgRegisters> words{};
  std::span<const uint8_t> send{};
  std::span<uint8_t> recv{};
};

}  // namespace rlkern
