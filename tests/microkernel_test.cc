#include "src/microkernel/kernel.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/simulator.h"

namespace rlkern {
namespace {

using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;

constexpr size_t kRootSlots = 256;
constexpr CPtr kUntypedSlot = 0;

struct Fixture {
  Fixture() : kernel(sim) {
    root = kernel.BootstrapCNode(kRootSlots);
    EXPECT_EQ(kernel.BootstrapUntyped(root, kUntypedSlot, 1 << 20),
              KernelStatus::kOk);
  }

  SlotAddr Slot(CPtr i) const { return SlotAddr{root, i}; }

  Simulator sim;
  Kernel kernel;
  ObjectId root = kNullObject;
};

TEST(KernelTest, BootstrapInvariantsHold) {
  Fixture f;
  f.kernel.CheckInvariants();
  Capability cap;
  ASSERT_EQ(f.kernel.Lookup(f.Slot(kUntypedSlot), &cap), KernelStatus::kOk);
  EXPECT_EQ(cap.type, ObjectType::kUntyped);
}

TEST(KernelTest, RetypeCreatesEndpoints) {
  Fixture f;
  ASSERT_EQ(f.kernel.Retype(f.Slot(kUntypedSlot), ObjectType::kEndpoint, 0,
                            f.root, 10, 4),
            KernelStatus::kOk);
  for (CPtr i = 10; i < 14; ++i) {
    Capability cap;
    ASSERT_EQ(f.kernel.Lookup(f.Slot(i), &cap), KernelStatus::kOk);
    EXPECT_EQ(cap.type, ObjectType::kEndpoint);
  }
  f.kernel.CheckInvariants();
}

TEST(KernelTest, RetypeIntoOccupiedSlotFails) {
  Fixture f;
  ASSERT_EQ(f.kernel.Retype(f.Slot(kUntypedSlot), ObjectType::kEndpoint, 0,
                            f.root, 10, 1),
            KernelStatus::kOk);
  EXPECT_EQ(f.kernel.Retype(f.Slot(kUntypedSlot), ObjectType::kEndpoint, 0,
                            f.root, 10, 1),
            KernelStatus::kSlotOccupied);
  f.kernel.CheckInvariants();
}

TEST(KernelTest, RetypeExhaustsUntyped) {
  Fixture f;
  // Region is 1 MiB; CNodes of 128 KiB: 8 fit, the 9th does not.
  ASSERT_EQ(f.kernel.Retype(f.Slot(kUntypedSlot), ObjectType::kCNode,
                            128 * 1024, f.root, 20, 8),
            KernelStatus::kOk);
  EXPECT_EQ(f.kernel.Retype(f.Slot(kUntypedSlot), ObjectType::kCNode,
                            128 * 1024, f.root, 40, 1),
            KernelStatus::kOutOfMemory);
  f.kernel.CheckInvariants();
}

TEST(KernelTest, CallRecvRendezvous) {
  Fixture f;
  ASSERT_EQ(f.kernel.Retype(f.Slot(kUntypedSlot), ObjectType::kEndpoint, 0,
                            f.root, 10, 1),
            KernelStatus::kOk);
  Received got;
  KernelStatus recv_st = KernelStatus::kInvalidArgument;
  KernelStatus call_st = KernelStatus::kInvalidArgument;
  f.sim.Spawn([](Kernel& k, SlotAddr ep, Received& out,
                 KernelStatus& st) -> Task<void> {
    st = co_await k.Recv(ep, &out);
  }(f.kernel, f.Slot(10), got, recv_st));
  f.sim.Spawn([](Kernel& k, SlotAddr ep, KernelStatus& st) -> Task<void> {
    IpcMessage msg;
    msg.label = 42;
    msg.words = {1, 2, 3};
    IpcMessage reply;
    st = co_await k.Call(ep, std::move(msg), &reply);
  }(f.kernel, f.Slot(10), call_st));
  f.sim.Run();
  EXPECT_EQ(recv_st, KernelStatus::kOk);
  EXPECT_EQ(got.message.label, 42u);
  EXPECT_EQ(got.message.words, (std::vector<uint64_t>{1, 2, 3}));
  // The caller is still blocked on the reply.
  EXPECT_EQ(call_st, KernelStatus::kInvalidArgument);
  ASSERT_TRUE(got.reply.valid());
  EXPECT_EQ(f.kernel.Reply(got.reply, IpcMessage{}), KernelStatus::kOk);
  EXPECT_FALSE(got.reply.valid());
  EXPECT_EQ(f.kernel.Reply(got.reply, IpcMessage{}),
            KernelStatus::kInvalidArgument);
  f.sim.Run();
  EXPECT_EQ(call_st, KernelStatus::kOk);
}

TEST(KernelTest, CallBlocksUntilReceiverArrives) {
  Fixture f;
  ASSERT_EQ(f.kernel.Retype(f.Slot(kUntypedSlot), ObjectType::kEndpoint, 0,
                            f.root, 10, 1),
            KernelStatus::kOk);
  rlsim::TimePoint call_done;
  f.sim.Spawn([](Simulator& s, Kernel& k, SlotAddr ep,
                 rlsim::TimePoint& done) -> Task<void> {
    IpcMessage msg;  // named: GCC 12 mishandles non-trivial prvalue args to coroutines
    IpcMessage reply;
    co_await k.Call(ep, std::move(msg), &reply);
    done = s.now();
  }(f.sim, f.kernel, f.Slot(10), call_done));
  f.sim.Spawn([](Simulator& s, Kernel& k, SlotAddr ep) -> Task<void> {
    co_await s.Sleep(Duration::Millis(5));
    EXPECT_EQ(k.queued_calls(ep), 1u);
    Received got;
    co_await k.Recv(ep, &got);
    k.Reply(got.reply, IpcMessage{});
  }(f.sim, f.kernel, f.Slot(10)));
  f.sim.Run();
  EXPECT_GE(call_done, rlsim::TimePoint::Origin() + Duration::Millis(5));
  EXPECT_EQ(f.kernel.queued_calls(f.Slot(10)), 0u);
  f.kernel.CheckInvariants();
}

TEST(KernelTest, CallReplyRoundTrip) {
  Fixture f;
  ASSERT_EQ(f.kernel.Retype(f.Slot(kUntypedSlot), ObjectType::kEndpoint, 0,
                            f.root, 10, 1),
            KernelStatus::kOk);
  // Server: receive, double the word, reply.
  f.sim.Spawn([](Kernel& k, SlotAddr ep) -> Task<void> {
    Received got;
    co_await k.Recv(ep, &got);
    IpcMessage reply;
    reply.words = {got.message.words[0] * 2};
    k.Reply(got.reply, std::move(reply));
  }(f.kernel, f.Slot(10)));
  IpcMessage reply;
  KernelStatus call_st = KernelStatus::kInvalidArgument;
  f.sim.Spawn([](Kernel& k, SlotAddr ep, IpcMessage& out,
                 KernelStatus& st) -> Task<void> {
    IpcMessage msg;
    msg.words = {21};
    st = co_await k.Call(ep, std::move(msg), &out);
  }(f.kernel, f.Slot(10), reply, call_st));
  f.sim.Run();
  EXPECT_EQ(call_st, KernelStatus::kOk);
  ASSERT_EQ(reply.words.size(), 1u);
  EXPECT_EQ(reply.words[0], 42u);
}

TEST(KernelTest, CallToNonEndpointCapFails) {
  Fixture f;
  ASSERT_EQ(f.kernel.Retype(f.Slot(kUntypedSlot), ObjectType::kCNode, 4096,
                            f.root, 10, 1),
            KernelStatus::kOk);
  KernelStatus st = KernelStatus::kOk;
  f.sim.Spawn([](Kernel& k, SlotAddr ep, KernelStatus& out) -> Task<void> {
    IpcMessage msg;  // named: GCC 12 mishandles non-trivial prvalue args to coroutines
    IpcMessage reply;
    out = co_await k.Call(ep, std::move(msg), &reply);
  }(f.kernel, f.Slot(10), st));
  f.sim.Run();
  EXPECT_EQ(st, KernelStatus::kTypeMismatch);
  EXPECT_EQ(f.sim.now(), rlsim::TimePoint::Origin());  // no kernel entry cost
}

TEST(KernelTest, IpcCostsSimulatedTime) {
  Fixture f;
  ASSERT_EQ(f.kernel.Retype(f.Slot(kUntypedSlot), ObjectType::kEndpoint, 0,
                            f.root, 10, 1),
            KernelStatus::kOk);
  f.sim.Spawn([](Kernel& k, SlotAddr ep) -> Task<void> {
    Received got;
    co_await k.Recv(ep, &got);
    k.Reply(got.reply, IpcMessage{});
  }(f.kernel, f.Slot(10)));
  f.sim.Spawn([](Kernel& k, SlotAddr ep) -> Task<void> {
    IpcMessage msg;  // named: GCC 12 mishandles non-trivial prvalue args to coroutines
    IpcMessage reply;
    co_await k.Call(ep, std::move(msg), &reply);
  }(f.kernel, f.Slot(10)));
  f.sim.Run();
  // Both sides enter the kernel at once (300 ns); the transfer adds 700 ns.
  EXPECT_EQ(f.sim.now() - rlsim::TimePoint::Origin(), Duration::Micros(1));
}

TEST(KernelTest, InvalidSlotOperations) {
  Fixture f;
  EXPECT_EQ(f.kernel.Lookup(SlotAddr{f.root, 9999}, nullptr),
            KernelStatus::kInvalidSlot);
  EXPECT_EQ(f.kernel.Lookup(f.Slot(50), nullptr), KernelStatus::kEmptySlot);
  EXPECT_EQ(f.kernel.Lookup(SlotAddr{kNullObject, 0}, nullptr),
            KernelStatus::kInvalidSlot);
}

}  // namespace
}  // namespace rlkern
