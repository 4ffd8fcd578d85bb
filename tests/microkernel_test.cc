#include "src/microkernel/kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <span>
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
  EXPECT_EQ(got.message.words,
            (std::array<uint64_t, kMsgRegisters>{1, 2, 3, 0}));
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
  EXPECT_EQ(reply.words, (std::array<uint64_t, kMsgRegisters>{42}));
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

// Several callers on one endpoint, answered in an order unrelated to their
// arrival: each reply reaches its own caller, and each granted frame is the
// caller's own buffer, which the receiver writes in place.
TEST(KernelTest, OutOfOrderRepliesReachTheirOwnCallers) {
  Fixture f;
  ASSERT_EQ(f.kernel.Retype(f.Slot(kUntypedSlot), ObjectType::kEndpoint, 0,
                            f.root, 10, 1),
            KernelStatus::kOk);
  constexpr size_t kCallers = 4;
  std::array<std::array<uint8_t, 16>, kCallers> frames{};
  std::array<uint64_t, kCallers> answers{};
  std::array<KernelStatus, kCallers> statuses{};
  statuses.fill(KernelStatus::kInvalidArgument);
  for (size_t i = 0; i < kCallers; ++i) {
    f.sim.Spawn([](Simulator& s, Kernel& k, SlotAddr ep, uint64_t id,
                   std::span<uint8_t> frame, uint64_t& answer,
                   KernelStatus& st) -> Task<void> {
      co_await s.Sleep(Duration::Nanos(static_cast<int64_t>(10 * id)));
      const IpcMessage msg{.label = 7, .words = {id}, .recv = frame};
      IpcMessage reply;
      st = co_await k.Call(ep, msg, &reply);
      answer = reply.words[0];
    }(f.sim, f.kernel, f.Slot(10), i, frames[i], answers[i], statuses[i]));
  }
  std::vector<Received> taken(kCallers);
  for (Received& got : taken) {
    f.sim.Spawn([](Kernel& k, SlotAddr ep, Received& out) -> Task<void> {
      EXPECT_EQ(co_await k.Recv(ep, &out), KernelStatus::kOk);
    }(f.kernel, f.Slot(10), got));
  }
  for (int step = 0; step < 100; ++step) {
    f.sim.RunFor(Duration::Nanos(20));
    f.kernel.CheckInvariants();
  }
  EXPECT_EQ(f.kernel.queued_calls(f.Slot(10)), 0u);
  std::array<Received*, kCallers> by_caller{};
  for (Received& got : taken) {
    ASSERT_TRUE(got.reply.valid());
    const uint64_t id = got.message.words[0];
    ASSERT_LT(id, kCallers);
    by_caller[id] = &got;
    // The frame is granted, not copied: the receiver sees the caller's own
    // buffer.
    EXPECT_EQ(got.message.recv.data(), frames[id].data());
    EXPECT_TRUE(got.message.send.empty());
  }
  for (const uint64_t id : {2u, 0u, 3u, 1u}) {
    Received& got = *by_caller[id];
    std::fill(got.message.recv.begin(), got.message.recv.end(),
              static_cast<uint8_t>(0xA0 + id));
    EXPECT_EQ(f.kernel.Reply(got.reply, IpcMessage{.words = {100 + id}}),
              KernelStatus::kOk);
    f.kernel.CheckInvariants();
    f.sim.Run();
    f.kernel.CheckInvariants();
    EXPECT_EQ(statuses[id], KernelStatus::kOk);
    EXPECT_EQ(answers[id], 100 + id);
  }
  for (size_t id = 0; id < kCallers; ++id) {
    std::array<uint8_t, 16> want;
    want.fill(static_cast<uint8_t>(0xA0 + id));
    EXPECT_EQ(frames[id], want) << "caller " << id;
  }
}

// A call still queued when everything is torn down: whichever of the kernel
// and the simulator (which owns the caller's frame) goes first, nothing is
// left pointing at the other. ASan checks the frees.
TEST(KernelTest, TeardownWithACallStillQueued) {
  const auto spawn_caller = [](Simulator& sim, Kernel& k, SlotAddr ep) {
    sim.Spawn([](Kernel& kk, SlotAddr e) -> Task<void> {
      const IpcMessage msg{.label = 1};
      IpcMessage reply;
      co_await kk.Call(e, msg, &reply);
      ADD_FAILURE() << "a call nobody received was answered";
    }(k, ep));
  };
  {
    // Kernel first: the usual member order of a testbed.
    Fixture f;
    ASSERT_EQ(f.kernel.Retype(f.Slot(kUntypedSlot), ObjectType::kEndpoint, 0,
                              f.root, 10, 1),
              KernelStatus::kOk);
    spawn_caller(f.sim, f.kernel, f.Slot(10));
    f.sim.Run();
    EXPECT_EQ(f.kernel.queued_calls(f.Slot(10)), 1u);
    f.kernel.CheckInvariants();
  }
  // Simulator first: the destroyed frame takes its call off the kernel.
  auto sim = std::make_unique<Simulator>();
  Kernel kernel(*sim);
  const ObjectId root = kernel.BootstrapCNode(kRootSlots);
  ASSERT_EQ(kernel.BootstrapUntyped(root, kUntypedSlot, 1 << 20),
            KernelStatus::kOk);
  ASSERT_EQ(kernel.Retype(SlotAddr{root, kUntypedSlot}, ObjectType::kEndpoint,
                          0, root, 10, 1),
            KernelStatus::kOk);
  spawn_caller(*sim, kernel, SlotAddr{root, 10});
  sim->Run();
  EXPECT_EQ(kernel.queued_calls(SlotAddr{root, 10}), 1u);
  sim.reset();
  EXPECT_EQ(kernel.queued_calls(SlotAddr{root, 10}), 0u);
  kernel.CheckInvariants();
}

// A caller whose frame is destroyed while its call waits in the queue, or
// while a receiver serves it: the kernel forgets the call, and the
// receiver's reply token answers nothing instead of writing into the dead
// frame.
TEST(KernelTest, CallerGoneBeforeTheReply) {
  Fixture f;
  ASSERT_EQ(f.kernel.Retype(f.Slot(kUntypedSlot), ObjectType::kEndpoint, 0,
                            f.root, 10, 1),
            KernelStatus::kOk);
  const auto make_caller = [](Kernel& k, SlotAddr ep) {
    return [](Kernel& kk, SlotAddr e) -> Task<void> {
      const IpcMessage msg{.label = 1};
      IpcMessage reply;
      co_await kk.Call(e, msg, &reply);
      ADD_FAILURE() << "a destroyed caller resumed";
    }(k, ep);
  };
  // Queued: no receiver yet.
  Task<void> queued = make_caller(f.kernel, f.Slot(10));
  queued.Start();
  f.sim.Run();
  EXPECT_EQ(f.kernel.queued_calls(f.Slot(10)), 1u);
  queued = Task<void>();
  EXPECT_EQ(f.kernel.queued_calls(f.Slot(10)), 0u);
  f.kernel.CheckInvariants();

  // Served: a receiver holds the reply token.
  Task<void> served = make_caller(f.kernel, f.Slot(10));
  served.Start();
  Received got;
  f.sim.Spawn([](Kernel& k, SlotAddr ep, Received& out) -> Task<void> {
    EXPECT_EQ(co_await k.Recv(ep, &out), KernelStatus::kOk);
  }(f.kernel, f.Slot(10), got));
  f.sim.Run();
  ASSERT_TRUE(got.reply.valid());
  f.kernel.CheckInvariants();
  served = Task<void>();
  f.kernel.CheckInvariants();
  EXPECT_EQ(f.kernel.Reply(got.reply, IpcMessage{}),
            KernelStatus::kInvalidArgument);
  EXPECT_FALSE(got.reply.valid());
  f.sim.Run();
  f.kernel.CheckInvariants();
}

}  // namespace
}  // namespace rlkern
