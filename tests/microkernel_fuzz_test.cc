// Randomised kernel fuzzing: thousands of random Retype calls (any type, size,
// count and destination, valid or not) interleaved with Call/Recv/Reply
// traffic from several clients, with every kernel invariant checked after
// each operation. This is the runtime stand-in for the "verified kernel"
// property the paper leverages.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "src/microkernel/kernel.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"

namespace rlkern {
namespace {

constexpr size_t kSlots = 128;
constexpr uint64_t kClients = 6;

// A client call: the words name the client and its sequence number; the
// server answers with the sequence number plus one.
rlsim::Task<void> ClientCall(Kernel& k, SlotAddr ep, uint64_t client,
                             uint64_t seq, int& answered, int& rejected) {
  IpcMessage msg;
  msg.words = {client, seq};
  IpcMessage reply;
  const KernelStatus st = co_await k.Call(ep, std::move(msg), &reply);
  if (st != KernelStatus::kOk) {
    ++rejected;
    co_return;
  }
  EXPECT_EQ(reply.words,
            (std::array<uint64_t, kMsgRegisters>{client, seq + 1}));
  ++answered;
}

rlsim::Task<void> ServerRecv(Kernel& k, SlotAddr ep,
                             std::vector<Received>& unanswered) {
  Received got;
  EXPECT_EQ(co_await k.Recv(ep, &got), KernelStatus::kOk);
  unanswered.push_back(std::move(got));
}

void Answer(Kernel& k, Received& got) {
  IpcMessage reply;
  reply.words = {got.message.words.at(0), got.message.words.at(1) + 1};
  EXPECT_EQ(k.Reply(got.reply, std::move(reply)), KernelStatus::kOk);
}

class KernelFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KernelFuzzTest, InvariantsSurviveRandomRetypeAndIpc) {
  rlsim::Simulator sim;
  Kernel kernel(sim);
  const ObjectId root = kernel.BootstrapCNode(kSlots);
  // A large region and a small one, so both exhaust at different rates.
  ASSERT_EQ(kernel.BootstrapUntyped(root, 0, 1 << 20), KernelStatus::kOk);
  ASSERT_EQ(kernel.BootstrapUntyped(root, 1, 16 << 10), KernelStatus::kOk);

  rlsim::Rng rng(GetParam());
  struct CNodeRef {
    ObjectId id;
    size_t slots;
  };
  std::vector<CNodeRef> cnodes = {{root, kSlots}};
  std::vector<SlotAddr> endpoints;
  std::vector<Received> unanswered;
  std::array<int, 7> statuses{};
  int spawned = 0;
  int answered = 0;
  int rejected = 0;
  uint64_t seq = 0;

  for (int step = 0; step < 3000; ++step) {
    const uint64_t op = rng.NextBelow(4);
    if (op == 0) {
      // Invalid requests too: untyped is no retype target, a CNode needs a
      // size, and a count of zero makes nothing.
      static constexpr ObjectType kTypes[] = {
          ObjectType::kEndpoint, ObjectType::kEndpoint, ObjectType::kCNode,
          ObjectType::kCNode, ObjectType::kUntyped};
      static constexpr size_t kSizes[] = {0, 32, 512, 4096, 16 << 10};
      const ObjectType type = kTypes[rng.NextBelow(5)];
      const size_t bytes = kSizes[rng.NextBelow(5)];
      const size_t count = rng.Chance(0.05) ? 0 : 1 + rng.NextBelow(3);
      // Mostly one of the two untypeds; sometimes any root slot, which may be
      // empty, out of range, or hold a capability of another type.
      const SlotAddr untyped =
          rng.Chance(0.7) ? SlotAddr{root, rng.NextBelow(2)}
                          : SlotAddr{root, rng.NextBelow(kSlots + 2)};
      // Mostly a CNode; sometimes any object id, CNode or not.
      CNodeRef dest = cnodes[rng.NextBelow(cnodes.size())];
      if (rng.Chance(0.1)) {
        dest = {rng.NextBelow(64), kSlots};
      }
      const CPtr first = rng.NextBelow(dest.slots + 4);
      const KernelStatus st =
          kernel.Retype(untyped, type, bytes, dest.id, first, count);
      ++statuses[static_cast<size_t>(st)];
      for (size_t i = 0; st == KernelStatus::kOk && i < count; ++i) {
        const SlotAddr made{dest.id, first + i};
        Capability cap;
        ASSERT_EQ(kernel.Lookup(made, &cap), KernelStatus::kOk);
        ASSERT_EQ(cap.type, type);
        if (type == ObjectType::kEndpoint) {
          endpoints.push_back(made);
        } else {
          cnodes.push_back({cap.object, bytes / 32});
        }
      }
    } else if (op == 1 && !endpoints.empty()) {
      // A call from a random client; one in ten aims at any root slot.
      const SlotAddr ep = rng.Chance(0.1)
                              ? SlotAddr{root, rng.NextBelow(kSlots)}
                              : endpoints[rng.NextBelow(endpoints.size())];
      sim.Spawn(ClientCall(kernel, ep, rng.NextBelow(kClients), seq++,
                           answered, rejected));
      ++spawned;
    } else if (op == 2 && !endpoints.empty()) {
      sim.Spawn(ServerRecv(kernel, endpoints[rng.NextBelow(endpoints.size())],
                           unanswered));
    } else if (op == 3 && !unanswered.empty()) {
      const size_t i = rng.NextBelow(unanswered.size());
      Answer(kernel, unanswered[i]);
      unanswered.erase(unanswered.begin() + static_cast<ptrdiff_t>(i));
    }
    sim.RunFor(rlsim::Duration::Nanos(
        static_cast<int64_t>(rng.NextBelow(2000))));
    ASSERT_NO_THROW(kernel.CheckInvariants()) << "step " << step;
  }

  // Drain: once the simulator idles, a queued call has no receiver waiting,
  // so serve it; answer everything received; repeat until nothing moves.
  for (bool progressed = true; progressed;) {
    sim.Run();
    progressed = !unanswered.empty();
    for (Received& got : unanswered) {
      Answer(kernel, got);
    }
    unanswered.clear();
    for (const SlotAddr& ep : endpoints) {
      for (size_t n = kernel.queued_calls(ep); n > 0; --n) {
        sim.Spawn(ServerRecv(kernel, ep, unanswered));
        progressed = true;
      }
    }
    ASSERT_NO_THROW(kernel.CheckInvariants());
  }
  EXPECT_EQ(answered + rejected, spawned);
  EXPECT_GT(answered, 100);
  EXPECT_GT(rejected, 0);
  // Every Retype outcome showed up, successes included.
  for (KernelStatus st :
       {KernelStatus::kOk, KernelStatus::kInvalidSlot, KernelStatus::kEmptySlot,
        KernelStatus::kSlotOccupied, KernelStatus::kTypeMismatch,
        KernelStatus::kOutOfMemory, KernelStatus::kInvalidArgument}) {
    EXPECT_GT(statuses[static_cast<size_t>(st)], 0) << ToString(st);
  }
  EXPECT_GT(statuses[static_cast<size_t>(KernelStatus::kOk)], 50);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelFuzzTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(KernelIpcStressTest, ManyClientsOneServer) {
  rlsim::Simulator sim;
  Kernel kernel(sim);
  const ObjectId root = kernel.BootstrapCNode(kSlots);
  ASSERT_EQ(kernel.BootstrapUntyped(root, 0, 1 << 20), KernelStatus::kOk);
  ASSERT_EQ(kernel.Retype(SlotAddr{root, 0}, ObjectType::kEndpoint, 0, root,
                          1, 1),
            KernelStatus::kOk);
  const SlotAddr ep{root, 1};

  constexpr int kClients = 16;
  std::vector<int> served_per_client(kClients, 0);
  constexpr int kCallsPerClient = 50;

  // Server loop. Each message's first word names its client.
  sim.Spawn([](Kernel& k, SlotAddr e, std::vector<int>& served)
                -> rlsim::Task<void> {
    for (int i = 0; i < kClients * kCallsPerClient; ++i) {
      Received got;
      const KernelStatus st = co_await k.Recv(e, &got);
      EXPECT_EQ(st, KernelStatus::kOk);
      const uint64_t client = got.message.words.at(0);
      EXPECT_LT(client, static_cast<uint64_t>(kClients));
      ++served[client];
      IpcMessage reply;
      reply.words = {got.message.words.at(1) + 1};
      k.Reply(got.reply, std::move(reply));
    }
  }(kernel, ep, served_per_client));

  // Clients.
  for (int c = 0; c < kClients; ++c) {
    sim.Spawn([](rlsim::Simulator& s, Kernel& k, SlotAddr e,
                 int id) -> rlsim::Task<void> {
      rlsim::Rng rng(static_cast<uint64_t>(id) + 777);
      for (int i = 0; i < kCallsPerClient; ++i) {
        co_await s.Sleep(rlsim::Duration::Micros(rng.UniformInt(1, 20)));
        IpcMessage msg;
        msg.words = {static_cast<uint64_t>(id), static_cast<uint64_t>(i)};
        IpcMessage reply;
        const KernelStatus st = co_await k.Call(e, std::move(msg), &reply);
        EXPECT_EQ(st, KernelStatus::kOk);
        EXPECT_EQ(reply.words[0], static_cast<uint64_t>(i) + 1);
      }
    }(sim, kernel, ep, c));
  }

  sim.Run();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(served_per_client[static_cast<size_t>(c)], kCallsPerClient);
  }
  EXPECT_EQ(kernel.queued_calls(ep), 0u);
  kernel.CheckInvariants();
}

}  // namespace
}  // namespace rlkern
