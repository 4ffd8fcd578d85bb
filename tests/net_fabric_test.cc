#include "src/net/network_fabric.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"

namespace rlnet {
namespace {

using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;
using rlsim::TimePoint;

std::vector<uint8_t> Payload(uint8_t tag, size_t size = 64) {
  std::vector<uint8_t> p(size, tag);
  return p;
}

// Receives a message already waiting at `ep`; the receive completes at once,
// so virtual time does not move.
Message ReceivePending(Simulator& sim, Endpoint& ep) {
  EXPECT_GT(ep.pending(), 0u);
  Message m;
  sim.Spawn([](Endpoint& e, Message& out) -> Task<void> {
    out = co_await e.Receive();
  }(ep, m));
  sim.Run();
  return m;
}

TEST(NetworkFabricTest, DeliversWithBaseLatencyAndTxTime) {
  Simulator sim;
  NetworkFabric fabric(sim);
  fabric.CreateEndpoint("a");
  Endpoint& b = fabric.CreateEndpoint("b");
  LinkParams params;
  params.base_latency = Duration::Millis(1);
  params.bandwidth_mbps = 1.0;  // 1 MB/s -> 1000 bytes take 1 ms
  fabric.Connect("a", "b", params);

  TimePoint arrival;
  sim.Spawn([](Endpoint& ep, TimePoint& out, Simulator& s) -> Task<void> {
    Message m = co_await ep.Receive();
    out = s.now();
  }(b, arrival, sim));
  ASSERT_TRUE(fabric.Send("a", "b", Payload(1, 1000)));
  sim.Run();

  // 1 ms serialisation + 1 ms propagation.
  EXPECT_EQ(arrival, TimePoint::Origin() + Duration::Millis(2));
  EXPECT_EQ(fabric.stats().messages_delivered.value(), 1);
}

TEST(NetworkFabricTest, InOrderDeliveryUnderJitter) {
  // With heavy jitter, per-link delivery must still be FIFO.
  Simulator sim(7);
  NetworkFabric fabric(sim);
  fabric.CreateEndpoint("a");
  Endpoint& b = fabric.CreateEndpoint("b");
  LinkParams params;
  params.jitter = Duration::Millis(50);
  fabric.Connect("a", "b", params);

  std::vector<uint8_t> order;
  sim.Spawn([](Endpoint& ep, std::vector<uint8_t>& out) -> Task<void> {
    for (int i = 0; i < 32; ++i) {
      Message m = co_await ep.Receive();
      out.push_back(m.payload.front());
    }
  }(b, order));
  for (uint8_t i = 0; i < 32; ++i) {
    fabric.Send("a", "b", Payload(i));
  }
  sim.Run();

  ASSERT_EQ(order.size(), 32u);
  for (uint8_t i = 0; i < 32; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(NetworkFabricTest, DeterministicFromSeed) {
  // Same seed -> bit-identical arrival schedule, including which messages a
  // lossy link drops. Different seed -> (with overwhelming probability for
  // this workload) a different schedule.
  auto run = [](uint64_t seed) {
    Simulator sim(seed);
    NetworkFabric fabric(sim);
    fabric.CreateEndpoint("a");
    Endpoint& b = fabric.CreateEndpoint("b");
    LinkParams params;
    params.jitter = Duration::Millis(3);
    params.drop_probability = 0.3;
    fabric.Connect("a", "b", params);

    std::vector<int64_t> arrivals;
    sim.Spawn([](Endpoint& ep, std::vector<int64_t>& out,
                 Simulator& s) -> Task<void> {
      while (true) {
        Message m = co_await ep.Receive();
        out.push_back((s.now() - TimePoint::Origin()).nanos());
      }
    }(b, arrivals, sim));
    for (uint8_t i = 0; i < 64; ++i) {
      fabric.Send("a", "b", Payload(i));
    }
    sim.RunFor(Duration::Seconds(1));
    return arrivals;
  };

  const std::vector<int64_t> first = run(11);
  const std::vector<int64_t> second = run(11);
  const std::vector<int64_t> other = run(12);
  EXPECT_EQ(first, second);
  EXPECT_NE(first, other);
  EXPECT_FALSE(first.empty());
  EXPECT_LT(first.size(), 64u);  // some messages were dropped
}

TEST(NetworkFabricTest, IndependentLinksDoNotShareRandomness) {
  // Traffic on one lossy link must not perturb another link's arrivals.
  auto run = [](bool extra_traffic) {
    Simulator sim(3);
    NetworkFabric fabric(sim);
    fabric.CreateEndpoint("a");
    Endpoint& b = fabric.CreateEndpoint("b");
    fabric.CreateEndpoint("c");
    LinkParams jittery;
    jittery.jitter = Duration::Millis(2);
    fabric.Connect("a", "b", jittery);
    fabric.Connect("a", "c", jittery);

    std::vector<int64_t> arrivals;
    sim.Spawn([](Endpoint& ep, std::vector<int64_t>& out,
                 Simulator& s) -> Task<void> {
      for (int i = 0; i < 16; ++i) {
        co_await ep.Receive();
        out.push_back((s.now() - TimePoint::Origin()).nanos());
      }
    }(b, arrivals, sim));
    for (uint8_t i = 0; i < 16; ++i) {
      fabric.Send("a", "b", Payload(i));
      if (extra_traffic) {
        fabric.Send("a", "c", Payload(i));
      }
    }
    sim.RunFor(Duration::Seconds(1));
    return arrivals;
  };

  EXPECT_EQ(run(false), run(true));
}

TEST(NetworkFabricTest, PartitionBlackholesAndHeals) {
  Simulator sim;
  NetworkFabric fabric(sim);
  fabric.CreateEndpoint("a");
  Endpoint& b = fabric.CreateEndpoint("b");
  fabric.Connect("a", "b", LinkParams{});

  fabric.SetLinkUp("a", "b", false);
  EXPECT_FALSE(fabric.Send("a", "b", Payload(1)));
  sim.Run();
  EXPECT_EQ(b.pending(), 0u);
  EXPECT_EQ(fabric.stats().messages_blackholed.value(), 1);

  fabric.SetLinkUp("a", "b", true);
  EXPECT_TRUE(fabric.Send("a", "b", Payload(2)));
  sim.Run();
  ASSERT_EQ(b.pending(), 1u);
  const Message m = ReceivePending(sim, b);
  EXPECT_EQ(m.payload.front(), 2);
  EXPECT_EQ(m.from, "a");
}

TEST(NetworkFabricTest, InFlightMessagesSurviveAPartition) {
  // Cutting the link blackholes new sends only; what is already on the wire
  // still arrives.
  Simulator sim;
  NetworkFabric fabric(sim);
  fabric.CreateEndpoint("a");
  Endpoint& b = fabric.CreateEndpoint("b");
  LinkParams params;
  params.base_latency = Duration::Millis(5);
  fabric.Connect("a", "b", params);

  EXPECT_TRUE(fabric.Send("a", "b", Payload(1)));
  fabric.SetLinkUp("a", "b", false);
  sim.Run();
  EXPECT_EQ(b.pending(), 1u);
}

TEST(NetworkFabricTest, SerialisationQueueing) {
  // Two back-to-back sends: the second queues behind the first's tx time.
  Simulator sim;
  NetworkFabric fabric(sim);
  fabric.CreateEndpoint("a");
  Endpoint& b = fabric.CreateEndpoint("b");
  LinkParams params;
  params.base_latency = Duration::Zero();
  params.bandwidth_mbps = 1.0;  // 1000 bytes = 1 ms
  fabric.Connect("a", "b", params);

  std::vector<int64_t> arrivals;
  sim.Spawn([](Endpoint& ep, std::vector<int64_t>& out,
               Simulator& s) -> Task<void> {
    for (int i = 0; i < 2; ++i) {
      co_await ep.Receive();
      out.push_back((s.now() - TimePoint::Origin()).nanos());
    }
  }(b, arrivals, sim));
  fabric.Send("a", "b", Payload(1, 1000));
  fabric.Send("a", "b", Payload(2, 1000));
  sim.Run();

  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], Duration::Millis(1).nanos());
  EXPECT_EQ(arrivals[1], Duration::Millis(2).nanos());
}

TEST(NetworkFabricTest, SameInstantArrivalsKeepSendOrder) {
  // Three empty frames (no serialisation time) arrive at one instant: two
  // on a->c, one on b->c sent between them. The endpoint sees them in send
  // order, across links as well as within one.
  Simulator sim;
  NetworkFabric fabric(sim);
  fabric.CreateEndpoint("a");
  fabric.CreateEndpoint("b");
  Endpoint& c = fabric.CreateEndpoint("c");
  fabric.Connect("a", "c", LinkParams{});
  fabric.Connect("b", "c", LinkParams{});

  ASSERT_TRUE(fabric.Send("a", "c", {}, {1}));
  ASSERT_TRUE(fabric.Send("b", "c", {}, {2}));
  ASSERT_TRUE(fabric.Send("a", "c", {}, {3}));
  sim.Run();

  EXPECT_EQ(sim.now(), TimePoint::Origin() + LinkParams{}.base_latency);
  std::vector<std::pair<std::string, uint8_t>> got;
  while (c.pending() > 0) {
    const Message m = ReceivePending(sim, c);
    got.emplace_back(m.from, m.ext.at(0));
  }
  const std::vector<std::pair<std::string, uint8_t>> want = {
      {"a", 1}, {"b", 2}, {"a", 3}};
  EXPECT_EQ(got, want);
}

TEST(NetworkFabricTest, RecycledPayloadServesTheLinksNextSend) {
  Simulator sim;
  NetworkFabric fabric(sim);
  fabric.CreateEndpoint("a");
  Endpoint& b = fabric.CreateEndpoint("b");
  fabric.Connect("a", "b", LinkParams{});

  // Nothing parked yet: a fresh, empty buffer.
  std::vector<uint8_t> first = fabric.TakeBuffer("a", "b");
  EXPECT_EQ(first.capacity(), 0u);
  first = Payload(7, 300);
  const uint8_t* storage = first.data();
  ASSERT_TRUE(fabric.Send("a", "b", std::move(first)));
  sim.Run();

  Message m = ReceivePending(sim, b);
  EXPECT_EQ(m.payload.data(), storage);  // delivered without a copy
  fabric.Recycle(m.from, m.to, std::move(m.payload));

  // The other direction has its own pool.
  EXPECT_EQ(fabric.TakeBuffer("b", "a").capacity(), 0u);
  std::vector<uint8_t> next = fabric.TakeBuffer("a", "b");
  EXPECT_EQ(next.data(), storage);
  EXPECT_TRUE(next.empty());
  EXPECT_GE(next.capacity(), 300u);
  // Taken: the pool is empty again.
  EXPECT_EQ(fabric.TakeBuffer("a", "b").capacity(), 0u);
}

TEST(NetworkFabricTest, DroppedFrameReturnsItsBuffer) {
  Simulator sim;
  NetworkFabric fabric(sim);
  fabric.CreateEndpoint("a");
  fabric.CreateEndpoint("b");
  fabric.Connect("a", "b", LinkParams{});
  fabric.SetLinkUp("a", "b", false);

  std::vector<uint8_t> frame = Payload(1, 200);
  const uint8_t* storage = frame.data();
  EXPECT_FALSE(fabric.Send("a", "b", std::move(frame)));
  EXPECT_EQ(fabric.stats().messages_blackholed.value(), 1);
  EXPECT_EQ(fabric.TakeBuffer("a", "b").data(), storage);
}

}  // namespace
}  // namespace rlnet
