// Deterministic network model for the discrete-event simulator.
//
// A NetworkFabric connects named endpoints with point-to-point links. Each
// link direction has its own latency/bandwidth/jitter parameters and its own
// RNG stream (forked from the simulator's root RNG at Connect time), so runs
// are bit-for-bit reproducible from a single seed and adding traffic on one
// link never perturbs another's randomness.
//
// Delivery is via simulator events: Send() computes
//   departure  = max(now, link busy-until)          (serialisation queueing)
//   tx time    = bytes / bandwidth
//   arrival    = departure + tx + base latency + jitter
// and clamps arrival to never precede the link's previous arrival, so a link
// is strictly in-order (TCP-like) even with jitter. Messages are dropped with
// a configurable per-link probability (lossy fabric) and unconditionally
// while the link is down — SetLinkUp is the hook `src/faults` and the harness
// use to inject and heal network partitions.
//
// The fabric models the wire, not a protocol: no acks, no retransmission, no
// corruption (dropped frames simply vanish). Reliability is the sender's
// problem (see src/replica/log_shipper.h).
//
// Payload buffers are recycled per link, so a steady message stream
// allocates nothing: TakeBuffer hands out a parked buffer for the link, and
// Recycle (once the receiver is done with a payload) and every dropped frame
// park the payload's storage again. A message waits for its arrival
// in its link's in-flight queue; the delivery event names only the link.
#pragma once

#include <coroutine>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/fifo.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace rlnet {

struct LinkParams {
  // One-way propagation delay.
  rlsim::Duration base_latency = rlsim::Duration::Micros(100);
  // Serialisation rate; a message occupies the link for bytes/bandwidth.
  double bandwidth_mbps = 1000.0;
  // Extra per-message delay, uniform in [0, jitter).
  rlsim::Duration jitter = rlsim::Duration::Zero();
  // Probability a message silently vanishes (checked while the link is up).
  double drop_probability = 0.0;
};

struct Message {
  std::string from;
  std::string to;
  std::vector<uint8_t> payload;
  // Optional out-of-band frame extension (trace context; see
  // src/obs/trace_context.h). Deliberately NOT part of the modelled frame:
  // it contributes nothing to bandwidth/serialisation time or to
  // bytes_sent, so attaching it can never perturb the simulation — the
  // determinism contract behind "tracing on vs off is byte-identical".
  // Protocol codecs must never read behaviour out of it.
  std::vector<uint8_t> ext;
  rlsim::TimePoint sent_at;
};

// A named receiver. Created and owned by the fabric; holds the inbound queue.
class Endpoint {
 public:
  const std::string& name() const { return name_; }

  // Next message, waiting if none is pending. FIFO across all inbound links
  // (arrival order; ties resolved by the simulator's deterministic event
  // order). A plain awaitable, so a receive costs no coroutine frame: a
  // waiting receiver is parked until the next delivery. An endpoint has one
  // receiver; a wake-up that finds the inbox empty is a check failure.
  auto Receive() {
    struct Awaiter {
      Endpoint& ep;
      bool await_ready() const noexcept { return !ep.inbox_.empty(); }
      void await_suspend(std::coroutine_handle<> h) { ep.arrived_.Park(h); }
      Message await_resume() { return ep.PopFront(); }
    };
    return Awaiter{*this};
  }

  size_t pending() const { return inbox_.size(); }

 private:
  friend class NetworkFabric;
  Endpoint(rlsim::Simulator& sim, std::string name)
      : name_(std::move(name)), arrived_(sim) {}

  void Deliver(Message message);
  Message PopFront();

  std::string name_;
  rlsim::Fifo<Message> inbox_;
  rlsim::WaitQueue arrived_;
};

class NetworkFabric {
 public:
  struct Stats {
    rlsim::Counter messages_sent;
    rlsim::Counter messages_delivered;
    rlsim::Counter messages_dropped;     // random loss on an up link
    rlsim::Counter messages_blackholed;  // link down (partition)
    rlsim::Counter bytes_sent;
    rlsim::Histogram delivery_latency;  // ns, send -> delivery
  };

  explicit NetworkFabric(rlsim::Simulator& sim) : sim_(sim) {}

  NetworkFabric(const NetworkFabric&) = delete;
  NetworkFabric& operator=(const NetworkFabric&) = delete;

  // Name must be unique. The returned endpoint lives as long as the fabric.
  Endpoint& CreateEndpoint(const std::string& name);

  // Creates the pair of directed links a->b and b->a with the same
  // parameters (each direction still has independent state and RNG).
  void Connect(const std::string& a, const std::string& b, LinkParams params);

  // Enqueues a message for delivery. Returns true if a delivery event was
  // scheduled, false if the message was dropped (lossy link or link down).
  // Either way the caller must not rely on the outcome for correctness —
  // that is what end-to-end acks are for. The `ext` overload attaches an
  // out-of-band frame extension that rides along untimed and unaccounted
  // (see Message::ext); drops and blackholes discard it with the frame.
  bool Send(const std::string& from, const std::string& to,
            std::vector<uint8_t> payload);
  bool Send(const std::string& from, const std::string& to,
            std::vector<uint8_t> payload, std::vector<uint8_t> ext);

  // An empty payload buffer for the link from->to: the storage of a frame
  // this link delivered or dropped earlier, or a fresh vector if none is
  // parked.
  std::vector<uint8_t> TakeBuffer(const std::string& from,
                                  const std::string& to);

  // Parks a received payload's storage for the next TakeBuffer on the link
  // it came on, from->to. Call once its bytes are no longer read. A payload
  // with no storage is ignored.
  void Recycle(const std::string& from, const std::string& to,
               std::vector<uint8_t> payload);

  // Partition control: takes both directions between a and b up or down.
  // Messages already in flight still arrive (they are on the wire); new
  // sends are blackholed until the link comes back up.
  void SetLinkUp(const std::string& a, const std::string& b, bool up);

  // Degrades (or restores) both directions between a and b to the given
  // random-loss probability. Fault-injection hook: a flaky link rather than
  // a hard partition.
  void SetLinkLoss(const std::string& a, const std::string& b,
                   double drop_probability);

  const Stats& stats() const { return stats_; }

  // Registers this fabric's stats under `prefix` (e.g. "net.") for uniform
  // bench reporting.
  void RegisterStats(rlsim::StatsRegistry& registry,
                     const std::string& prefix) const;

 private:
  // Payload storage parked per link, in bytes of capacity; a buffer that
  // does not fit is freed. A bound in bytes, not buffers, keeps a link of
  // small frames from running dry in a burst of replies while a link of
  // large frames (or one whose sender never takes a buffer back) holds
  // little.
  static constexpr size_t kMaxSpareBytes = 64 * 1024;

  struct Link {
    LinkParams params;
    rlsim::Rng rng;
    Endpoint* dest = nullptr;
    bool up = true;
    rlsim::TimePoint busy_until;    // end of the last serialisation
    rlsim::TimePoint last_arrival;  // in-order floor for the next arrival
    // Scheduled, not yet delivered, in send order. Arrivals on a link never
    // decrease, so each delivery event takes the front.
    rlsim::Fifo<Message> in_flight;
    std::vector<std::vector<uint8_t>> spare;  // recycled payload storage
    size_t spare_bytes = 0;                   // their total capacity
  };

  Link* FindLink(const std::string& from, const std::string& to);
  void DeliverNext(Link& link);
  static void Park(Link& link, std::vector<uint8_t> payload);

  rlsim::Simulator& sim_;
  // Ordered maps: iteration (and thus any derived behaviour) is independent
  // of insertion order and hashing, keeping runs reproducible.
  std::map<std::string, std::unique_ptr<Endpoint>> endpoints_;
  std::map<std::pair<std::string, std::string>, Link> links_;
  Stats stats_;
};

}  // namespace rlnet
