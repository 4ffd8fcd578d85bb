// LogShipper: hooks the primary's durable-log write path and streams every
// sealed log block to a set of ReplicaNodes over the network fabric.
//
// The shipper is a BlockDevice interposer: it sits between the DBMS-facing
// log device and the local durable path (the RapiLogDevice in a RapiLog
// deployment, the raw log disk otherwise). Every Write is assigned a dense
// sequence number, CRC-framed, and sent to each replica; the local write
// proceeds concurrently, so shipping costs the primary no mechanical time.
//
// Two replication modes:
//   * kAsync      the primary never blocks on the network: Write/Flush
//                 complete on local durability alone, and replication lag
//                 (blocks shipped but not yet quorum-durable) is tracked as
//                 a statistic. Durability across primary loss is bounded by
//                 that lag.
//   * kQuorumAck  Flush — the WAL's durability point — and FUA writes
//                 complete only once a majority of replicas have reported
//                 the data durable on their own disks. Commit latency then
//                 tracks the majority link RTT; in exchange, every
//                 acknowledged commit survives even the total loss of the
//                 primary's volatile state AND its disks.
//
// Reliability over the lossy fabric is go-back-N: replicas ack with a
// cumulative cursor; a retransmission timer (exponential backoff, capped)
// resends from the lowest unacked cursor, which is also what catches a
// replica up after a partition heals. After a primary power cycle the
// in-memory window is gone, so the shipper instead sends RESET(next_seq):
// replicas fast-forward across the unrecoverable gap and resume (a real
// deployment would re-ship from the local log; the epoch jump keeps the
// model small and is visible in the replica's `resets` counter).
//
// For the durability oracle (src/faults), the shipper keeps an append-only
// audit log of per-sector CRCs for everything it ever shipped, plus a
// snapshot of the quorum cursor taken when the rails drop. That metadata is
// checker state, not system state: it survives power loss by design.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/net/network_fabric.h"
#include "src/obs/trace_context.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/sim/sync.h"
#include "src/storage/block_device.h"

namespace rlrep {

enum class ShipMode { kAsync, kQuorumAck };

std::string ToString(ShipMode m);

// Everything ever shipped, for block-level durability auditing.
struct ShippedBlockMeta {
  uint64_t seq = 0;
  uint64_t lba = 0;
  std::vector<uint32_t> sector_crcs;  // CRC-32C per 512-byte sector
};

class LogShipper : public rlstor::BlockDevice {
 public:
  struct Stats {
    rlsim::Counter blocks_shipped;
    rlsim::Counter bytes_shipped;
    rlsim::Counter retransmits;   // frames re-sent (data + RESET)
    rlsim::Counter acks_received;
    rlsim::Counter garbage_frames;
    rlsim::Histogram lag_blocks;         // shipped-not-quorum, sampled/ship
    rlsim::Histogram quorum_ack_latency;  // ns, ship -> quorum durable
    rlsim::Histogram quorum_wait;         // ns, stall inside Write/Flush
  };

  // `self_name` must already exist as a fabric endpoint is created here; the
  // replicas must each have an endpoint and a link to `self_name` before
  // traffic flows. `local` is the primary's own durable path and must
  // outlive the shipper.
  LogShipper(rlsim::Simulator& sim, rlnet::NetworkFabric& fabric,
             const std::string& self_name,
             std::vector<std::string> replica_names,
             rlstor::BlockDevice& local, ShipMode mode);

  // --- rlstor::BlockDevice ---------------------------------------------------

  const rlstor::Geometry& geometry() const override {
    return local_.geometry();
  }

  // Ships the block to every replica, then performs the local write. In
  // quorum mode a FUA write additionally waits for majority durability.
  rlsim::Task<rlstor::BlockStatus> Write(uint64_t lba,
                                         std::span<const uint8_t> data,
                                         bool fua) override;

  // Local flush; in quorum mode additionally waits until everything shipped
  // so far is majority-durable (this is the WAL's commit durability point).
  rlsim::Task<rlstor::BlockStatus> Flush() override;
  // In quorum mode Flush is the quorum durability point, so it must reach
  // the shipper; in async mode it is only the local device's flush.
  bool volatile_write_cache() const override {
    return mode_ == ShipMode::kQuorumAck ||
           local_.volatile_write_cache();
  }

  rlsim::Task<rlstor::BlockStatus> Read(uint64_t lba,
                                        std::span<uint8_t> out) override;

  void EnterEmergencyMode() override { local_.EnterEmergencyMode(); }

  // --- power (wired by the harness; the shipper rides the primary's rails) --

  void PowerLoss();
  void PowerRestore();
  bool powered() const { return powered_; }

  // --- introspection ---------------------------------------------------------

  ShipMode mode() const { return mode_; }
  // Next sequence number to be assigned (== blocks shipped so far).
  uint64_t next_seq() const { return next_seq_; }
  // Blocks [0, quorum_cursor) are durable on a majority of replicas.
  uint64_t quorum_cursor() const { return quorum_cursor_; }
  size_t replica_count() const { return peers_.size(); }
  size_t quorum_size() const { return peers_.size() / 2 + 1; }

  // The quorum cursor to audit against: frozen at the instant of the last
  // power loss (the durability promise outstanding when the machine died),
  // or live if the primary never lost power.
  uint64_t audit_quorum_cursor() const {
    return had_power_loss_ ? cut_quorum_cursor_ : quorum_cursor_;
  }
  const std::vector<ShippedBlockMeta>& shipped_blocks() const {
    return audit_log_;
  }

  // Seq ranges [lo, hi) the quorum accounting jumped over via RESET after a
  // primary power cycle. Blocks inside were never genuinely
  // quorum-acknowledged — the cursor crossing them is an epoch artifact, not
  // a durability promise — so the oracles must not demand them back.
  const std::vector<std::pair<uint64_t, uint64_t>>& reset_gaps() const {
    return reset_gaps_;
  }

  const Stats& stats() const { return stats_; }
  void RegisterStats(rlsim::StatsRegistry& registry,
                     const std::string& prefix) const;

 private:
  struct Peer {
    std::string name;
    uint64_t cursor = 0;
    rlsim::TimePoint last_activity;  // last progress or resend attempt
    int backoff_doublings = 0;
  };
  struct WindowEntry {
    uint64_t seq = 0;
    std::vector<uint8_t> frame;  // encoded SHIP, resent verbatim
    // Encoded TraceContext of the original ship (empty when untraced);
    // retransmits carry it so late replica-apply spans still join the
    // block's causal tree.
    std::vector<uint8_t> ext;
    rlsim::TimePoint shipped_at;
  };

  void Ship(uint64_t lba, std::span<const uint8_t> data);
  // Recomputes the quorum cursor from peer cursors, records ack latencies
  // for newly quorum-durable blocks, wakes waiters, trims the window.
  void AdvanceQuorum();
  void ResendTo(Peer& peer);
  bool AllCaughtUp() const;
  // Quorum mode's durability point: waits (in a "quorum-wait" span, timed
  // into stats_.quorum_wait) until blocks [0, target) are majority-durable.
  // kDeviceOff if power was lost while waiting.
  rlsim::Task<rlstor::BlockStatus> WaitQuorumUpTo(uint64_t target);

  rlsim::Task<void> AckLoop();
  rlsim::Task<void> RetransmitLoop();

  rlsim::Simulator& sim_;
  rlnet::NetworkFabric& fabric_;
  std::string self_name_;
  rlnet::Endpoint& endpoint_;
  rlstor::BlockDevice& local_;
  ShipMode mode_;

  std::vector<Peer> peers_;
  std::deque<WindowEntry> window_;
  uint64_t next_seq_ = 0;
  uint64_t quorum_cursor_ = 0;
  // Sequence floor after a primary power cycle: peers below it are caught up
  // via RESET rather than retransmission (the data is gone).
  uint64_t reset_floor_ = 0;

  bool powered_ = true;
  bool had_power_loss_ = false;
  uint64_t cut_quorum_cursor_ = 0;
  std::vector<std::pair<uint64_t, uint64_t>> reset_gaps_;

  rlsim::WaitQueue quorum_wake_;
  rlsim::WaitQueue retrans_wake_;

  std::vector<ShippedBlockMeta> audit_log_;
  Stats stats_;
};

}  // namespace rlrep
