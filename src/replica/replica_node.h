// A replica machine: receives sealed log blocks from the primary's
// LogShipper over the network fabric and persists them on its own simulated
// disk, at the same LBAs the primary's log device uses — so its disk image
// is, sector for sector, a (possibly lagging) copy of the primary's log.
//
// Protocol (go-back-N receiver):
//   * in-sequence SHIP  -> apply durably (FUA write), advance cursor, ACK;
//   * duplicate SHIP    -> re-ACK (the ack that retired it was lost);
//   * gap SHIP          -> discard, ACK the current cursor (the shipper's
//                          retransmission timer closes the gap);
//   * CRC mismatch      -> discard and count; indistinguishable from loss;
//   * RESET             -> fast-forward the cursor (primary power-cycled and
//                          cannot retransmit the gap; see log_shipper.h).
//
// The replica is a different failure domain: it is NOT registered with the
// primary's PSU, so a primary power cut leaves replica disks intact — that
// is the whole point of shipping the log.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/net/network_fabric.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/storage/block_device.h"

namespace rlrep {

class ReplicaNode {
 public:
  struct Stats {
    rlsim::Counter blocks_applied;
    rlsim::Counter bytes_applied;
    rlsim::Counter duplicates;     // SHIP below the cursor
    rlsim::Counter gaps;           // SHIP above the cursor (a loss upstream)
    rlsim::Counter crc_failures;   // malformed or corrupt frames
    rlsim::Counter resets;
    rlsim::Histogram apply_latency;  // ns, receive -> durable on medium
  };

  // Creates this node's fabric endpoint `name`. The caller connects it to
  // the primary (fabric.Connect) before traffic flows.
  ReplicaNode(rlsim::Simulator& sim, rlnet::NetworkFabric& fabric,
              std::string name, std::string primary_name);

  const std::string& name() const { return name_; }

  // Lowest sequence number not yet durable here; blocks [0, cursor) are on
  // this replica's medium.
  uint64_t cursor() const { return next_expected_; }

  rlstor::SimBlockDevice& disk() { return *disk_; }
  const rlstor::SimBlockDevice& disk() const { return *disk_; }

  const Stats& stats() const { return stats_; }
  void RegisterStats(rlsim::StatsRegistry& registry,
                     const std::string& prefix) const;

 private:
  rlsim::Task<void> ReceiveLoop();

  rlsim::Simulator& sim_;
  rlnet::NetworkFabric& fabric_;
  std::string name_;
  std::string primary_name_;
  rlnet::Endpoint& endpoint_;
  std::unique_ptr<rlstor::SimBlockDevice> disk_;
  uint64_t next_expected_ = 0;
  Stats stats_;
};

}  // namespace rlrep
