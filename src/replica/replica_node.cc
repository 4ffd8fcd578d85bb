#include "src/replica/replica_node.h"

#include <utility>

#include "src/obs/trace_context.h"
#include "src/replica/frame.h"
#include "src/sim/check.h"
#include "src/storage/disk_model.h"

namespace rlrep {

using rlsim::Task;
using rlstor::BlockStatus;
using rlstor::kSectorSize;

namespace {

// Replica disk size; it must cover the primary log device's sector range
// (256 MiB).
constexpr uint64_t kDiskSectors = 512ull * 1024;

}  // namespace

ReplicaNode::ReplicaNode(rlsim::Simulator& sim, rlnet::NetworkFabric& fabric,
                         std::string name, std::string primary_name)
    : sim_(sim),
      fabric_(fabric),
      name_(std::move(name)),
      primary_name_(std::move(primary_name)),
      endpoint_(fabric.CreateEndpoint(name_)) {
  rlstor::SimBlockDevice::Options disk_opts;
  disk_opts.geometry.sector_count = kDiskSectors;
  disk_opts.cache_policy = rlstor::WriteCachePolicy::kWriteBack;
  disk_opts.name = name_ + "-disk";
  // Replica log stores are flash: apply latency then stays small next to
  // the link RTT, which is the regime E11 measures.
  disk_ = std::make_unique<rlstor::SimBlockDevice>(sim_, disk_opts,
                                                   rlstor::MakeDefaultSsd());
  sim_.Spawn(ReceiveLoop(), name_ + "-recv");
}

Task<void> ReplicaNode::ReceiveLoop() {
  while (true) {
    rlnet::Message msg = co_await endpoint_.Receive();
    const auto type = PeekFrameType(msg.payload);
    if (!type.has_value()) {
      stats_.crc_failures.Add();
      continue;
    }
    switch (*type) {
      case FrameType::kShip: {
        const rlsim::TimePoint received_at = sim_.now();
        auto ship = DecodeShip(msg.payload);
        if (!ship.has_value()) {
          stats_.crc_failures.Add();
          break;
        }
        if (ship->seq < next_expected_) {
          // Already durable here; the ack must have been lost.
          stats_.duplicates.Add();
        } else if (ship->seq > next_expected_) {
          // A predecessor was lost; go-back-N discards until it arrives.
          stats_.gaps.Add();
        } else {
          // Child of the shipper's replicate-block span (context rides the
          // frame extension, including on retransmits): the apply cost of
          // this block on this replica in the causal tree.
          const rlobs::TraceContext ctx = rlobs::TraceContext::Decode(msg.ext);
          rlsim::SpanScope span(sim_, name_, "replica-apply",
                                static_cast<int64_t>(ship->seq),
                                ctx.parent_span);
          RL_CHECK_MSG(!ship->payload.empty() &&
                           ship->payload.size() % kSectorSize == 0,
                       "shipped block not sector-aligned");
          const BlockStatus st =
              co_await disk_->Write(ship->lba, ship->payload, /*fua=*/true);
          if (st != BlockStatus::kOk) {
            // Replica disk refused (it has its own failure domain); do not
            // advance — the shipper will retransmit.
            break;
          }
          ++next_expected_;
          stats_.blocks_applied.Add();
          stats_.bytes_applied.Add(static_cast<int64_t>(ship->payload.size()));
          stats_.apply_latency.RecordDuration(sim_.now() - received_at);
        }
        fabric_.Send(name_, primary_name_, EncodeAck(next_expected_));
        break;
      }
      case FrameType::kReset: {
        const auto reset = DecodeReset(msg.payload);
        if (!reset.has_value()) {
          stats_.crc_failures.Add();
          break;
        }
        if (reset->next_seq > next_expected_) {
          next_expected_ = reset->next_seq;
          stats_.resets.Add();
        }
        fabric_.Send(name_, primary_name_, EncodeAck(next_expected_));
        break;
      }
      case FrameType::kAck:
        // Replicas do not receive acks; a misrouted frame is dropped.
        stats_.crc_failures.Add();
        break;
    }
  }
}

void ReplicaNode::RegisterStats(rlsim::StatsRegistry& registry,
                                const std::string& prefix) const {
  registry.RegisterCounter(prefix + "blocks_applied", &stats_.blocks_applied);
  registry.RegisterCounter(prefix + "bytes_applied", &stats_.bytes_applied);
  registry.RegisterCounter(prefix + "duplicates", &stats_.duplicates);
  registry.RegisterCounter(prefix + "gaps", &stats_.gaps);
  registry.RegisterCounter(prefix + "crc_failures", &stats_.crc_failures);
  registry.RegisterCounter(prefix + "resets", &stats_.resets);
  registry.RegisterHistogram(prefix + "apply_latency", &stats_.apply_latency,
                             /*as_duration=*/true);
}

}  // namespace rlrep
