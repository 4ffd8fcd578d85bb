#include "src/replica/log_shipper.h"

#include <algorithm>
#include <utility>

#include "src/replica/frame.h"
#include "src/sim/check.h"
#include "src/sim/crc32.h"

namespace rlrep {

using rlsim::Duration;
using rlsim::Task;
using rlsim::TimePoint;
using rlstor::BlockStatus;
using rlstor::kSectorSize;

namespace {

// Base retransmission timeout: no cursor progress for this long (while data
// is outstanding) triggers a resend from the replica's cursor. Must
// comfortably exceed link RTT + replica apply time.
constexpr Duration kRetransmitTimeout = Duration::Millis(15);
// Granularity of the retransmission timer.
constexpr Duration kRetransmitTick = Duration::Millis(1);
// Exponential backoff cap: timeout * 2^k with k <= this.
constexpr int kMaxBackoffDoublings = 4;
static_assert(kMaxBackoffDoublings >= 0);
// Blocks re-sent per peer per timer firing.
constexpr uint64_t kMaxResendBatch = 64;
static_assert(kMaxResendBatch >= 1);

}  // namespace

std::string ToString(ShipMode m) {
  switch (m) {
    case ShipMode::kAsync:
      return "async";
    case ShipMode::kQuorumAck:
      return "quorum-ack";
  }
  return "unknown";
}

LogShipper::LogShipper(rlsim::Simulator& sim, rlnet::NetworkFabric& fabric,
                       const std::string& self_name,
                       std::vector<std::string> replica_names,
                       rlstor::BlockDevice& local, ShipMode mode)
    : sim_(sim),
      fabric_(fabric),
      self_name_(self_name),
      endpoint_(fabric.CreateEndpoint(self_name)),
      local_(local),
      mode_(mode),
      quorum_wake_(sim),
      retrans_wake_(sim) {
  RL_CHECK_MSG(!replica_names.empty(), "LogShipper needs >= 1 replica");
  for (std::string& name : replica_names) {
    peers_.push_back(Peer{.name = std::move(name),
                          .cursor = 0,
                          .last_activity = sim_.now(),
                          .backoff_doublings = 0});
  }
  sim_.Spawn(AckLoop(), self_name_ + "-acks");
  sim_.Spawn(RetransmitLoop(), self_name_ + "-retransmit");
}

void LogShipper::Ship(uint64_t lba, std::span<const uint8_t> data) {
  const uint64_t seq = next_seq_++;
  std::vector<uint8_t> frame = EncodeShip(seq, lba, data);

  ShippedBlockMeta meta{.seq = seq, .lba = lba, .sector_crcs = {}};
  meta.sector_crcs.reserve(data.size() / kSectorSize);
  for (size_t off = 0; off < data.size(); off += kSectorSize) {
    meta.sector_crcs.push_back(rlsim::Crc32c(data.subspan(off, kSectorSize)));
  }
  audit_log_.push_back(std::move(meta));

  stats_.blocks_shipped.Add();
  stats_.bytes_shipped.Add(static_cast<int64_t>(data.size()));
  stats_.lag_blocks.Record(static_cast<int64_t>(next_seq_ - quorum_cursor_));
  sim_.EmitTrace(self_name_, "ship-block", static_cast<uint32_t>(seq));

  // Root of the block's replication tree: each replica's apply span parents
  // under it via the frame-extension context, which also rides every
  // retransmit of this block (same tree, however late the frame lands).
  const uint64_t ship_span = sim_.EmitSpanBegin(self_name_, "replicate-block",
                                                static_cast<int64_t>(seq));
  const rlobs::TraceContext ctx{ship_span, ship_span, sim_.now().nanos()};
  std::vector<uint8_t> ext = ctx.Encode();
  for (const Peer& peer : peers_) {
    fabric_.Send(self_name_, peer.name, frame, ext);
  }
  sim_.EmitSpanEnd(ship_span, self_name_, "replicate-block");
  window_.push_back(WindowEntry{.seq = seq,
                                .frame = std::move(frame),
                                .ext = std::move(ext),
                                .shipped_at = sim_.now()});
  retrans_wake_.NotifyAll();
}

Task<BlockStatus> LogShipper::Write(uint64_t lba,
                                    std::span<const uint8_t> data, bool fua) {
  if (data.empty() || data.size() % kSectorSize != 0) {
    co_return BlockStatus::kOutOfRange;
  }
  if (!powered_) {
    co_return BlockStatus::kDeviceOff;
  }
  Ship(lba, data);
  const uint64_t shipped_upto = next_seq_;
  const BlockStatus st = co_await local_.Write(lba, data, fua);
  if (st != BlockStatus::kOk) {
    co_return st;
  }
  if (mode_ == ShipMode::kQuorumAck && fua) {
    // FUA is a durability point: honour it across the quorum as well.
    co_return co_await WaitQuorumUpTo(shipped_upto);
  }
  co_return BlockStatus::kOk;
}

Task<BlockStatus> LogShipper::Flush() {
  if (!powered_) {
    co_return BlockStatus::kDeviceOff;
  }
  const uint64_t shipped_upto = next_seq_;
  const BlockStatus st = co_await local_.Flush();
  if (st != BlockStatus::kOk) {
    co_return st;
  }
  if (mode_ == ShipMode::kQuorumAck && shipped_upto > 0) {
    co_return co_await WaitQuorumUpTo(shipped_upto);
  }
  co_return BlockStatus::kOk;
}

Task<BlockStatus> LogShipper::Read(uint64_t lba, std::span<uint8_t> out) {
  co_return co_await local_.Read(lba, out);
}

Task<BlockStatus> LogShipper::WaitQuorumUpTo(uint64_t target) {
  rlsim::SpanScope span(sim_, self_name_, "quorum-wait",
                        static_cast<int64_t>(target));
  const TimePoint t0 = sim_.now();
  while (powered_ && quorum_cursor_ < target) {
    co_await quorum_wake_.Wait();
  }
  stats_.quorum_wait.RecordDuration(sim_.now() - t0);
  co_return quorum_cursor_ >= target ? BlockStatus::kOk
                                     : BlockStatus::kDeviceOff;
}

void LogShipper::AdvanceQuorum() {
  std::vector<uint64_t> cursors;
  cursors.reserve(peers_.size());
  for (const Peer& peer : peers_) {
    cursors.push_back(peer.cursor);
  }
  std::sort(cursors.begin(), cursors.end(), std::greater<>());
  const uint64_t new_quorum = cursors[quorum_size() - 1];
  if (new_quorum > quorum_cursor_) {
    // Record ship->quorum-durable latency for each newly covered block that
    // is still in the window (epoch jumps after a power cycle are not).
    const TimePoint now = sim_.now();
    if (!window_.empty()) {
      const uint64_t base = window_.front().seq;
      for (uint64_t seq = std::max(quorum_cursor_, base);
           seq < std::min(new_quorum, base + window_.size()); ++seq) {
        stats_.quorum_ack_latency.RecordDuration(
            now - window_[seq - base].shipped_at);
      }
    }
    quorum_cursor_ = new_quorum;
    quorum_wake_.NotifyAll();
  }
  // Entries below every peer's cursor can never be resent again.
  const uint64_t min_cursor =
      std::min_element(peers_.begin(), peers_.end(),
                       [](const Peer& a, const Peer& b) {
                         return a.cursor < b.cursor;
                       })
          ->cursor;
  while (!window_.empty() && window_.front().seq < min_cursor) {
    window_.pop_front();
  }
}

Task<void> LogShipper::AckLoop() {
  while (true) {
    rlnet::Message msg = co_await endpoint_.Receive();
    const auto ack = DecodeAck(msg.payload);
    if (!ack.has_value()) {
      stats_.garbage_frames.Add();
      continue;
    }
    stats_.acks_received.Add();
    if (!powered_) {
      // The primary is dark; its replication state is frozen for the
      // post-mortem audit. Replica cursors resync via RESET on restore.
      continue;
    }
    const auto it =
        std::find_if(peers_.begin(), peers_.end(),
                     [&](const Peer& p) { return p.name == msg.from; });
    if (it == peers_.end()) {
      stats_.garbage_frames.Add();
      continue;
    }
    if (ack->cursor > it->cursor) {
      it->cursor = ack->cursor;
      it->last_activity = sim_.now();
      it->backoff_doublings = 0;
      AdvanceQuorum();
    }
  }
}

bool LogShipper::AllCaughtUp() const {
  return std::all_of(peers_.begin(), peers_.end(), [&](const Peer& p) {
    return p.cursor >= next_seq_;
  });
}

void LogShipper::ResendTo(Peer& peer) {
  if (peer.cursor < reset_floor_) {
    // The data below the floor died with the previous power epoch; jump the
    // replica across the gap instead of retransmitting.
    fabric_.Send(self_name_, peer.name, EncodeReset(reset_floor_));
    stats_.retransmits.Add();
    return;
  }
  if (window_.empty()) {
    return;
  }
  const uint64_t base = window_.front().seq;
  RL_CHECK_MSG(peer.cursor >= base,
               "window trimmed past an unacked cursor for " << peer.name);
  const uint64_t end =
      std::min(next_seq_, peer.cursor + kMaxResendBatch);
  if (end > peer.cursor) {
    sim_.EmitTrace(self_name_, "retransmit",
                   static_cast<uint32_t>(end - peer.cursor));
  }
  for (uint64_t seq = peer.cursor; seq < end; ++seq) {
    fabric_.Send(self_name_, peer.name, window_[seq - base].frame,
                 window_[seq - base].ext);
    stats_.retransmits.Add();
  }
}

Task<void> LogShipper::RetransmitLoop() {
  while (true) {
    if (!powered_ || AllCaughtUp()) {
      co_await retrans_wake_.Wait();
      continue;
    }
    co_await sim_.Sleep(kRetransmitTick);
    if (!powered_) {
      continue;
    }
    const TimePoint now = sim_.now();
    for (Peer& peer : peers_) {
      if (peer.cursor >= next_seq_) {
        continue;
      }
      const Duration timeout =
          kRetransmitTimeout *
          (int64_t{1} << std::min(peer.backoff_doublings,
                                  kMaxBackoffDoublings));
      if (now - peer.last_activity < timeout) {
        continue;
      }
      ResendTo(peer);
      peer.last_activity = now;
      if (peer.backoff_doublings < kMaxBackoffDoublings) {
        ++peer.backoff_doublings;
      }
    }
  }
}

void LogShipper::PowerLoss() {
  if (!powered_) {
    return;
  }
  powered_ = false;
  had_power_loss_ = true;
  cut_quorum_cursor_ = quorum_cursor_;
  // The window is volatile primary memory; the audit log is oracle state.
  window_.clear();
  quorum_wake_.NotifyAll();
  retrans_wake_.NotifyAll();
}

void LogShipper::PowerRestore() {
  if (powered_) {
    return;
  }
  powered_ = true;
  reset_floor_ = next_seq_;
  if (quorum_cursor_ < reset_floor_) {
    // Everything shipped but not quorum-acked before the cut is now
    // unrecoverable from the primary: RESETs will fast-forward peer cursors
    // across it, which advances quorum_cursor_ without the data having
    // landed anywhere. Record the range so the audits exclude it.
    reset_gaps_.emplace_back(quorum_cursor_, reset_floor_);
  }
  const TimePoint now = sim_.now();
  for (Peer& peer : peers_) {
    peer.backoff_doublings = 0;
    peer.last_activity = now;
    if (peer.cursor < reset_floor_) {
      fabric_.Send(self_name_, peer.name, EncodeReset(reset_floor_));
    }
  }
  retrans_wake_.NotifyAll();
}

void LogShipper::RegisterStats(rlsim::StatsRegistry& registry,
                               const std::string& prefix) const {
  registry.RegisterCounter(prefix + "blocks_shipped", &stats_.blocks_shipped);
  registry.RegisterCounter(prefix + "bytes_shipped", &stats_.bytes_shipped);
  registry.RegisterCounter(prefix + "retransmits", &stats_.retransmits);
  registry.RegisterCounter(prefix + "acks_received", &stats_.acks_received);
  registry.RegisterCounter(prefix + "garbage_frames", &stats_.garbage_frames);
  registry.RegisterHistogram(prefix + "lag_blocks", &stats_.lag_blocks);
  registry.RegisterHistogram(prefix + "quorum_ack_latency",
                             &stats_.quorum_ack_latency, /*as_duration=*/true);
  registry.RegisterHistogram(prefix + "quorum_wait", &stats_.quorum_wait,
                             /*as_duration=*/true);
}

}  // namespace rlrep
