#include "src/shard/decision_log.h"

#include <utility>

#include "src/db/errors.h"

namespace rlshard {

rlsim::Task<void> DecisionLog::Recover() {
  if (writer_ != nullptr) {
    co_await writer_->Shutdown();
    writer_.reset();
  }
  // Volatile state is rebuilt from the log alone: decisions are only acted
  // on after they are durable, so nothing acknowledged can be missing here.
  committed_.clear();
  rldb::LogScanResult scan = co_await rldb::ScanLog(device_, profile_, 0);
  for (const rldb::LogRecord& rec : scan.records) {
    if (rec.type == rldb::LogRecordType::kCommit) {
      if (committed_.insert(rec.txn_id).second) {
        stats_.decisions_recovered.Add();
      }
    }
  }
  writer_ = std::make_unique<rldb::LogWriter>(
      sim_, device_, profile_, rldb::DurabilityMode::kSync);
  writer_->ResumeAt(scan.next_block, scan.next_lsn);
}

rlsim::Task<void> DecisionLog::LogCommit(uint64_t global_id) {
  if (committed_.count(global_id) > 0) {
    co_return;  // already durable (resolver re-drove a decided txn)
  }
  if (halted()) {
    throw rldb::EngineHalted();
  }
  const uint64_t lsn =
      writer_->Append(rldb::LogRecordType::kCommit, global_id, 0);
  co_await writer_->WaitDurable(lsn);  // throws EngineHalted on device death
  committed_.insert(global_id);
  stats_.decisions_logged.Add();
}

rlsim::Task<void> DecisionLog::Shutdown() {
  if (writer_ != nullptr) {
    co_await writer_->Shutdown();
  }
}

}  // namespace rlshard
