// Seeded RC302: the commit record is appended but never awaited durable —
// a power cut after Commit returns can lose an acknowledged transaction.
// The helper Commit calls afterwards reaches a Force only when a checkpoint
// is due, so it does not count as awaiting the record.
#include "src/db/wal.h"

namespace rldb {

class Database {
 public:
  void Apply(const LogRecord& rec) {
    switch (rec.type) {
      case LogRecordType::kUpdate:
        applied_++;
        break;
      case LogRecordType::kCommit:
        committed_++;
        break;
    }
  }

  uint64_t Commit(uint64_t key) {
    LogRecord rec;
    rec.type = LogRecordType::kCommit;
    rec.key = key;
    const uint64_t lsn = wal_.Append(rec);
    MaybeCheckpoint();
    return lsn;
  }

  void MaybeCheckpoint() {
    if (applied_ > 100) {
      wal_.Force();
    }
  }

  void Update(uint64_t key) {
    LogRecord rec;
    rec.type = LogRecordType::kUpdate;
    rec.key = key;
    const uint64_t lsn = wal_.Append(rec);
    wal_.WaitDurable(lsn);
  }

 private:
  Wal wal_;
  uint64_t applied_ = 0;
  uint64_t committed_ = 0;
};

}  // namespace rldb
