// Seeded RC301: the commit counter (the client-visible acknowledgement)
// ticks before the commit record is awaited durable. The helper Commit calls
// before the counter reaches a Force only inside the checkpoint task it
// spawns, which runs on its own: no durability point on the commit's path.
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
    MaybeScheduleCheckpoint();
    stats_.commits.Add();
    wal_.WaitDurable(lsn);
    return lsn;
  }

  void MaybeScheduleCheckpoint() {
    sim_.Spawn(
        [](Database& db) {
          db.Checkpoint();
        }(*this),
        "checkpoint");
  }

  void Checkpoint() { wal_.Force(); }

  void Update(uint64_t key) {
    LogRecord rec;
    rec.type = LogRecordType::kUpdate;
    rec.key = key;
    const uint64_t lsn = wal_.Append(rec);
    wal_.WaitDurable(lsn);
  }

 private:
  struct Counter {
    void Add();
  };
  struct Stats {
    Counter commits;
  };

  Simulator sim_;
  Wal wal_;
  Stats stats_;
  uint64_t applied_ = 0;
  uint64_t committed_ = 0;
};

}  // namespace rldb
