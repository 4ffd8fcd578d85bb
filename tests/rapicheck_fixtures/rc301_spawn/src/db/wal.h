// Minimal WAL and simulator surface satisfying every RC contract: explicit
// on-disk values, every kind produced and consumed, redo switch exhaustive.
#pragma once

#include <cstdint>

namespace rldb {

inline constexpr int kRedoSlices = 64;

enum class LogRecordType : uint8_t {
  kUpdate = 1,
  kCommit = 2,
};

struct LogRecord {
  LogRecordType type = LogRecordType::kUpdate;
  uint64_t key = 0;
};

class Wal {
 public:
  uint64_t Append(LogRecord rec);
  void WaitDurable(uint64_t lsn);
  void Force();
};

class Simulator {
 public:
  template <typename T>
  void Spawn(T task, const char* name);
};

}  // namespace rldb
