#include "src/storage/block.h"

namespace rlstor {

std::string ToString(BlockStatus s) {
  switch (s) {
    case BlockStatus::kOk:
      return "ok";
    case BlockStatus::kDeviceOff:
      return "device-off";
    case BlockStatus::kOutOfRange:
      return "out-of-range";
    case BlockStatus::kTornWrite:
      return "torn-write";
    case BlockStatus::kIoError:
      return "io-error";
  }
  return "unknown";
}

}  // namespace rlstor
