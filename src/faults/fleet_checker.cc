#include "src/faults/fleet_checker.h"

#include "src/sim/check.h"

namespace rlfault {

rlsim::Task<VerifyResult> FleetChecker::VerifyAfterRecovery(
    const rlshard::ShardDirectory& directory,
    const std::vector<rldb::Database*>& dbs) {
  co_return co_await Verify(
      [&directory, &dbs](uint64_t key, std::vector<uint8_t>* out) {
        rldb::Database* db = dbs.at(directory.ShardOf(key));
        RL_CHECK_MSG(db != nullptr, "fleet verify needs every shard recovered");
        return db->ReadCommitted(key, out);
      });
}

}  // namespace rlfault
