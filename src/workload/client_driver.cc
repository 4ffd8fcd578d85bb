#include "src/workload/client_driver.h"

#include <utility>

#include "src/db/errors.h"
#include "src/vmm/vm.h"

namespace rlwork {

using rlsim::Duration;
using rlsim::Task;

std::optional<Duration> ExponentialPause(rlsim::Rng& rng, Duration mean) {
  if (mean <= Duration::Zero()) {
    return std::nullopt;
  }
  return Duration::Nanos(static_cast<int64_t>(
      rng.Exponential(static_cast<double>(mean.nanos()))));
}

Task<Outcome> EngineClient::Commit() {
  const rldb::DbStatus st = co_await db_.Commit(txn_);
  co_return st == rldb::DbStatus::kOk ? Outcome::kCommitted
                                      : Outcome::kAborted;
}

void ClientDriver::Spawn(int clients, const NewClient& make, int first_id,
                         const Wrap& wrap) {
  ++generation_;
  for (int c = 0; c < clients; ++c) {
    Task<void> client = Run(make(first_id + c), generation_);
    sim_.Spawn(wrap ? wrap(std::move(client)) : std::move(client),
               "workload-client");
  }
}

Task<void> ClientDriver::Run(std::unique_ptr<TxnSource> client,
                             uint64_t generation) {
  try {
    while (generation > stopped_through_) {
      if (const auto pause = client->PauseBefore()) {
        co_await sim_.Sleep(*pause);
      }
      const rlsim::TimePoint start = sim_.now();
      Txn txn = co_await client->Prepare();
      if (txn.state == Txn::kAborted) {
        stats_.aborted.Add();
      } else if (txn.state == Txn::kReady) {
        if (checker_ != nullptr && txn.token != 0) {
          checker_->OnCommitAttempt(txn.token, std::move(txn.writes));
        }
        const Outcome outcome = co_await client->Commit();
        stats_.txn_latency.RecordDuration(sim_.now() - start);
        Record(txn, outcome);
      }
      if (const auto pause = client->PauseAfter()) {
        co_await sim_.Sleep(*pause);
      }
    }
  } catch (const rlvmm::GuestCrashed&) {
    stats_.machine_deaths.Add();
  } catch (const rldb::EngineHalted&) {
    stats_.machine_deaths.Add();
  }
}

void ClientDriver::Record(const Txn& txn, Outcome outcome) {
  const bool tracked = checker_ != nullptr && txn.token != 0;
  switch (outcome) {
    case Outcome::kCommitted:
      if (tracked) {
        checker_->OnCommitAcked(txn.token);
      }
      stats_.committed.Add();
      stats_.committed_by_kind.at(txn.kind).Add();
      break;
    case Outcome::kAborted:
      if (tracked) {
        checker_->OnAborted(txn.token);
      }
      stats_.aborted.Add();
      break;
    case Outcome::kUnknown:
      // Left pending: the post-recovery verify promotes the commit if it
      // landed.
      stats_.unknown.Add();
      break;
  }
}

}  // namespace rlwork
