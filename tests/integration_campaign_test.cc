// Cross-configuration durability campaign, parameterised over deployment
// mode × disk setup × fault type: the paper's guarantee must hold in every
// safe configuration, not just the headline one.
#include <gtest/gtest.h>

#include <memory>

#include "src/faults/durability_checker.h"
#include "src/harness/testbed.h"
#include "src/sim/simulator.h"
#include "src/workload/kv_workload.h"
#include "tests/testlib/campaign_util.h"

namespace rlharness {
namespace {

using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;

enum class Fault { kPowerCut, kGuestCrash };

using CampaignParams = std::tuple<DeploymentMode, DiskSetup, int /*Fault*/>;

class DurabilityCampaignTest
    : public ::testing::TestWithParam<CampaignParams> {};

TEST_P(DurabilityCampaignTest, NoAckedCommitLost) {
  const DeploymentMode mode = std::get<0>(GetParam());
  const DiskSetup disks = std::get<1>(GetParam());
  const Fault fault = static_cast<Fault>(std::get<2>(GetParam()));
  if (fault == Fault::kGuestCrash && mode == DeploymentMode::kNative) {
    GTEST_SKIP() << "native deployment has no guest to crash";
  }

  Simulator sim(static_cast<uint64_t>(std::get<2>(GetParam())) * 31 +
                static_cast<uint64_t>(disks) * 7 +
                static_cast<uint64_t>(mode));
  Testbed bed(sim, rltest::CampaignOptions(mode, disks));

  rlwork::KvConfig kv_cfg;
  kv_cfg.key_space = 2000;
  kv_cfg.write_fraction = 0.6;
  rlwork::KvWorkload kv(sim, kv_cfg);
  rlfault::DurabilityChecker checker;
  int bad_rounds = 0;

  rlwork::ClientDriver clients(sim, &checker);
  sim.Spawn([](Simulator& s, Testbed& b, rlwork::KvWorkload& w,
               rlwork::ClientDriver& d, rlfault::DurabilityChecker& chk,
               Fault f, int& bad) -> Task<void> {
    co_await b.Start();
    co_await w.Load(b.db(), 300);
    rlsim::Rng rng(s.rng().Fork());
    for (int round = 0; round < 3; ++round) {
      d.Spawn(4, w.Clients(b.db()), round * 10);
      co_await s.Sleep(Duration::Millis(rng.UniformInt(40, 250)));
      if (f == Fault::kPowerCut) {
        b.CutPower();
        d.Stop();
        co_await s.Sleep(Duration::Seconds(1));
        co_await b.RestorePowerAndRecover();
      } else {
        b.CrashGuest();
        d.Stop();
        co_await b.RecoverAfterGuestCrash();
      }
      const auto verdict = co_await chk.VerifyAfterRecovery(b.db());
      if (!verdict.ok()) {
        ++bad;
        ADD_FAILURE() << "round " << round << ": " << verdict.Summary();
      }
    }
  }(sim, bed, kv, clients, checker, fault, bad_rounds));
  sim.Run();
  EXPECT_EQ(bad_rounds, 0);
  if (bed.rapilog() != nullptr) {
    EXPECT_FALSE(bed.rapilog()->lost_data());
  }
}

// kUnsafeAsync deliberately excluded: it is the configuration that MAY lose
// data (verified separately in the integration test and E8).
INSTANTIATE_TEST_SUITE_P(
    AllSafeConfigs, DurabilityCampaignTest,
    ::testing::Combine(::testing::Values(DeploymentMode::kNative,
                                         DeploymentMode::kVirt,
                                         DeploymentMode::kRapiLog),
                       ::testing::Values(DiskSetup::kSharedHdd,
                                         DiskSetup::kSeparateHdd,
                                         DiskSetup::kBbwc,
                                         DiskSetup::kSsdLog),
                       ::testing::Values(0, 1)));

}  // namespace
}  // namespace rlharness
