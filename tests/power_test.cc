#include "src/power/power.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/check.h"
#include "src/sim/simulator.h"

namespace rlpow {
namespace {

using rlsim::Duration;
using rlsim::Simulator;
using rlsim::TimePoint;

class RecordingSink : public PowerSink {
 public:
  void OnPowerFailWarning(Duration remaining) override {
    warnings.push_back(remaining);
  }
  void OnPowerDown() override { ++downs; }
  void OnPowerRestore() override { ++restores; }

  std::vector<Duration> warnings;
  int downs = 0;
  int restores = 0;
};

TEST(PowerSupplyTest, HoldupScalesWithLoad) {
  Simulator sim;
  PsuParams p;
  p.system_load_watts = 200;
  PowerSupply psu(sim, p);
  // Half of the 400 W rating -> double the 16 ms full-load hold-up.
  EXPECT_EQ(psu.HoldupWindow().millis(), 32);
}

TEST(PowerSupplyTest, UpsExtendsWindow) {
  Simulator sim;
  PsuParams p;
  p.ups_runtime = Duration::Seconds(60);
  PowerSupply psu(sim, p);
  EXPECT_GT(psu.HoldupWindow(), Duration::Seconds(60));
}

TEST(PowerSupplyTest, WarningThenDownSequence) {
  Simulator sim;
  PowerSupply psu(sim, PsuParams{});
  RecordingSink sink;
  psu.Register(&sink);

  psu.CutMains();
  EXPECT_FALSE(psu.mains_on());
  EXPECT_TRUE(psu.rails_on());

  sim.RunUntil(TimePoint::Origin() + Duration::Micros(300));
  ASSERT_EQ(sink.warnings.size(), 1u);
  EXPECT_EQ(sink.warnings[0], psu.GuaranteedWindowAfterWarning());
  EXPECT_EQ(sink.downs, 0);
  EXPECT_TRUE(psu.rails_on());

  sim.Run();
  EXPECT_EQ(sink.downs, 1);
  EXPECT_FALSE(psu.rails_on());
}

TEST(PowerSupplyTest, RailsDropExactlyAtHoldup) {
  Simulator sim;
  PowerSupply psu(sim, PsuParams{});
  RecordingSink sink;
  psu.Register(&sink);
  const Duration window = psu.HoldupWindow();
  psu.CutMains();
  sim.RunUntil(TimePoint::Origin() + window - Duration::Nanos(1));
  EXPECT_TRUE(psu.rails_on());
  sim.RunUntil(TimePoint::Origin() + window);
  EXPECT_FALSE(psu.rails_on());
}

TEST(PowerSupplyTest, ShortOutageAbsorbed) {
  Simulator sim;
  PowerSupply psu(sim, PsuParams{});
  RecordingSink sink;
  psu.Register(&sink);
  psu.CutMains();
  // Mains return within the hold-up window: no power-down, no restore event,
  // and the stale scheduled callbacks are ignored.
  sim.RunUntil(TimePoint::Origin() + Duration::Millis(1));
  psu.RestoreMains();
  sim.Run();
  EXPECT_EQ(sink.downs, 0);
  EXPECT_EQ(sink.restores, 0);
  EXPECT_TRUE(psu.rails_on());
}

TEST(PowerSupplyTest, RestoreAfterDownFiresRestore) {
  Simulator sim;
  PowerSupply psu(sim, PsuParams{});
  RecordingSink sink;
  psu.Register(&sink);
  psu.CutMains();
  sim.Run();
  EXPECT_EQ(sink.downs, 1);
  psu.RestoreMains();
  EXPECT_EQ(sink.restores, 1);
  EXPECT_TRUE(psu.rails_on());
  EXPECT_TRUE(psu.mains_on());
}

TEST(PowerSupplyTest, CutIsIdempotentWhileOut) {
  Simulator sim;
  PowerSupply psu(sim, PsuParams{});
  RecordingSink sink;
  psu.Register(&sink);
  psu.CutMains();
  psu.CutMains();
  sim.Run();
  EXPECT_EQ(sink.warnings.size(), 1u);
  EXPECT_EQ(sink.downs, 1);
}

TEST(PowerSupplyTest, SecondOutageAfterRestoreWorks) {
  Simulator sim;
  PowerSupply psu(sim, PsuParams{});
  RecordingSink sink;
  psu.Register(&sink);
  psu.CutMains();
  sim.Run();
  psu.RestoreMains();
  psu.CutMains();
  sim.Run();
  EXPECT_EQ(sink.downs, 2);
  EXPECT_EQ(sink.warnings.size(), 2u);
}

TEST(PowerSupplyTest, SinksNotifiedInRegistrationOrder) {
  Simulator sim;
  PowerSupply psu(sim, PsuParams{});
  std::vector<int> order;
  class OrderSink : public PowerSink {
   public:
    OrderSink(std::vector<int>& o, int id) : order_(o), id_(id) {}
    void OnPowerDown() override { order_.push_back(id_); }

   private:
    std::vector<int>& order_;
    int id_;
  };
  OrderSink a(order, 1);
  OrderSink b(order, 2);
  psu.Register(&a);
  psu.Register(&b);
  psu.CutMains();
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(PowerSupplyTest, InvalidParamsRejected) {
  Simulator sim;
  PsuParams p;
  p.system_load_watts = 0;
  EXPECT_THROW(PowerSupply(sim, p), rlsim::CheckFailure);
  PsuParams q;
  q.system_load_watts = 500;  // above the PSU's rating
  EXPECT_THROW(PowerSupply(sim, q), rlsim::CheckFailure);
}

TEST(PowerSupplyTest, DoubleRegistrationRejected) {
  Simulator sim;
  PowerSupply psu(sim, PsuParams{});
  RecordingSink sink;
  psu.Register(&sink);
  EXPECT_THROW(psu.Register(&sink), rlsim::CheckFailure);
}

}  // namespace
}  // namespace rlpow
