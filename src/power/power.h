// Electrical power model.
//
// RapiLog's power-cut guarantee is an energy-budget argument: when mains
// fail, the PSU's bulk capacitors keep the rails up for a hold-up window
// (ATX mandates >= 16 ms at full load; lighter loads stretch it
// proportionally, and a UPS stretches it to minutes). A power-fail signal is
// raised almost immediately on AC loss, so software gets
//   window = hold-up - warning latency
// of guaranteed execution to flush volatile state. PowerSupply models
// exactly that: CutMains() raises OnPowerFailWarning(remaining) on every
// registered sink, then drops the rails (OnPowerDown()) when the window
// expires.
#pragma once

#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace rlpow {

// A component that cares about power events. Callbacks run at the instant of
// the event on the simulator's clock.
class PowerSink {
 public:
  virtual ~PowerSink() = default;

  // Mains lost; rails stay up for `time_remaining` more simulated time.
  virtual void OnPowerFailWarning(rlsim::Duration time_remaining) {
    (void)time_remaining;
  }

  // Rails dropped. Volatile state is gone after this returns.
  virtual void OnPowerDown() = 0;

  // Rails are back (recovery phase begins).
  virtual void OnPowerRestore() {}

  // Mains returned within the hold-up window: the outage was absorbed, the
  // rails never dropped, and any emergency posture should stand down.
  virtual void OnOutageAbsorbed() {}
};

struct PsuParams {
  // What the machine actually draws, at most the PSU's 400 W rating; the
  // stored energy lasts longer at lighter loads.
  double system_load_watts = 200.0;
  // Optional UPS carrying the load after the PSU caps would be exhausted.
  // Zero means no UPS.
  rlsim::Duration ups_runtime = rlsim::Duration::Zero();
};

class PowerSupply {
 public:
  PowerSupply(rlsim::Simulator& sim, PsuParams params);

  // Sinks must outlive the PowerSupply. Notification order = registration
  // order (register the trusted layer before the guest).
  void Register(PowerSink* sink);

  // Simulates pulling the plug. Idempotent while mains are out.
  void CutMains();

  // Mains return. If the rails had dropped they come back up and sinks see
  // OnPowerRestore(); if the cut is undone within the hold-up window the
  // outage is absorbed (no OnPowerDown ever fires).
  void RestoreMains();

  bool mains_on() const { return mains_on_; }
  bool rails_on() const { return rails_on_; }

  // Rail survival time after an AC cut: capacitor energy scaled by actual
  // load, plus UPS runtime.
  rlsim::Duration HoldupWindow() const;

  // What software can rely on after the warning interrupt arrives.
  rlsim::Duration GuaranteedWindowAfterWarning() const;

  const PsuParams& params() const { return params_; }

 private:
  void DeliverWarning(uint64_t outage_id);
  void DropRails(uint64_t outage_id);

  rlsim::Simulator& sim_;
  PsuParams params_;
  std::vector<PowerSink*> sinks_;
  bool mains_on_ = true;
  bool rails_on_ = true;
  // Distinguishes outages so stale scheduled callbacks from an absorbed cut
  // do nothing.
  uint64_t outage_id_ = 0;
};

}  // namespace rlpow
