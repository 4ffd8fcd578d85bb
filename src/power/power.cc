#include "src/power/power.h"

#include <algorithm>

#include "src/sim/check.h"

namespace rlpow {

using rlsim::Duration;

namespace {

// ATX spec: >= 16 ms hold-up at full rated load.
constexpr Duration kHoldupAtFullLoad = Duration::Millis(16);
constexpr double kFullLoadWatts = 400.0;
// AC-loss detection + interrupt delivery to software.
constexpr Duration kWarningLatency = Duration::Micros(200);
// The hold-up window is never shorter than at full load, so the warning
// always arrives before the rails drop.
static_assert(kWarningLatency >= Duration::Zero() &&
              kWarningLatency < kHoldupAtFullLoad);

}  // namespace

PowerSupply::PowerSupply(rlsim::Simulator& sim, PsuParams params)
    : sim_(sim), params_(params) {
  RL_CHECK(params_.system_load_watts > 0);
  RL_CHECK(params_.system_load_watts <= kFullLoadWatts);
}

void PowerSupply::Register(PowerSink* sink) {
  RL_CHECK(sink != nullptr);
  RL_CHECK(std::find(sinks_.begin(), sinks_.end(), sink) == sinks_.end());
  sinks_.push_back(sink);
}

Duration PowerSupply::HoldupWindow() const {
  // Stored energy E = P_full * T_holdup; at load P the rails last E / P.
  const double scale = kFullLoadWatts / params_.system_load_watts;
  return kHoldupAtFullLoad * scale + params_.ups_runtime;
}

Duration PowerSupply::GuaranteedWindowAfterWarning() const {
  return HoldupWindow() - kWarningLatency;
}

void PowerSupply::CutMains() {
  if (!mains_on_) {
    return;
  }
  mains_on_ = false;
  const uint64_t id = ++outage_id_;
  sim_.EmitTrace("psu", "mains-cut", static_cast<uint32_t>(id));
  sim_.Schedule(kWarningLatency, [this, id] { DeliverWarning(id); });
  sim_.Schedule(HoldupWindow(), [this, id] { DropRails(id); });
}

void PowerSupply::DeliverWarning(uint64_t outage_id) {
  if (mains_on_ || outage_id != outage_id_) {
    return;  // outage was absorbed before the warning fired
  }
  const Duration remaining = HoldupWindow() - kWarningLatency;
  sim_.EmitTrace("psu", "power-fail-warning",
                 static_cast<uint32_t>(remaining.micros()));
  for (PowerSink* sink : sinks_) {
    sink->OnPowerFailWarning(remaining);
  }
}

void PowerSupply::DropRails(uint64_t outage_id) {
  if (mains_on_ || outage_id != outage_id_ || !rails_on_) {
    return;
  }
  rails_on_ = false;
  sim_.EmitTrace("psu", "rails-down", static_cast<uint32_t>(outage_id));
  for (PowerSink* sink : sinks_) {
    sink->OnPowerDown();
  }
}

void PowerSupply::RestoreMains() {
  if (mains_on_) {
    return;
  }
  mains_on_ = true;
  ++outage_id_;  // invalidate scheduled warning/drop from the cut
  if (!rails_on_) {
    rails_on_ = true;
    sim_.EmitTrace("psu", "mains-restore", static_cast<uint32_t>(outage_id_));
    for (PowerSink* sink : sinks_) {
      sink->OnPowerRestore();
    }
  } else {
    sim_.EmitTrace("psu", "outage-absorbed",
                   static_cast<uint32_t>(outage_id_));
    for (PowerSink* sink : sinks_) {
      sink->OnOutageAbsorbed();
    }
  }
}

}  // namespace rlpow
