#include "src/sim/rng.h"

#include <cmath>
#include <numbers>

#include "src/sim/check.h"

namespace rlsim {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97f4A7C15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64(sm);
  }
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  RL_CHECK(bound > 0);
  // Lemire's nearly-divisionless bounded generation with rejection.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    const uint64_t threshold = -bound % bound;
    while (l < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  RL_CHECK_MSG(lo <= hi, "UniformInt(" << lo << ", " << hi << ")");
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(span == 0 ? Next() : NextBelow(span));
}

double Rng::Exponential(double mean) {
  RL_CHECK(mean > 0);
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return -mean * std::log(u);
}

double Rng::Normal(double mean, double stddev) {
  double u1 = NextDouble();
  if (u1 <= 0.0) {
    u1 = 0x1.0p-53;
  }
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * std::numbers::pi * u2);
}

bool Rng::Chance(double probability) { return NextDouble() < probability; }

Rng Rng::Fork() { return Rng(Next()); }

namespace {

double Zeta(uint64_t n, double theta) {
  double sum = 0;
  for (uint64_t i = 1; i <= n; ++i) {
    // simlint: float-ok (fixed loop order: same n and theta give the same
    // rounding on every run; this is a one-shot precomputation, not a
    // long-lived accumulator)
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

}  // namespace

ZipfianGenerator::ZipfianGenerator(uint64_t n, double theta)
    : n_(n), theta_(theta) {
  RL_CHECK(n > 0);
  RL_CHECK(theta > 0 && theta < 1);
  zetan_ = Zeta(n, theta);
  const double zeta2 = Zeta(2, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2 / zetan_);
}

uint64_t ZipfianGenerator::Next(Rng& rng) {
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) {
    return 0;
  }
  if (uz < 1.0 + std::pow(0.5, theta_)) {
    return 1;
  }
  const double nd = static_cast<double>(n_);
  const uint64_t v = static_cast<uint64_t>(
      nd * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return v >= n_ ? n_ - 1 : v;
}

DiscreteDistribution::DiscreteDistribution(std::vector<double> weights) {
  RL_CHECK(!weights.empty());
  double total = 0;
  for (double w : weights) {
    RL_CHECK(w >= 0);
    total += w;  // simlint: float-ok (fixed order over the caller's vector)
  }
  RL_CHECK(total > 0);
  cumulative_.reserve(weights.size());
  double running = 0;
  for (double w : weights) {
    running += w / total;  // simlint: float-ok (fixed order, one-shot setup)
    cumulative_.push_back(running);
  }
  cumulative_.back() = 1.0;
}

size_t DiscreteDistribution::Next(Rng& rng) const {
  const double u = rng.NextDouble();
  for (size_t i = 0; i < cumulative_.size(); ++i) {
    if (u < cumulative_[i]) {
      return i;
    }
  }
  return cumulative_.size() - 1;
}

}  // namespace rlsim
