// Deterministic random number generation for the simulator.
//
// xoshiro256++ seeded via SplitMix64. Every stochastic component takes an Rng
// (usually forked from the simulator's root Rng), so runs are reproducible
// bit-for-bit from a single seed.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rlsim {

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Raw 64 uniform bits.
  uint64_t Next();

  // Uniform in [0, bound). bound must be > 0.
  uint64_t NextBelow(uint64_t bound);

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Exponentially distributed with the given mean (> 0).
  double Exponential(double mean);

  // Bernoulli trial.
  bool Chance(double probability);

  // A statistically independent child generator. Use to give each component
  // its own stream so adding randomness in one place does not perturb others.
  Rng Fork();

 private:
  std::array<uint64_t, 4> s_;
};

// Zipfian distribution over [0, n) with skew theta (Gray et al.,
// "Quickly Generating Billion-Record Synthetic Databases"). theta in (0, 1);
// theta -> 0 approaches uniform, typical hot-spot workloads use ~0.99.
class ZipfianGenerator {
 public:
  ZipfianGenerator(uint64_t n, double theta);

  uint64_t Next(Rng& rng);

  uint64_t n() const { return n_; }

 private:
  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
};

// Picks an index according to a fixed discrete weight vector.
class DiscreteDistribution {
 public:
  explicit DiscreteDistribution(std::vector<double> weights);

  size_t Next(Rng& rng) const;

 private:
  std::vector<double> cumulative_;  // normalised running sums, last == 1.0
};

}  // namespace rlsim
