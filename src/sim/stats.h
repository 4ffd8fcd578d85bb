// Measurement primitives: counters and log-linear histograms.
//
// Histogram uses HdrHistogram-style log-linear bucketing: values are grouped
// into 16 linear sub-buckets per power-of-two magnitude, giving <= 6.25%
// relative error at any magnitude with a small fixed memory footprint.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace rlsim {

class Counter {
 public:
  void Add(int64_t delta = 1) { value_ += delta; }
  void Reset() { value_ = 0; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

class Histogram {
 public:
  Histogram();

  void Record(int64_t value);
  void RecordDuration(Duration d) { Record(d.nanos()); }

  int64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  // min()/max() are only defined over at least one observation; calling them
  // on an empty histogram is a checked error (the old behaviour silently
  // reported the zero-initialised defaults as if they were data).
  int64_t min() const;
  int64_t max() const;
  double Mean() const;
  // p in [0, 100]. Returns an upper bound of the bucket containing the
  // p-th percentile observation.
  int64_t Percentile(double p) const;
  Duration PercentileDuration(double p) const {
    return Duration::Nanos(Percentile(p));
  }

  void Reset();
  void Merge(const Histogram& other);

  // One-line summary: count/mean/p50/p95/p99/max ("n=0 (empty)" when no
  // observations were recorded).
  std::string Summary() const;
  // Same, formatted as durations.
  std::string DurationSummary() const;

 private:
  static constexpr int kSubBucketBits = 4;  // 16 sub-buckets per magnitude
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kMagnitudes = 64 - kSubBucketBits;

  static size_t BucketIndex(int64_t value);
  static int64_t BucketUpperBound(size_t index);

  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
};

// Uniform reporting surface: components register their named counters and
// histograms once, and benches/harnesses print the whole set in one
// deterministically-ordered (name-sorted) block instead of hand-rolling a
// printf per stat. The registry does not own the registered objects; they
// must outlive it.
class StatsRegistry {
 public:
  void RegisterCounter(const std::string& name, const Counter* counter);
  // `as_duration` renders the histogram with Duration formatting (ns values).
  void RegisterHistogram(const std::string& name, const Histogram* histogram,
                         bool as_duration = false);

  // "name value" / "name <histogram summary>" lines, sorted by name.
  // Counters with value 0 and empty histograms are included: a zero is
  // evidence (e.g. zero retransmits), not noise.
  std::string Format() const;
  void Print() const;  // Format() to stdout

  // Machine-readable snapshot, name-sorted like Format(): counters render as
  // integers, histograms as {"count","mean","min","max","p50","p95","p99"}
  // objects (just {"count":0} when empty). Deterministic for a given set of
  // stat values — std::map iteration order, fixed %.6g float formatting.
  std::string ToJson() const;

  size_t size() const { return counters_.size() + histograms_.size(); }

 private:
  struct HistogramEntry {
    const Histogram* histogram;
    bool as_duration;
  };
  std::map<std::string, const Counter*> counters_;
  std::map<std::string, HistogramEntry> histograms_;
};

}  // namespace rlsim
