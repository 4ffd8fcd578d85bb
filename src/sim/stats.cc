#include "src/sim/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "src/sim/check.h"

namespace rlsim {

Histogram::Histogram()
    : buckets_(static_cast<size_t>(kMagnitudes) * kSubBuckets, 0) {}

size_t Histogram::BucketIndex(int64_t value) {
  RL_CHECK_MSG(value >= 0, "Histogram only records non-negative values, got "
                               << value);
  const uint64_t v = static_cast<uint64_t>(value);
  if (v < kSubBuckets) {
    return static_cast<size_t>(v);
  }
  const int magnitude = 63 - std::countl_zero(v);  // floor(log2(v))
  const int shift = magnitude - kSubBucketBits + 1;
  const uint64_t sub = (v >> shift) - (kSubBuckets / 2);
  const size_t base = static_cast<size_t>(magnitude - kSubBucketBits + 1) *
                      (kSubBuckets / 2);
  return static_cast<size_t>(kSubBuckets) + base + static_cast<size_t>(sub) -
         (kSubBuckets / 2);
}

int64_t Histogram::BucketUpperBound(size_t index) {
  if (index < kSubBuckets) {
    return static_cast<int64_t>(index);
  }
  const size_t past = index - kSubBuckets;
  const size_t half = kSubBuckets / 2;
  const size_t magnitude_step = past / half;
  const size_t sub = past % half;
  const int shift = static_cast<int>(magnitude_step) + 1;
  const uint64_t base = static_cast<uint64_t>(half + sub) << shift;
  const uint64_t width = 1ULL << shift;
  return static_cast<int64_t>(base + width - 1);
}

void Histogram::Record(int64_t value) {
  const size_t idx = BucketIndex(value);
  if (idx >= buckets_.size()) {
    buckets_.resize(idx + 1, 0);
  }
  ++buckets_[idx];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

int64_t Histogram::min() const {
  RL_CHECK_MSG(count_ > 0, "Histogram::min() on empty histogram");
  return min_;
}
int64_t Histogram::max() const {
  RL_CHECK_MSG(count_ > 0, "Histogram::max() on empty histogram");
  return max_;
}

double Histogram::Mean() const {
  return count_ > 0 ? static_cast<double>(sum_) / static_cast<double>(count_)
                    : 0.0;
}

int64_t Histogram::Percentile(double p) const {
  RL_CHECK(p >= 0 && p <= 100);
  if (count_ == 0) {
    return 0;
  }
  const int64_t target = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(p / 100.0 * static_cast<double>(count_))));
  int64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      return std::min(BucketUpperBound(i), max_);
    }
  }
  return max_;
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) {
    return;
  }
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

std::string Histogram::Summary() const {
  if (count_ == 0) {
    return "n=0 (empty)";
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%lld mean=%.1f p50=%lld p95=%lld p99=%lld max=%lld",
                static_cast<long long>(count_), Mean(),
                static_cast<long long>(Percentile(50)),
                static_cast<long long>(Percentile(95)),
                static_cast<long long>(Percentile(99)),
                static_cast<long long>(max()));
  return buf;
}

void StatsRegistry::RegisterCounter(const std::string& name,
                                    const Counter* counter) {
  RL_CHECK_MSG(counter != nullptr, "null counter registered as " << name);
  RL_CHECK_MSG(!counters_.contains(name) && !histograms_.contains(name),
               "duplicate stat name " << name);
  counters_[name] = counter;
}

void StatsRegistry::RegisterHistogram(const std::string& name,
                                      const Histogram* histogram,
                                      bool as_duration) {
  RL_CHECK_MSG(histogram != nullptr, "null histogram registered as " << name);
  RL_CHECK_MSG(!counters_.contains(name) && !histograms_.contains(name),
               "duplicate stat name " << name);
  histograms_[name] = HistogramEntry{histogram, as_duration};
}

std::string StatsRegistry::Format() const {
  // std::map iteration is name-sorted, so output order is deterministic and
  // independent of registration order. Counters and histograms interleave in
  // one global name order.
  std::string out;
  auto c = counters_.begin();
  auto h = histograms_.begin();
  char line[256];
  while (c != counters_.end() || h != histograms_.end()) {
    const bool take_counter =
        h == histograms_.end() ||
        (c != counters_.end() && c->first < h->first);
    if (take_counter) {
      std::snprintf(line, sizeof(line), "%-40s %lld\n", c->first.c_str(),
                    static_cast<long long>(c->second->value()));
      out += line;
      ++c;
    } else {
      std::snprintf(line, sizeof(line), "%-40s %s\n", h->first.c_str(),
                    h->second.as_duration
                        ? h->second.histogram->DurationSummary().c_str()
                        : h->second.histogram->Summary().c_str());
      out += line;
      ++h;
    }
  }
  return out;
}

void StatsRegistry::Print() const { std::fputs(Format().c_str(), stdout); }

namespace {

void AppendJsonKey(std::string& out, const std::string& name) {
  // Stat names are component-chosen identifiers ("wal.commit_wait"); escape
  // the two JSON-hostile characters anyway so a stray quote can't produce an
  // unparsable snapshot.
  out += '"';
  for (const char c : name) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  out += '"';
}

}  // namespace

std::string StatsRegistry::ToJson() const {
  std::string out = "{";
  bool first = true;
  char buf[64];
  auto sep = [&out, &first] {
    if (!first) {
      out += ',';
    }
    first = false;
  };
  // Same merged name-sorted walk as Format(), so JSON key order matches the
  // human-readable block line for line.
  auto c = counters_.begin();
  auto h = histograms_.begin();
  while (c != counters_.end() || h != histograms_.end()) {
    const bool take_counter =
        h == histograms_.end() ||
        (c != counters_.end() && c->first < h->first);
    sep();
    if (take_counter) {
      AppendJsonKey(out, c->first);
      std::snprintf(buf, sizeof(buf), ":%lld",
                    static_cast<long long>(c->second->value()));
      out += buf;
      ++c;
    } else {
      const Histogram& hist = *h->second.histogram;
      AppendJsonKey(out, h->first);
      if (hist.empty()) {
        out += ":{\"count\":0}";
      } else {
        std::snprintf(buf, sizeof(buf), ":{\"count\":%lld",
                      static_cast<long long>(hist.count()));
        out += buf;
        std::snprintf(buf, sizeof(buf), ",\"mean\":%.6g", hist.Mean());
        out += buf;
        std::snprintf(buf, sizeof(buf), ",\"min\":%lld",
                      static_cast<long long>(hist.min()));
        out += buf;
        std::snprintf(buf, sizeof(buf), ",\"max\":%lld",
                      static_cast<long long>(hist.max()));
        out += buf;
        std::snprintf(buf, sizeof(buf), ",\"p50\":%lld",
                      static_cast<long long>(hist.Percentile(50)));
        out += buf;
        std::snprintf(buf, sizeof(buf), ",\"p95\":%lld",
                      static_cast<long long>(hist.Percentile(95)));
        out += buf;
        std::snprintf(buf, sizeof(buf), ",\"p99\":%lld}",
                      static_cast<long long>(hist.Percentile(99)));
        out += buf;
      }
      ++h;
    }
  }
  out += '}';
  return out;
}

std::string Histogram::DurationSummary() const {
  if (count_ == 0) {
    return "n=0 (empty)";
  }
  char buf[200];
  std::snprintf(
      buf, sizeof(buf), "n=%lld mean=%s p50=%s p95=%s p99=%s max=%s",
      static_cast<long long>(count_),
      ToString(Duration::Nanos(static_cast<int64_t>(Mean()))).c_str(),
      ToString(PercentileDuration(50)).c_str(),
      ToString(PercentileDuration(95)).c_str(),
      ToString(PercentileDuration(99)).c_str(),
      ToString(Duration::Nanos(max())).c_str());
  return buf;
}

}  // namespace rlsim
