// benchdiff: regression gate for the BENCH_*.json files the benches emit.
//
// The committed baselines (BENCH_perf.json, BENCH_e13.json, BENCH_e14.json
// at the repo root) pin what the benches reported when their code last
// changed on purpose. benchdiff compares a freshly generated file against
// its baseline metric by metric, with a relative tolerance band per metric:
//
//   BD001 out-of-band   error    metric moved outside its tolerance band
//                                (or its unit changed)
//   BD002 missing       warning  baseline metric absent from the fresh run
//   BD003 new           warning  fresh metric with no baseline entry
//
// Tolerances are relative (|fresh-base| <= tol * |base|). The default is
// deliberately wide — wall-clock metrics (campaign_*_sec, *_mibps,
// events_per_sec_*) are noisy on shared CI runners — and can be tightened
// or loosened per metric name on the command line; virtual-time metrics
// (e13.*, e14.*, e7.*) are deterministic and tolerate 0 just fine when the
// caller asks for it.
//
// Reporting reuses tools/lintlib's Finding + text/JSON/GitHub formatters so
// CI annotations look exactly like rapicheck's.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "tools/lintlib/lintlib.h"

namespace benchdiff {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Parses the {"metrics":[{"name":...,"value":...,"unit":...},...]} form
// rlbench::BenchJsonWriter emits (nested raw blocks like snapshots_* are
// skipped). Returns false and sets *error on malformed input.
bool ParseBenchJson(std::string_view text, std::vector<Metric>* out,
                    std::string* error);

struct DiffOptions {
  // Band applied when no override matches: |fresh-base| <= tol * |base|.
  double default_tolerance = 0.35;
  // Exact metric name -> tolerance, overriding the default.
  std::map<std::string, double> overrides;
};

// Applies one --tolerance value: "X" sets the default band, "NAME=X" one
// metric's band. X must be a finite number >= 0 with nothing after it.
// Returns false and sets *error otherwise, so a typo never becomes a band.
bool ParseTolerance(std::string_view arg, DiffOptions* opts,
                    std::string* error);

// False (with *error) if an override names no baseline metric: such an
// override would silently gate nothing.
bool CheckOverrides(const DiffOptions& opts,
                    const std::vector<Metric>& baseline, std::string* error);

// Compares fresh against baseline; `fresh_path` labels the findings.
// Ordering follows the baseline file (then new metrics in fresh order), so
// output is deterministic.
std::vector<lintlib::Finding> DiffBench(const std::vector<Metric>& baseline,
                                        const std::vector<Metric>& fresh,
                                        const DiffOptions& opts,
                                        const std::string& fresh_path);

// True if any finding is an error (BD001) — the CI-blocking condition.
bool HasErrors(const std::vector<lintlib::Finding>& findings);

}  // namespace benchdiff
