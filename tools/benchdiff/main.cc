// benchdiff CLI: compares a fresh BENCH_*.json against its committed
// baseline (see tools/benchdiff/benchdiff.h for the rule list).
//
//   benchdiff [--tolerance X | --tolerance NAME=X]... [--format F] BASE FRESH
//
// --tolerance X        default relative band (0.35 unless given)
// --tolerance NAME=X   per-metric override (repeatable); NAME must be a
//                      baseline metric
// --format text|json|github   output style (default text)
//
// Exit status: 0 = within bands (warnings allowed), 1 = BD001 errors,
// 2 = usage error (a malformed band among them) or unreadable/unparseable
// input.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "tools/benchdiff/benchdiff.h"
#include "tools/lintlib/lintlib.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--tolerance X | --tolerance NAME=X]... "
               "[--format text|json|github] BASELINE FRESH\n",
               argv0);
  return 2;
}

bool LoadMetrics(const char* path, std::vector<benchdiff::Metric>* out) {
  std::string text;
  if (!lintlib::ReadFile(path, &text)) {
    std::fprintf(stderr, "benchdiff: cannot read %s\n", path);
    return false;
  }
  std::string error;
  if (!benchdiff::ParseBenchJson(text, out, &error)) {
    std::fprintf(stderr, "benchdiff: %s: %s\n", path, error.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  benchdiff::DiffOptions opts;
  std::string format = "text";
  const char* base_path = nullptr;
  const char* fresh_path = nullptr;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tolerance" || arg == "--format") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "benchdiff: %s needs a value\n", arg.c_str());
        return Usage(argv[0]);
      }
      const std::string value = argv[++i];
      std::string error;
      if (arg == "--tolerance") {
        if (!benchdiff::ParseTolerance(value, &opts, &error)) {
          std::fprintf(stderr, "benchdiff: %s\n", error.c_str());
          return Usage(argv[0]);
        }
      } else if (value == "text" || value == "json" || value == "github") {
        format = value;
      } else {
        std::fprintf(stderr, "benchdiff: --format wants text|json|github\n");
        return Usage(argv[0]);
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "benchdiff: unknown option %s\n", arg.c_str());
      return Usage(argv[0]);
    } else if (base_path == nullptr) {
      base_path = argv[i];
    } else if (fresh_path == nullptr) {
      fresh_path = argv[i];
    } else {
      std::fprintf(stderr, "benchdiff: unexpected argument %s\n", argv[i]);
      return Usage(argv[0]);
    }
  }
  if (base_path == nullptr || fresh_path == nullptr) {
    return Usage(argv[0]);
  }

  std::vector<benchdiff::Metric> baseline;
  std::vector<benchdiff::Metric> fresh;
  if (!LoadMetrics(base_path, &baseline) || !LoadMetrics(fresh_path, &fresh)) {
    return 2;
  }
  std::string error;
  if (!benchdiff::CheckOverrides(opts, baseline, &error)) {
    std::fprintf(stderr, "benchdiff: %s: %s\n", base_path, error.c_str());
    return Usage(argv[0]);
  }

  const std::vector<lintlib::Finding> findings =
      benchdiff::DiffBench(baseline, fresh, opts, fresh_path);
  if (format == "json") {
    std::fputs(lintlib::FormatJson(findings).c_str(), stdout);
  } else if (format == "github") {
    std::fputs(lintlib::FormatGithub(findings, "benchdiff").c_str(), stdout);
  } else {
    std::fputs(lintlib::FormatText(findings).c_str(), stdout);
    std::printf("benchdiff: %zu baseline metrics vs %s: %zu findings\n",
                baseline.size(), fresh_path, findings.size());
  }
  return benchdiff::HasErrors(findings) ? 1 : 0;
}
