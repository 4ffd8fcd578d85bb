// rapicheck CLI.
//
//   rapicheck [--json | --github] PATH...
//   rapicheck --list-rules
//
//   PATH          directory (recursive *.h/*.cc walk, sorted) or file
//   --json        machine-readable output
//   --github      GitHub Actions ::error annotations
//   --list-rules  print the rule table and exit
//
// All PATHs are read into one model, each named relative to the working
// directory (an absolute PATH inside it names the same files as the
// relative one). The SL rules run on every file; the RC rules judge the
// files under src/, so run it from the repository root:
// `rapicheck src bench tests`.
//
// Exit status: 0 clean, 1 findings, 2 usage/IO error.
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "tools/lintlib/lintlib.h"
#include "tools/rapicheck/rapicheck.h"

namespace {

constexpr const char* kUsage =
    "usage: rapicheck [--json | --github] PATH...\n"
    "       rapicheck --list-rules\n";

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  bool json = false;
  bool github = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--github") {
      github = true;
    } else if (arg == "--list-rules") {
      for (const lintlib::RuleInfo& r : rapicheck::Rules()) {
        std::printf("%s %-26s %-7s %s\n", r.id, r.name, r.severity,
                    r.summary);
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "rapicheck: unknown option %s\n%s", arg.c_str(),
                   kUsage);
      return 2;
    } else {
      paths.push_back(rapicheck::RootRelative(
          arg, std::filesystem::current_path().generic_string()));
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr,
                 "rapicheck: no paths given (try: rapicheck src bench "
                 "tests)\n%s",
                 kUsage);
    return 2;
  }

  std::string error;
  const std::vector<std::string> files = lintlib::CollectFiles(paths, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "rapicheck: %s\n", error.c_str());
    return 2;
  }
  std::vector<lintlib::SourceFile> sources;
  sources.reserve(files.size());
  for (const std::string& file : files) {
    std::string contents;
    if (!lintlib::ReadFile(file, &contents)) {
      std::fprintf(stderr, "rapicheck: cannot read %s\n", file.c_str());
      return 2;
    }
    sources.push_back(lintlib::StripSource(file, contents));
  }
  const std::vector<lintlib::Finding> findings = rapicheck::Analyze(
      rapicheck::BuildModel(std::move(sources), "src"),
      rapicheck::DefaultConfig());

  if (json) {
    std::fputs(lintlib::FormatJson(findings).c_str(), stdout);
  } else if (github) {
    std::fputs(lintlib::FormatGithub(findings, "rapicheck").c_str(), stdout);
  } else {
    std::fputs(lintlib::FormatText(findings).c_str(), stdout);
    std::printf("rapicheck: %zu file(s), %zu finding(s)\n", files.size(),
                findings.size());
  }
  return findings.empty() ? 0 : 1;
}
