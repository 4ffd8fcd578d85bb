// Rule plumbing private to tools/rapicheck, shared by rapicheck.cc (the RC
// rules) and determinism.cc (the SL rules).
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tools/lintlib/lintlib.h"
#include "tools/rapicheck/model.h"

namespace rapicheck {

// Collects one run's findings: stamps each rule's severity and drops the
// ones a pragma with `tag` (the rule's own tag when empty) suppresses.
class Emitter {
 public:
  explicit Emitter(const Model& model) : model_(model) {}

  void Add(std::string_view rule, const std::string& file, int line,
           std::string message, std::string hint, std::string_view tag = {});
  std::vector<lintlib::Finding> Take() { return std::move(findings_); }

 private:
  const Model& model_;
  std::vector<lintlib::Finding> findings_;
};

// SL001..SL008 over every file of the model (determinism.cc).
void CheckDeterminism(const Model& model, Emitter* emitter);

}  // namespace rapicheck
