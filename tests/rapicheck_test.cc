// rapicheck's protocol rules: the cross-file model parses this repo's
// idioms, each RC rule fires on its seeded fixture tree
// (tests/rapicheck_fixtures/) and stays quiet on the clean tree, and pragmas
// suppress findings. The SL rules are in rapicheck_determinism_test.
#include "tools/rapicheck/rapicheck.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "tools/lintlib/lintlib.h"

namespace {

using lintlib::Finding;
using rapicheck::AnalyzeSources;
using rapicheck::BuildModel;
using rapicheck::Config;
using rapicheck::DefaultConfig;
using rapicheck::Model;

// Runs the full pipeline (walk, strip, model, analyze with DefaultConfig)
// over one fixture tree.
std::vector<Finding> RunTree(const std::string& tree) {
  std::string error;
  const std::vector<std::string> files = lintlib::CollectFiles(
      {std::string(RAPICHECK_FIXTURE_DIR) + "/" + tree}, &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_FALSE(files.empty()) << "no files under fixture tree " << tree;
  std::vector<lintlib::SourceFile> sources;
  for (const std::string& file : files) {
    std::string contents;
    EXPECT_TRUE(lintlib::ReadFile(file, &contents)) << file;
    sources.push_back(lintlib::StripSource(file, contents));
  }
  return rapicheck::Analyze(BuildModel(std::move(sources)), DefaultConfig());
}

int CountRule(const std::vector<Finding>& findings, const char* rule) {
  int n = 0;
  for (const Finding& f : findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

Model ModelOf(const char* path, const char* source) {
  std::vector<lintlib::SourceFile> files;
  files.push_back(lintlib::StripSource(path, source));
  return BuildModel(std::move(files));
}

// --- Model construction -----------------------------------------------------

TEST(RapicheckModel, ParsesEnumWithExplicitValues) {
  const Model m = ModelOf("src/db/wal.h",
                          "enum class LogRecordType : uint8_t {\n"
                          "  kUpdate = 1,\n"
                          "  kCommit = 2,\n"
                          "  kImplicit,\n"
                          "};\n");
  const rapicheck::EnumDef* def = m.FindEnum("LogRecordType");
  ASSERT_NE(def, nullptr);
  EXPECT_TRUE(def->scoped);
  ASSERT_EQ(def->enumerators.size(), 3u);
  EXPECT_EQ(def->enumerators[0].name, "kUpdate");
  EXPECT_TRUE(def->enumerators[0].value_known);
  EXPECT_EQ(def->enumerators[0].value, 1);
  EXPECT_EQ(def->enumerators[1].line, 3);
  EXPECT_FALSE(def->enumerators[2].has_value);
}

TEST(RapicheckModel, ResolvesSwitchEnumAndCases) {
  const Model m = ModelOf("src/db/x.cc",
                          "void F(LogRecord rec) {\n"
                          "  switch (rec.type) {\n"
                          "    case LogRecordType::kUpdate:\n"
                          "      break;\n"
                          "    default:\n"
                          "      break;\n"
                          "  }\n"
                          "}\n");
  ASSERT_EQ(m.switches.size(), 1u);
  EXPECT_EQ(m.switches[0].enum_name, "LogRecordType");
  ASSERT_EQ(m.switches[0].cases.size(), 1u);
  EXPECT_EQ(m.switches[0].cases[0], "kUpdate");
  EXPECT_TRUE(m.switches[0].has_default);
  EXPECT_EQ(m.switches[0].default_line, 5);
}

TEST(RapicheckModel, RecordsFunctionCallAndLockEvents) {
  const Model m = ModelOf("src/db/x.cc",
                          "void Database::Commit() {\n"
                          "  auto guard = co_await apply_mutex_->Lock();\n"
                          "  Flush(1);\n"
                          "}\n");
  ASSERT_EQ(m.functions.size(), 1u);
  EXPECT_EQ(m.functions[0].name, "Database::Commit");
  bool saw_acquire = false;
  bool saw_flush_call = false;
  for (const rapicheck::FuncEvent& e : m.functions[0].events) {
    if (e.kind == rapicheck::FuncEvent::Kind::kAcquire &&
        e.name == "apply_mutex_") {
      saw_acquire = true;
      EXPECT_TRUE(e.scoped_lock);
    }
    if (e.kind == rapicheck::FuncEvent::Kind::kCall && e.name == "Flush") {
      saw_flush_call = true;
    }
  }
  EXPECT_TRUE(saw_acquire);
  EXPECT_TRUE(saw_flush_call);
}

TEST(RapicheckModel, ClassifiesEnumUses) {
  const Model m = ModelOf("src/db/x.cc",
                          "void F(LogRecord rec) {\n"
                          "  rec.type = LogRecordType::kCommit;\n"
                          "  if (rec.type == LogRecordType::kUpdate) {\n"
                          "    return;\n"
                          "  }\n"
                          "}\n");
  ASSERT_EQ(m.uses.size(), 2u);
  EXPECT_EQ(m.uses[0].kind, rapicheck::EnumUse::Kind::kProduce);
  EXPECT_EQ(m.uses[0].enumerator, "kCommit");
  EXPECT_EQ(m.uses[1].kind, rapicheck::EnumUse::Kind::kCompare);
  EXPECT_EQ(m.uses[1].enumerator, "kUpdate");
}

// --- Fixture trees: one seeded violation per family -------------------------

TEST(RapicheckFixtures, CleanTreeHasNoFindings) {
  const auto findings = RunTree("clean");
  EXPECT_TRUE(findings.empty()) << lintlib::FormatText(findings);
}

TEST(RapicheckFixtures, Rc101MissingSwitchCase) {
  const auto findings = RunTree("rc101");
  EXPECT_EQ(CountRule(findings, "RC101"), 1) << lintlib::FormatText(findings);
  // The uncased kind is also unhandled in the registered handler file.
  EXPECT_EQ(CountRule(findings, "RC201"), 1);
  EXPECT_EQ(findings.size(), 2u);
}

TEST(RapicheckFixtures, Rc102UnconsumedRecordKind) {
  const auto findings = RunTree("rc102");
  EXPECT_EQ(CountRule(findings, "RC102"), 1) << lintlib::FormatText(findings);
  EXPECT_EQ(CountRule(findings, "RC201"), 1);
  EXPECT_EQ(findings.size(), 2u);
}

TEST(RapicheckFixtures, Rc103ImplicitOnDiskValue) {
  const auto findings = RunTree("rc103");
  EXPECT_EQ(CountRule(findings, "RC103"), 1) << lintlib::FormatText(findings);
  EXPECT_EQ(findings.size(), 1u);
}

TEST(RapicheckFixtures, Rc104OpenCodedConstant) {
  const auto findings = RunTree("rc104");
  EXPECT_EQ(CountRule(findings, "RC104"), 1) << lintlib::FormatText(findings);
  EXPECT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, "warning");
}

TEST(RapicheckFixtures, Rc201HandlerInWrongFile) {
  const auto findings = RunTree("rc201");
  EXPECT_EQ(CountRule(findings, "RC201"), 2) << lintlib::FormatText(findings);
  EXPECT_EQ(findings.size(), 2u);
}

TEST(RapicheckFixtures, Rc202SilentProtocolDefault) {
  const auto findings = RunTree("rc202");
  EXPECT_EQ(CountRule(findings, "RC202"), 1) << lintlib::FormatText(findings);
  EXPECT_EQ(findings.size(), 1u);
}

TEST(RapicheckFixtures, Rc203UnreachableReply) {
  const auto findings = RunTree("rc203");
  EXPECT_EQ(CountRule(findings, "RC203"), 1) << lintlib::FormatText(findings);
  EXPECT_EQ(findings.size(), 1u);
}

TEST(RapicheckFixtures, Rc301AckBeforeDurability) {
  const auto findings = RunTree("rc301");
  EXPECT_EQ(CountRule(findings, "RC301"), 1) << lintlib::FormatText(findings);
  EXPECT_EQ(findings.size(), 1u);
}

TEST(RapicheckFixtures, Rc302CommitRecordNotAwaited) {
  const auto findings = RunTree("rc302");
  EXPECT_EQ(CountRule(findings, "RC302"), 1) << lintlib::FormatText(findings);
  EXPECT_EQ(findings.size(), 1u);
}

TEST(RapicheckFixtures, Rc401LockOrderCycle) {
  const auto findings = RunTree("rc401");
  EXPECT_EQ(CountRule(findings, "RC401"), 1) << lintlib::FormatText(findings);
  EXPECT_EQ(findings.size(), 1u);
}

// --- Pragmas and rule semantics ---------------------------------------------

TEST(RapicheckRules, CaseOkPragmaSuppressesRc101) {
  const auto findings = AnalyzeSources(
      {{"src/db/wal.h",
        "enum class LogRecordType : uint8_t {\n"
        "  kUpdate = 1,\n"
        "  kCommit = 2,\n"
        "};\n"},
       {"src/db/database.cc",
        "void F(LogRecord rec) {\n"
        "  // rapicheck: case-ok (redo subset: commits handled upstream)\n"
        "  switch (rec.type) {\n"
        "    case LogRecordType::kUpdate:\n"
        "      break;\n"
        "  }\n"
        "}\n"}},
      DefaultConfig());
  EXPECT_EQ(CountRule(findings, "RC101"), 0) << lintlib::FormatText(findings);
}

TEST(RapicheckRules, Rc101FiresWithoutPragma) {
  const auto findings = AnalyzeSources(
      {{"src/db/wal.h",
        "enum class LogRecordType : uint8_t {\n"
        "  kUpdate = 1,\n"
        "  kCommit = 2,\n"
        "};\n"},
       {"src/db/database.cc",
        "void F(LogRecord rec) {\n"
        "  switch (rec.type) {\n"
        "    case LogRecordType::kUpdate:\n"
        "      break;\n"
        "  }\n"
        "}\n"}},
      DefaultConfig());
  EXPECT_EQ(CountRule(findings, "RC101"), 1) << lintlib::FormatText(findings);
}

TEST(RapicheckRules, TransitiveDurabilitySatisfiesRc301) {
  // The ack's durability point is reached through a helper: Commit calls
  // LogDecision, which awaits WaitDurable — the closure must see it.
  const auto findings = AnalyzeSources(
      {{"src/db/database.cc",
        "void Database::LogDecision(uint64_t lsn) {\n"
        "  wal_.WaitDurable(lsn);\n"
        "}\n"
        "void Database::Commit(uint64_t lsn) {\n"
        "  LogDecision(lsn);\n"
        "  stats_.commits.Add();\n"
        "}\n"}},
      DefaultConfig());
  EXPECT_EQ(CountRule(findings, "RC301"), 0) << lintlib::FormatText(findings);
}

TEST(RapicheckRules, ScopedGuardDeathBreaksLockChains) {
  // The first guard dies with its block, so the second acquisition does
  // not create a held-while edge and there is no cycle.
  const auto findings = AnalyzeSources(
      {{"src/db/a.cc",
        "void Database::A() {\n"
        "  {\n"
        "    auto g = co_await apply_mutex_->Lock();\n"
        "    Touch();\n"
        "  }\n"
        "  auto h = co_await checkpoint_mutex_->Lock();\n"
        "}\n"
        "void Database::B() {\n"
        "  {\n"
        "    auto g = co_await checkpoint_mutex_->Lock();\n"
        "    Touch();\n"
        "  }\n"
        "  auto h = co_await apply_mutex_->Lock();\n"
        "}\n"}},
      DefaultConfig());
  EXPECT_EQ(CountRule(findings, "RC401"), 0) << lintlib::FormatText(findings);
}

TEST(RapicheckRules, RulesTableCoversAllFourFamilies) {
  const auto& rules = rapicheck::Rules();
  ASSERT_EQ(rules.size(), 18u);  // SL001..SL008, then the ten RC rules
  EXPECT_STREQ(rules[8].id, "RC101");
  EXPECT_STREQ(rules.back().id, "RC401");
}

TEST(RapicheckRules, ProtocolRulesJudgeOnlyTheProtocolRoot) {
  // The same unconsumed record kind is a finding under src/ and nothing
  // under a test fixture when the model's protocol root is src.
  const char* wal =
      "enum class LogRecordType : uint8_t {\n"
      "  kUpdate = 1,\n"
      "};\n";
  const char* producer =
      "void F(LogRecord rec) {\n"
      "  rec.type = LogRecordType::kUpdate;\n"
      "}\n";
  std::vector<lintlib::SourceFile> in_src;
  in_src.push_back(lintlib::StripSource("src/db/wal.h", wal));
  in_src.push_back(lintlib::StripSource("src/db/x.cc", producer));
  EXPECT_EQ(CountRule(rapicheck::Analyze(BuildModel(std::move(in_src), "src"),
                                         DefaultConfig()),
                      "RC102"),
            1);
  std::vector<lintlib::SourceFile> in_tests;
  in_tests.push_back(lintlib::StripSource("tests/fx/src/db/wal.h", wal));
  in_tests.push_back(lintlib::StripSource("tests/fx/src/db/x.cc", producer));
  const Model m = BuildModel(std::move(in_tests), "src");
  EXPECT_TRUE(m.enums.empty());
  EXPECT_TRUE(rapicheck::Analyze(m, DefaultConfig()).empty());
}

}  // namespace
