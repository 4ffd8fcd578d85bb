// rapicheck's determinism rules (SL001-SL008): every rule fires on a
// minimal snippet with the right id and line, and the matching pragma
// suppresses it.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "tools/lintlib/lintlib.h"
#include "tools/rapicheck/rapicheck.h"

namespace {

using lintlib::Finding;
using lintlib::FormatText;

// Checks one snippet as if it were the whole tree at `path`.
std::vector<Finding> LintSource(std::string path, std::string_view contents) {
  return rapicheck::AnalyzeSources({{std::move(path), std::string(contents)}},
                                   rapicheck::DefaultConfig());
}

// One finding with the given rule at the given 1-based line.
void ExpectOnly(const std::vector<Finding>& findings, const char* rule,
                int line) {
  ASSERT_EQ(findings.size(), 1u) << FormatText(findings);
  EXPECT_EQ(findings[0].rule, rule);
  EXPECT_EQ(findings[0].line, line);
  EXPECT_FALSE(findings[0].message.empty());
  EXPECT_FALSE(findings[0].hint.empty());
}

void ExpectClean(const std::vector<Finding>& findings) {
  EXPECT_TRUE(findings.empty()) << FormatText(findings);
}

// --- SL001 wall-clock / entropy -------------------------------------------

TEST(DeterminismSL001, SteadyClockFires) {
  ExpectOnly(LintSource("src/sim/foo.cc",
                        "void F() {\n"
                        "  auto t = std::chrono::steady_clock::now();\n"
                        "}\n"),
             "SL001", 2);
}

TEST(DeterminismSL001, RandAndSrandFire) {
  const auto findings = LintSource("bench/foo.cc",
                                   "int F() {\n"
                                   "  srand(42);\n"
                                   "  return rand();\n"
                                   "}\n");
  ASSERT_EQ(findings.size(), 2u) << FormatText(findings);
  EXPECT_EQ(findings[0].rule, "SL001");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[1].rule, "SL001");
  EXPECT_EQ(findings[1].line, 3);
}

TEST(DeterminismSL001, RandomDeviceAndTimeFire) {
  ExpectOnly(LintSource("src/db/x.cc", "std::random_device rd;\n"), "SL001",
             1);
  ExpectOnly(LintSource("src/db/x.cc",
                        "int64_t F() { return time(nullptr); }\n"),
             "SL001", 1);
}

TEST(DeterminismSL001, MemberCallsAndIdentifiersAreNotFlagged) {
  // cfg.time() is a member accessor, run_time( is a different identifier,
  // and prose in comments/strings never counts.
  ExpectClean(LintSource("src/sim/foo.cc",
                         "void F(Config cfg) {\n"
                         "  auto a = cfg.time();\n"
                         "  auto b = run_time(cfg);\n"
                         "  // steady_clock is banned here\n"
                         "  const char* s = \"rand() in a string\";\n"
                         "  (void)a; (void)b; (void)s;\n"
                         "}\n"));
}

TEST(DeterminismSL001, PragmaSuppresses) {
  ExpectClean(LintSource("src/sim/foo.cc",
                         "// rapicheck: clock-ok (host-side tool, not sim)\n"
                         "auto t = std::chrono::steady_clock::now();\n"));
}

// --- SL002 ambient state --------------------------------------------------

TEST(DeterminismSL002, GetenvFiresInCoreDirs) {
  ExpectOnly(LintSource("src/faults/foo.cc",
                        "bool Trace() { return std::getenv(\"T\"); }\n"),
             "SL002", 1);
}

TEST(DeterminismSL002, GetenvOutsideCoreDirsIsNotFlagged) {
  ExpectClean(LintSource("src/db/foo.cc",
                         "bool Trace() { return std::getenv(\"T\"); }\n"));
}

TEST(DeterminismSL002, MutableStaticFires) {
  ExpectOnly(LintSource("src/sim/foo.cc", "static int hit_count = 0;\n"),
             "SL002", 1);
}

TEST(DeterminismSL002, ConstStaticAndFunctionsAreNotFlagged) {
  ExpectClean(LintSource("src/sim/foo.cc",
                         "static constexpr int kMax = 3;\n"
                         "static const char* Name() { return \"x\"; }\n"
                         "static int Helper(int v);\n"));
}

TEST(DeterminismSL002, PragmaSuppresses) {
  ExpectClean(
      LintSource("src/rapilog/foo.cc",
                 "// rapicheck: static-ok (write-once registration table)\n"
                 "static int table = 0;\n"));
}

// --- SL003 unordered iteration --------------------------------------------

constexpr const char* kUnorderedLoop =
    "std::unordered_map<uint64_t, int> pending_;\n"
    "void F() {\n"
    "  for (const auto& [k, v] : pending_) {\n"
    "  }\n"
    "}\n";

TEST(DeterminismSL003, RangeForOverMemberFires) {
  ExpectOnly(LintSource("src/db/foo.cc", kUnorderedLoop), "SL003", 3);
}

TEST(DeterminismSL003, IteratorLoopFires) {
  ExpectOnly(LintSource("src/db/foo.cc",
                        "std::unordered_set<int> live_;\n"
                        "void F() {\n"
                        "  for (auto it = live_.begin(); it != live_.end();"
                        " ++it) {\n"
                        "  }\n"
                        "}\n"),
             "SL003", 3);
}

TEST(DeterminismSL003, OutsideSrcIsNotFlagged) {
  ExpectClean(LintSource("tests/foo.cc", kUnorderedLoop));
}

TEST(DeterminismSL003, PragmaSuppresses) {
  ExpectClean(LintSource("src/db/foo.cc",
                         "std::unordered_map<uint64_t, int> pending_;\n"
                         "void F() {\n"
                         "  // rapicheck: ordered-ok (order-independent fold)\n"
                         "  for (const auto& [k, v] : pending_) {\n"
                         "  }\n"
                         "}\n"));
}

TEST(DeterminismSL003, MultiLineJustificationCommentStillSuppresses) {
  ExpectClean(LintSource("src/db/foo.cc",
                         "std::unordered_map<uint64_t, int> pending_;\n"
                         "void F() {\n"
                         "  // rapicheck: ordered-ok (a justification long\n"
                         "  // enough to wrap onto a second comment line)\n"
                         "  for (const auto& [k, v] : pending_) {\n"
                         "  }\n"
                         "}\n"));
}

TEST(DeterminismSL003, SortedSnapshotIsTheBlessedPattern) {
  // Iterating SortedKeys(pending_) does not touch the container's own
  // iteration order, so the rule stays quiet.
  ExpectClean(LintSource("src/db/foo.cc",
                         "std::unordered_map<uint64_t, int> pending_;\n"
                         "void F() {\n"
                         "  for (uint64_t k : rlsim::SortedKeys(pending_)) {\n"
                         "  }\n"
                         "}\n"));
}

// --- SL004 pointer-keyed ordering -----------------------------------------

TEST(DeterminismSL004, PointerKeyedMapFires) {
  ExpectOnly(LintSource("src/db/foo.cc", "std::map<Node*, int> by_node_;\n"),
             "SL004", 1);
}

TEST(DeterminismSL004, PointerSetFires) {
  ExpectOnly(LintSource("src/db/foo.cc",
                        "std::set<const Txn*> waiters_;\n"),
             "SL004", 1);
}

TEST(DeterminismSL004, ValueKeysAreNotFlagged) {
  ExpectClean(
      LintSource("src/db/foo.cc",
                 "std::map<std::string, const Counter*> counters_;\n"
                 "std::set<uint64_t> keys_;\n"));
}

TEST(DeterminismSL004, PragmaSuppresses) {
  ExpectClean(LintSource(
      "src/db/foo.cc",
      "// rapicheck: ptr-ok (ordering never observed; used as a set)\n"
      "std::map<Node*, int> by_node_;\n"));
}

// --- SL005 raw new/delete -------------------------------------------------

TEST(DeterminismSL005, RawNewAndDeleteFire) {
  const auto findings = LintSource("src/db/foo.cc",
                                   "void F() {\n"
                                   "  int* p = new int;\n"
                                   "  delete p;\n"
                                   "}\n");
  ASSERT_EQ(findings.size(), 2u) << FormatText(findings);
  EXPECT_EQ(findings[0].rule, "SL005");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[1].line, 3);
}

TEST(DeterminismSL005, DeletedFunctionsAreNotFlagged) {
  ExpectClean(LintSource("src/db/foo.cc",
                         "struct S {\n"
                         "  S(const S&) = delete;\n"
                         "  S& operator=(const S&) = delete;\n"
                         "};\n"));
}

TEST(DeterminismSL005, TestsAreExempt) {
  ExpectClean(LintSource("tests/foo.cc", "int* p = new int;\n"));
}

TEST(DeterminismSL005, PragmaSuppresses) {
  ExpectClean(LintSource("src/db/foo.cc",
                         "// rapicheck: new-ok (immediately owned)\n"
                         "Database* db = new Database();\n"));
}

// --- SL006 float accumulation ---------------------------------------------

TEST(DeterminismSL006, FloatAccumulatorFires) {
  ExpectOnly(LintSource("src/sim/foo.cc",
                        "double sum_ = 0;\n"
                        "void Add(double v) { sum_ += v; }\n"),
             "SL006", 2);
}

TEST(DeterminismSL006, IntegerAccumulatorIsNotFlagged) {
  ExpectClean(LintSource("src/sim/foo.cc",
                         "int64_t count_ = 0;\n"
                         "void Add() { count_ += 1; }\n"));
}

TEST(DeterminismSL006, PragmaSuppresses) {
  ExpectClean(
      LintSource("src/sim/foo.cc",
                 "double sum_ = 0;\n"
                 "// rapicheck: float-ok (fixed order one-shot setup)\n"
                 "void Add(double v) { sum_ += v; }\n"));
}

// --- SL007 thread primitives ----------------------------------------------

TEST(DeterminismSL007, ThreadInSimCoreFires) {
  ExpectOnly(LintSource("src/sim/foo.cc",
                        "void F() {\n"
                        "  std::thread t([] {});\n"
                        "}\n"),
             "SL007", 2);
}

TEST(DeterminismSL007, MutexAndAsyncFire) {
  const auto findings = LintSource("src/db/foo.cc",
                                   "std::mutex mu_;\n"
                                   "auto f = std::async([] {});\n");
  ASSERT_EQ(findings.size(), 2u) << FormatText(findings);
  EXPECT_EQ(findings[0].rule, "SL007");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[1].rule, "SL007");
  EXPECT_EQ(findings[1].line, 2);
}

TEST(DeterminismSL007, FiresAcrossTheCoreDirs) {
  for (const char* path :
       {"src/storage/foo.cc", "src/net/foo.cc", "src/replica/foo.cc"}) {
    ExpectOnly(LintSource(path, "std::condition_variable cv_;\n"), "SL007",
               1);
  }
}

TEST(DeterminismSL007, ParallelRunnerAndToolsAreExempt) {
  ExpectClean(LintSource("src/harness/parallel_runner.cc",
                         "std::vector<std::thread> pool;\n"));
  ExpectClean(LintSource("src/harness/parallel_runner.h",
                         "// spawns std::thread workers\n"
                         "int DefaultJobs();\n"));
  ExpectClean(LintSource("tools/foo/foo.cc", "std::mutex mu_;\n"));
  ExpectClean(LintSource("tests/foo.cc", "std::thread t([] {});\n"));
}

TEST(DeterminismSL007, UnrelatedIdentifiersAreNotFlagged) {
  // A member named `thread` or prose in comments must not trip the rule;
  // only the std:: primitives themselves do.
  ExpectClean(LintSource("src/sim/foo.cc",
                         "int thread = 0;\n"
                         "// std::thread is banned here\n"
                         "const char* s = \"std::mutex in a string\";\n"));
}

TEST(DeterminismSL007, PragmaSuppresses) {
  ExpectClean(
      LintSource("src/harness/foo.cc",
                 "// rapicheck: thread-ok (host-side progress reporter)\n"
                 "std::thread reporter_;\n"));
}

// --- Pragmas / stripping behaviour ----------------------------------------

TEST(DeterminismStrip, WrongPragmaTagDoesNotSuppress) {
  // ordered-ok does not excuse a clock: suppression is per-rule.
  const auto findings =
      LintSource("src/sim/foo.cc",
                 "// rapicheck: ordered-ok (wrong tag)\n"
                 "auto t = std::chrono::steady_clock::now();\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "SL001");
}

TEST(DeterminismStrip, BannedTokensInsideStringsAndCommentsAreIgnored) {
  ExpectClean(LintSource(
      "src/sim/foo.cc",
      "/* steady_clock rand() getenv new delete */\n"
      "const char* doc = \"for (x : pending_) steady_clock\";\n"));
}

// --- Output formats -------------------------------------------------------

TEST(DeterminismOutput, JsonContainsEveryField) {
  const auto findings =
      LintSource("src/db/foo.cc", "void F() { int* p = new int; }\n");
  ASSERT_EQ(findings.size(), 1u);
  const std::string json = lintlib::FormatJson(findings);
  EXPECT_NE(json.find("\"rule\":\"SL005\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"file\":\"src/db/foo.cc\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":1"), std::string::npos);
  EXPECT_NE(json.find("\"total\":1"), std::string::npos);
}

TEST(DeterminismOutput, GithubAnnotationsNameTheFile) {
  const auto findings =
      LintSource("src/sim/foo.cc", "std::random_device rd;\n");
  ASSERT_EQ(findings.size(), 1u);
  const std::string gh = lintlib::FormatGithub(findings, "rapicheck");
  EXPECT_NE(gh.find("::error file=src/sim/foo.cc,line=1"), std::string::npos)
      << gh;
}

// --- SL008 wire/persistent byte punning -----------------------------------

TEST(DeterminismSL008, ReinterpretCastInWireDirFires) {
  ExpectOnly(LintSource("src/db/wal.cc",
                        "void F(uint64_t k, uint8_t* out) {\n"
                        "  auto* p = reinterpret_cast<const uint8_t*>(&k);\n"
                        "  out[0] = p[0];\n"
                        "}\n"),
             "SL008", 2);
}

TEST(DeterminismSL008, MemcpyThroughObjectAddressFires) {
  ExpectOnly(LintSource("src/shard/decision_log.cc",
                        "void F(uint64_t v, uint8_t* out) {\n"
                        "  memcpy(out, &v, sizeof(v));\n"
                        "}\n"),
             "SL008", 2);
}

TEST(DeterminismSL008, ByteSpanMemcpyIsFine) {
  // memcpy between byte buffers (no & in the arguments) is representation
  // free and allowed.
  ExpectClean(LintSource("src/db/btree.cc",
                         "void F(uint8_t* dst, const uint8_t* src) {\n"
                         "  memcpy(dst, src, 16);\n"
                         "}\n"));
}

TEST(DeterminismSL008, SanctionedCodecFilesAreExempt) {
  const char* body =
      "void F(uint64_t v, uint8_t* out) {\n"
      "  memcpy(out, &v, sizeof(v));\n"
      "}\n";
  ExpectClean(LintSource("src/db/layout.h", body));
  ExpectClean(LintSource("src/shard/wire.cc", body));
  ExpectClean(LintSource("src/shard/wire.h", body));
}

TEST(DeterminismSL008, OutsideWireDirsNotFlagged) {
  ExpectClean(LintSource("src/sim/crc32.cc",
                         "void F(uint64_t v, uint8_t* out) {\n"
                         "  memcpy(out, &v, sizeof(v));\n"
                         "}\n"));
}

TEST(DeterminismSL008, WireOkPragmaSuppresses) {
  ExpectClean(LintSource(
      "src/db/layout2.cc",
      "void F(uint64_t v, uint8_t* out) {\n"
      "  // rapicheck: wire-ok (fixed-width scratch, never persisted)\n"
      "  memcpy(out, &v, sizeof(v));\n"
      "}\n"));
}

TEST(DeterminismRules, TableListsAllEightRulesFirst) {
  const auto& rules = rapicheck::Rules();
  ASSERT_GE(rules.size(), 8u);
  EXPECT_STREQ(rules[0].id, "SL001");
  EXPECT_STREQ(rules[6].id, "SL007");
  EXPECT_STREQ(rules[7].id, "SL008");
  EXPECT_STREQ(rules[4].severity, "warning");  // SL005
  EXPECT_STREQ(rules[5].severity, "warning");  // SL006
}

}  // namespace
