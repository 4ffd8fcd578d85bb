// rapicheck: this repository's static checker.
//
// The simulator's value is "same seed, same execution", and the system it
// models rests on protocol contracts no single line can witness. rapicheck
// reads the tree once, builds one model (tools/rapicheck/model.h) and
// checks both. It is a token + context scanner, deliberately not libclang:
// it builds in seconds on a bare toolchain and checks a single snippet
// inside a unit test.
//
//   SLxxx — determinism, one line at a time, on every given file
//     SL001 wall-clock-or-entropy     banned ambient time/randomness sources
//     SL002 ambient-state             getenv / mutable static state in core
//                                     dirs
//     SL003 unordered-iteration       iterating unordered_{map,set} members
//     SL004 pointer-ordering          pointer-keyed ordered containers
//     SL005 raw-new-delete            raw new/delete outside arena/device
//                                     code
//     SL006 float-accumulation        += on float/double accumulators
//     SL007 thread-primitives         std::thread/async/mutex in the sim core
//                                     (threads live in
//                                     src/harness/parallel_runner)
//     SL008 wire-byte-punning         reinterpret_cast/memcpy on on-disk/wire
//                                     bytes outside the sanctioned codecs
//   RC1xx — WAL / on-disk exhaustiveness
//     RC101 switch-missing-case       no-default switch over a known enum
//                                     missing enumerators
//     RC102 record-kind-unpaired      a record/wire kind never produced, or
//                                     never consumed (case/comparison)
//     RC103 on-disk-enum-values       on-disk enum without explicit, unique
//                                     enumerator values (format drift)
//     RC104 on-disk-constant-drift    integer literal duplicating an
//                                     on-disk constant in a file that also
//                                     uses the symbol
//   RC2xx — protocol state-machine coverage
//     RC201 handler-coverage          wire message kind with no handler
//                                     case in the registered handler files
//     RC202 silent-default-drop       `default:` in a switch over a
//                                     protocol enum swallows messages
//     RC203 reply-unreachable         request handler that can never send
//                                     the paired reply kind (call-graph BFS)
//   RC3xx — trust-boundary ordering
//     RC301 ack-before-durability     commit-ack marker with no durability
//                                     call (WaitDurable/Force/..., directly
//                                     or transitively) before it
//     RC302 commit-record-not-awaited kCommit/kPrepare record appended but
//                                     no durability call after the append
//   RC4xx — lock-order cycles
//     RC401 lock-order-cycle          cycle in the lock acquisition graph
//                                     (RAII scopes + one-level call
//                                     expansion)
//
// The RC rules judge the model of the files under Model::protocol_root
// (the CLI passes "src"), so test fixtures that seed violations on purpose
// do not count against the tree.
//
// Suppression: `// rapicheck: <tag> (<why>)` on the finding's line or the
// comment block above it. Tags: clock-ok, env-ok, static-ok, ordered-ok,
// ptr-ok, new-ok, float-ok, thread-ok, wire-ok (SL); case-ok, enum-ok,
// const-ok, handler-ok, default-ok, ack-ok, lock-ok (RC). The checker does
// not parse the justification; reviewers read it.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "tools/lintlib/lintlib.h"
#include "tools/rapicheck/model.h"

namespace rapicheck {

// What the rules check is repo policy, not code structure, so it is data:
// which enums are on-disk formats, which are wire protocols, where their
// handlers are allowed to live, what counts as a durability point and what
// counts as acknowledging a commit. DefaultConfig() encodes this repo's
// contracts; tests inject small configs against fixture trees.
struct EnumContract {
  std::string enum_name;
  bool on_disk = false;         // RC103: explicit unique values required
  bool pair_producers = false;  // RC102: every kind produced and consumed
  bool protocol = false;        // RC202: no silent default switch
  // RC201: every enumerator must appear as a case label in at least one of
  // these scopes (directory like "src/db", or file suffix like
  // "src/shard/shard_node.cc"). Empty: rule not applied.
  std::vector<std::string> handler_paths;
};

struct ReplyContract {
  std::string enum_name;
  std::string request;  // enumerator
  std::string reply;    // enumerator a handler of `request` must produce
};

struct EnumRef {
  std::string enum_name;
  std::string enumerator;
};

struct Config {
  std::vector<EnumContract> enums;
  std::vector<ReplyContract> replies;
  // Base durability points; the closure (functions reaching these through
  // calls) is computed over the model.
  std::vector<std::string> durability_calls;
  // RC301 ack markers: raw substrings matched against stripped code lines
  // inside function bodies (e.g. "stats_.commits.Add"), plus enum
  // producers (e.g. TxnOutcome::kCommitted assignments).
  std::vector<std::string> ack_line_markers;
  std::vector<EnumRef> ack_producers;
  // RC302: appending a record of one of these kinds must be followed by a
  // durability call in the same function.
  std::string commit_record_enum;
  std::vector<std::string> commit_record_kinds;
  std::vector<std::string> append_calls;
  // RC104: on-disk constants whose value must not be open-coded.
  std::vector<std::string> on_disk_constants;
};

Config DefaultConfig();

// The full rule table, SL then RC, in id order.
const std::vector<lintlib::RuleInfo>& Rules();

// Runs every rule over the model. Findings are pragma-filtered and sorted
// by (file, line, rule).
std::vector<lintlib::Finding> Analyze(const Model& model,
                                      const Config& config);

// Convenience for tests: strip, build the model over every file, analyze.
std::vector<lintlib::Finding> AnalyzeSources(
    const std::vector<std::pair<std::string, std::string>>& path_contents,
    const Config& config);

}  // namespace rapicheck
