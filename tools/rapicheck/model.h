// rapicheck's cross-file model of the source tree, built once per run.
//
// The determinism rules (SL) judge one line at a time and need only one
// cross-file fact: which `name_` members are unordered containers, so a
// loop in foo.cc over a member declared in foo.h is still caught. The
// protocol rules (RC) need structure that spans files: which enums exist
// and what their enumerators are, which switch statements dispatch over
// them and what they cover, which functions call which (so "durable before
// ack" can follow a call chain into WaitDurable), and where locks are
// acquired while other locks are held.
//
// The model is built by a brace-tracking line scanner over lintlib-stripped
// source — deliberately not a C++ parser. It understands exactly the idioms
// this repo's clang-format emits (one statement per line, `Type
// Class::Method(...) {`, `case Enum::kX:`) and nothing more. The known
// approximations are documented in DESIGN.md ("model limits"): name-based
// call resolution (all functions sharing an unqualified name are merged),
// linear in-function ordering instead of real control flow, and lock nodes
// keyed by member name.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "tools/lintlib/lintlib.h"

namespace rapicheck {

struct Enumerator {
  std::string name;        // "kCommit"
  bool has_value = false;  // explicit `= N` (or any explicit initializer)
  bool value_known = false;  // initializer parsed as an integer literal
  long long value = 0;
  int line = 0;
};

struct EnumDef {
  std::string name;  // unqualified: "LogRecordType"
  std::string file;
  int line = 0;
  bool scoped = false;  // enum class
  std::vector<Enumerator> enumerators;
};

struct SwitchStmt {
  std::string enum_name;  // resolved from qualified case labels; "" if not
  std::vector<std::string> cases;  // enumerator names, in source order
  bool has_default = false;
  int default_line = 0;
  std::string file;
  int line = 0;             // line of the `switch (`
  int function_index = -1;  // enclosing function, -1 at file scope
};

// One linearized event inside a function body. Events carry the scope-id
// stack active at their line so lock liveness can respect block boundaries
// (a guard taken inside `{ ... }` is dead once the block closes).
struct FuncEvent {
  enum class Kind { kCall, kAcquire };
  Kind kind = Kind::kCall;
  std::string name;  // callee identifier, or lock node ("apply_mutex_")
  int line = 0;
  bool scoped_lock = false;  // RAII guard (dies with its scope) vs manual
  // A `Spawn(...)` call or a call inside its arguments: what it starts runs
  // in a task of its own, not on the enclosing function's path.
  bool spawned = false;
  std::vector<int> scope_ids;  // innermost last; [0] is the function scope
};

struct FunctionDef {
  std::string name;  // "Database::Commit", or "Commit" if unqualifiable
  std::string file;
  int file_index = -1;
  int line = 0;      // header's opening-brace line
  int end_line = 0;  // closing-brace line
  std::vector<FuncEvent> events;  // calls + lock acquisitions, source order
};

// A qualified mention `Enum::kX` outside the enum's own definition.
struct EnumUse {
  enum class Kind {
    kCase,     // `case Enum::kX:`
    kCompare,  // `== Enum::kX` / `Enum::kX !=` ...
    kProduce,  // anything else: assignment, argument, return
  };
  std::string enum_name;   // "LogRecordType" (innermost qualifier)
  std::string enumerator;  // "kCommit"
  Kind kind = Kind::kProduce;
  std::string file;
  int line = 0;
  int function_index = -1;
};

// `inline constexpr <int-type> kName = <literal>;` at namespace scope.
struct ConstDef {
  std::string name;
  long long value = 0;
  std::string file;
  int line = 0;
};

struct Model {
  std::vector<lintlib::SourceFile> files;
  // SL003: unordered-container members (names ending in `_`) declared in
  // any file -> "file:line" of the declaration.
  std::map<std::string, std::string> unordered_members;
  // Only files under this directory feed the protocol model below (and
  // RC104's literal scan); "" admits every file.
  std::string protocol_root;
  std::vector<EnumDef> enums;
  std::vector<SwitchStmt> switches;
  std::vector<FunctionDef> functions;
  std::vector<EnumUse> uses;
  std::vector<ConstDef> constants;

  const EnumDef* FindEnum(std::string_view name) const;
  const lintlib::SourceFile* FindFile(std::string_view path) const;
  bool InProtocolScope(std::string_view path) const;
  // Indices of functions whose unqualified tail name equals `name`.
  std::vector<int> FunctionsNamed(std::string_view name) const;
};

// Builds the model from stripped sources. Every file is indexed for SL003;
// only files under `protocol_root` ("" for all) are parsed for the protocol
// model, so the RC rules judge the product tree, not test fixtures.
Model BuildModel(std::vector<lintlib::SourceFile> files,
                 std::string_view protocol_root = {});

// Names that `line` declares as unordered_{map,set,multimap,multiset}
// (`unordered_map<K, V> name`, references and pointers included).
std::vector<std::string_view> UnorderedDeclarations(std::string_view line);

// Unqualified tail of "A::B::C" -> "C".
std::string_view UnqualifiedTail(std::string_view name);

}  // namespace rapicheck
