// The determinism rules SL001-SL008: constructs that make an episode
// depend on something other than its seed. Each rule judges one line, with
// the model's index of unordered members as its only cross-file context.
#include <map>
#include <set>
#include <string>
#include <string_view>

#include "tools/rapicheck/rules.h"

namespace rapicheck {

namespace {

using lintlib::FindWord;
using lintlib::IsIdentChar;
using lintlib::SkipAngles;
using lintlib::TailIdentifier;
using lintlib::TrimView;
using lintlib::UnderDir;

bool InSrc(std::string_view path) { return UnderDir(path, "src"); }
bool InBench(std::string_view path) { return UnderDir(path, "bench"); }

// Directories where ambient process state (getenv, mutable statics) is
// banned outright: the simulation core, the trusted layer, fault injection.
bool InAmbientBanDirs(std::string_view path) {
  return UnderDir(path, "src/sim") || UnderDir(path, "src/rapilog") ||
         UnderDir(path, "src/faults");
}

// SL007 scope: everything under src/ except the parallel runner, which is
// the one sanctioned home for threads (it fans out whole simulations; each
// simulation stays single-threaded). tools/ and tests/ are host-side code
// and exempt.
//
// Decision (revisited for src/shard): the fleet topology — N shard guests,
// a coordinator, and the network fabric between them — deliberately gets NO
// allowlist entry. "N machines" is modelled as N coroutine actors inside
// ONE simulator, which is exactly what makes a 2PC crash schedule
// replayable from a seed; real threads per shard would trade that away for
// nothing (the simulated machines never execute concurrently anyway).
// Fleet parallelism, like everything else, happens across whole
// simulations: bench_e13_fleet fans sweep cells and rapilog_chaos fans
// fleet episodes through parallel_runner, one Simulator per job.
bool InThreadBanScope(std::string_view path) {
  if (path.substr(0, 2) == "./") path.remove_prefix(2);
  if (path.substr(0, 27) == "src/harness/parallel_runner") return false;
  return InSrc(path);
}

// SL008 scope: the directories that own persistent or wire byte formats.
// Inside them, type punning (reinterpret_cast, memcpy through &object)
// silently bakes host endianness and padding into bytes that are supposed
// to be a stable format. The sanctioned codecs — layout.h's
// LoadScalar/StoreScalar and the shard wire Reader/PutU* — are the only
// places allowed to touch object representations.
bool InWirePunScope(std::string_view path) {
  return UnderDir(path, "src/db") || UnderDir(path, "src/shard") ||
         UnderDir(path, "src/replica") || UnderDir(path, "src/storage") ||
         UnderDir(path, "src/rapilog");
}

bool InWirePunAllowlist(std::string_view path) {
  if (path.substr(0, 2) == "./") path.remove_prefix(2);
  return path == "src/db/layout.h" || path == "src/shard/wire.h" ||
         path == "src/shard/wire.cc";
}

class Linter {
 public:
  Linter(const lintlib::SourceFile& file, const Model& model, Emitter* emitter)
      : file_(file), model_(model), emitter_(emitter) {}

  void Run() {
    CollectLocalDeclarations();
    for (size_t i = 0; i < file_.code.size(); ++i) {
      const std::string& line = file_.code[i];
      const int ln = static_cast<int>(i) + 1;
      CheckWallClock(line, ln);
      CheckAmbientState(line, ln);
      CheckUnorderedIteration(line, ln);
      CheckPointerOrdering(line, ln);
      CheckRawNewDelete(line, ln);
      CheckFloatAccumulation(line, ln);
      CheckThreadPrimitives(line, ln);
      CheckWireBytePunning(line, ln);
    }
  }

 private:
  void Report(const char* rule, const char* tag, int line, std::string message,
              std::string hint) {
    emitter_->Add(rule, file_.path, line, std::move(message), std::move(hint),
                  tag);
  }

  // SL001: ambient time and entropy. The simulator's virtual clock and
  // seeded RNG are the only admissible sources.
  void CheckWallClock(const std::string& line, int ln) {
    static constexpr const char* kBannedWords[] = {
        "system_clock",     "steady_clock", "high_resolution_clock",
        "random_device",    "gettimeofday", "clock_gettime",
        "timespec_get",     "mt19937",      "mt19937_64",
        "default_random_engine",
    };
    for (const char* word : kBannedWords) {
      if (FindWord(line, word) != std::string_view::npos) {
        Report("SL001", "clock-ok", ln,
               std::string("banned ambient time/entropy source '") + word +
                   "'",
               "use sim.Now() for time and the simulator's seeded "
               "rlsim::Rng for randomness");
      }
    }
    // rand(/srand(/time( need the call parenthesis to avoid flagging
    // identifiers like `operand` or members named `time`.
    for (const char* fn : {"rand", "srand", "time", "clock"}) {
      size_t pos = FindWord(line, fn);
      while (pos != std::string_view::npos) {
        size_t after = pos + std::string_view(fn).size();
        while (after < line.size() && line[after] == ' ') ++after;
        // `.time(` / `->time(` are member calls (e.g. on a config struct),
        // not libc; only flag the free function.
        const bool member_call =
            pos >= 1 && (line[pos - 1] == '.' ||
                         (pos >= 2 && line[pos - 2] == '-' &&
                          line[pos - 1] == '>') ||
                         line[pos - 1] == ':');
        if (after < line.size() && line[after] == '(' && !member_call) {
          Report("SL001", "clock-ok", ln,
                 std::string("banned libc time/entropy call '") + fn + "('",
                 "derive values from the simulator clock or seeded Rng");
        }
        pos = FindWord(line, fn, pos + 1);
      }
    }
  }

  // SL002: getenv and mutable static state in the core directories. Both
  // make an episode's behaviour depend on the process, not the seed.
  void CheckAmbientState(const std::string& line, int ln) {
    if (!InAmbientBanDirs(file_.path)) return;
    if (FindWord(line, "getenv") != std::string_view::npos) {
      Report("SL002", "env-ok", ln,
             "getenv reads ambient process state inside the deterministic "
             "core",
             "thread the knob through an options struct / CLI flag instead");
    }
    // A `static` (or thread_local) definition that is not const/constexpr
    // and is a variable, not a function: variables have `=`, `{` or `;`
    // before any parameter list.
    std::string_view code = TrimView(line);
    const bool is_static = code.substr(0, 7) == "static " ||
                           code.substr(0, 13) == "thread_local ";
    if (!is_static) return;
    code.remove_prefix(code.find(' ') + 1);
    code = TrimView(code);
    if (code.substr(0, 6) == "const " || code.substr(0, 10) == "constexpr " ||
        code.substr(0, 10) == "constinit ") {
      return;
    }
    // Distinguish `static int hits = 0;` from `static int Hits();`: find the
    // first of '(', '=', ';', '{' outside template angles.
    size_t i = 0;
    char first = 0;
    while (i < code.size()) {
      const char c = code[i];
      if (c == '<') {
        const size_t skip = SkipAngles(code, i);
        if (skip == std::string_view::npos) break;
        i = skip;
        continue;
      }
      if (c == '(' || c == '=' || c == ';' || c == '{') {
        first = c;
        break;
      }
      ++i;
    }
    if (first != 0 && first != '(') {
      Report("SL002", "static-ok", ln,
             "mutable static state in the deterministic core survives "
             "across episodes",
             "make it const/constexpr, or move it into a per-episode object");
    }
  }

  // SL003: iteration over unordered containers. Iteration order is
  // implementation-defined; even when libstdc++ happens to be stable, the
  // order depends on insertion history and rehash points — never let it
  // reach event ordering. Fix: rlsim::SortedKeys (src/sim/ordered.h) or a
  // `// rapicheck: ordered-ok (<why order cannot matter>)` pragma.
  void CheckUnorderedIteration(const std::string& line, int ln) {
    if (!InSrc(file_.path)) return;
    // Range-for: `for (decl : expr)`.
    const size_t forPos = FindWord(line, "for");
    if (forPos != std::string_view::npos) {
      const size_t open = line.find('(', forPos);
      const size_t colon = line.find(':', forPos);
      if (open != std::string_view::npos && colon != std::string_view::npos &&
          colon > open && line.compare(colon - 1, 2, "::") != 0 &&
          (colon + 1 >= line.size() || line[colon + 1] != ':')) {
        const size_t close = line.rfind(')');
        const std::string_view expr =
            close != std::string_view::npos && close > colon
                ? std::string_view(line).substr(colon + 1, close - colon - 1)
                : std::string_view(line).substr(colon + 1);
        MaybeFlagUnordered(TailIdentifier(expr), ln, "range-for");
      }
    }
    // Iterator loops / explicit traversal: name.begin(), name.cbegin().
    for (const char* probe : {".begin()", ".cbegin()"}) {
      const size_t pos = line.find(probe);
      if (pos != std::string_view::npos) {
        MaybeFlagUnordered(
            TailIdentifier(std::string_view(line).substr(0, pos)), ln,
            "iterator traversal");
      }
    }
  }

  void MaybeFlagUnordered(std::string_view name, int ln, const char* how) {
    if (name.empty()) return;
    const std::string key(name);
    std::string declared_at;
    if (auto it = local_unordered_.find(key); it != local_unordered_.end()) {
      declared_at = it->second;
    } else if (auto jt = model_.unordered_members.find(key);
               jt != model_.unordered_members.end() && key.back() == '_') {
      declared_at = jt->second;
    } else {
      return;
    }
    Report("SL003", "ordered-ok", ln,
           std::string(how) + " over unordered container '" + key +
               "' (declared at " + declared_at +
               "); iteration order is not deterministic",
           "iterate rlsim::SortedKeys(" + key +
               ") from src/sim/ordered.h, or add `// rapicheck: ordered-ok "
               "(<why order cannot matter>)`");
  }

  // SL004: pointer-keyed ordered containers. std::map<T*, V> / std::set<T*>
  // order by address, and addresses differ run to run.
  void CheckPointerOrdering(const std::string& line, int ln) {
    if (!InSrc(file_.path)) return;
    for (const char* cont : {"map", "multimap", "set", "multiset", "less",
                             "greater", "priority_queue"}) {
      size_t pos = FindWord(line, cont);
      while (pos != std::string_view::npos) {
        const size_t open = pos + std::string_view(cont).size();
        if (open < line.size() && line[open] == '<') {
          // First template argument (the key / compared type).
          std::string_view arg = FirstTemplateArg(line, open);
          if (arg.find('*') != std::string_view::npos &&
              arg.find("char") == std::string_view::npos) {
            Report("SL004", "ptr-ok", ln,
                   std::string("'") + cont +
                       "' ordered by pointer key '" + std::string(arg) +
                       "': address order differs between runs",
                   "key by a stable id (name, index, sequence number) and "
                   "look the object up, or supply a by-value comparator");
          }
        }
        pos = FindWord(line, cont, pos + 1);
      }
    }
  }

  static std::string_view FirstTemplateArg(std::string_view line,
                                           size_t open) {
    int depth = 0;
    size_t start = open + 1;
    for (size_t i = open; i < line.size(); ++i) {
      const char c = line[i];
      if (c == '<') ++depth;
      if (c == '>') {
        --depth;
        if (depth == 0) return TrimView(line.substr(start, i - start));
      }
      if (c == ',' && depth == 1) {
        return TrimView(line.substr(start, i - start));
      }
    }
    return TrimView(line.substr(start));
  }

  // SL005: raw new/delete. The simulator's components own memory through
  // unique_ptr/containers; a raw owning pointer is a leak or double-free
  // waiting for a fault-injection path to find it.
  void CheckRawNewDelete(const std::string& line, int ln) {
    if (!InSrc(file_.path) && !InBench(file_.path)) return;
    size_t pos = FindWord(line, "new");
    while (pos != std::string_view::npos) {
      // `operator new` overloads are the arena implementation itself.
      const std::string_view before = TrimView(
          std::string_view(line).substr(0, pos));
      const bool is_operator =
          before.size() >= 8 && before.substr(before.size() - 8) == "operator";
      if (!is_operator) {
        Report("SL005", "new-ok", ln,
               "raw 'new' outside arena/device code",
               "use std::make_unique / a container; for private-constructor "
               "factories add `// rapicheck: new-ok (immediately owned)`");
      }
      pos = FindWord(line, "new", pos + 1);
    }
    pos = FindWord(line, "delete");
    while (pos != std::string_view::npos) {
      const std::string_view before =
          TrimView(std::string_view(line).substr(0, pos));
      const bool deleted_fn =
          !before.empty() && before.back() == '=';  // `= delete;`
      const bool is_operator =
          before.size() >= 8 && before.substr(before.size() - 8) == "operator";
      if (!deleted_fn && !is_operator) {
        Report("SL005", "new-ok", ln, "raw 'delete' outside arena/device code",
               "let unique_ptr/containers own the object");
      }
      pos = FindWord(line, "delete", pos + 1);
    }
  }

  // SL006: running += on a float/double accumulator. Floating addition is
  // not associative; once the sum dwarfs the addend, low bits silently drop
  // and the result depends on accumulation order. Fix: integer units (ns,
  // bytes), or Kahan compensation.
  void CheckFloatAccumulation(const std::string& line, int ln) {
    if (!InSrc(file_.path)) return;
    for (const char* op : {"+=", "-="}) {
      size_t pos = line.find(op);
      while (pos != std::string_view::npos) {
        const std::string_view target =
            TailIdentifier(std::string_view(line).substr(0, pos));
        if (!target.empty() &&
            float_vars_.count(std::string(target)) != 0) {
          Report("SL006", "float-ok", ln,
                 "running '" + std::string(op) + "' on float accumulator '" +
                     std::string(target) +
                     "': result depends on accumulation order",
                 "accumulate in integer units, or use Kahan compensation");
        }
        pos = line.find(op, pos + 1);
      }
    }
  }

  // SL007: threading primitives inside the simulation core. A simulation is
  // single-threaded by contract — its determinism comes from the virtual
  // clock ordering every event; a thread, mutex or future inside one
  // reintroduces scheduling nondeterminism the whole design exists to
  // remove. Parallelism belongs one level up: fan out independent
  // simulations via src/harness/parallel_runner.
  void CheckThreadPrimitives(const std::string& line, int ln) {
    if (!InThreadBanScope(file_.path)) return;
    static constexpr const char* kBannedPrimitives[] = {
        "std::thread",        "std::jthread",
        "std::async",         "std::mutex",
        "std::timed_mutex",   "std::recursive_mutex",
        "std::shared_mutex",  "std::condition_variable",
        "std::lock_guard",    "std::scoped_lock",
        "std::unique_lock",   "std::shared_lock",
        "std::future",        "std::promise",
        "std::latch",         "std::barrier",
        "pthread_create",
    };
    for (const char* prim : kBannedPrimitives) {
      if (FindWord(line, prim) != std::string_view::npos) {
        Report("SL007", "thread-ok", ln,
               std::string("threading primitive '") + prim +
                   "' inside the single-threaded simulation core",
               "parallelise across simulations, not within one: fan whole "
               "(seed, config) jobs out via src/harness/parallel_runner");
      }
    }
  }

  // SL008: type punning on persistent/wire bytes. A reinterpret_cast, or a
  // memcpy whose source/destination is an object address (`&x`), reads or
  // writes an in-memory object *representation* — host endianness, padding
  // and all — where a stable byte format is expected. Byte-span copies
  // (`memcpy(dst, buf.data(), n)`) stay legal: bytes to bytes is
  // representation-free. The two sanctioned codecs (src/db/layout.h's
  // LoadScalar/StoreScalar, the src/shard wire Reader/PutU*) are exempt;
  // everything else routes through them or carries a `wire-ok` pragma.
  void CheckWireBytePunning(const std::string& line, int ln) {
    if (!InWirePunScope(file_.path) || InWirePunAllowlist(file_.path)) return;
    if (FindWord(line, "reinterpret_cast") != std::string_view::npos) {
      Report("SL008", "wire-ok", ln,
             "reinterpret_cast in a persistent/wire-format directory bakes "
             "the host's object representation into the byte format",
             "serialize through layout.h LoadScalar/StoreScalar or the wire "
             "codec; for genuinely representation-free uses add "
             "`// rapicheck: wire-ok (<why>)`");
    }
    size_t pos = FindWord(line, "memcpy");
    while (pos != std::string_view::npos) {
      const size_t open = line.find('(', pos);
      if (open != std::string_view::npos &&
          line.find('&', open) != std::string_view::npos) {
        Report("SL008", "wire-ok", ln,
               "memcpy through an object address (&x) in a persistent/"
               "wire-format directory copies host endianness and padding",
               "encode field-by-field via layout.h LoadScalar/StoreScalar "
               "or the wire codec's PutU16/32/64 helpers");
      }
      pos = FindWord(line, "memcpy", pos + 1);
    }
  }

  // Per-file declaration scan feeding SL003 (any unordered name declared in
  // this file, locals included) and SL006 (float/double variables).
  void CollectLocalDeclarations() {
    for (size_t i = 0; i < file_.code.size(); ++i) {
      const std::string& line = file_.code[i];
      for (std::string_view name : UnorderedDeclarations(line)) {
        local_unordered_[std::string(name)] =
            file_.path + ":" + std::to_string(i + 1);
      }
      for (const char* type : {"double", "float"}) {
        size_t pos = FindWord(line, type);
        while (pos != std::string_view::npos) {
          size_t p = pos + std::string_view(type).size();
          while (p < line.size() && line[p] == ' ') ++p;
          size_t end = p;
          while (end < line.size() && IsIdentChar(line[end])) ++end;
          // Declaration, not a cast or return type of a call: the name must
          // be followed by `=`, `;` or `{`.
          size_t q = end;
          while (q < line.size() && line[q] == ' ') ++q;
          if (end > p && q < line.size() &&
              (line[q] == '=' || line[q] == ';' || line[q] == '{')) {
            float_vars_.insert(line.substr(p, end - p));
          }
          pos = FindWord(line, type, pos + 1);
        }
      }
    }
  }

  const lintlib::SourceFile& file_;
  const Model& model_;
  Emitter* emitter_;
  std::map<std::string, std::string> local_unordered_;  // name -> file:line
  std::set<std::string> float_vars_;
};

}  // namespace

void CheckDeterminism(const Model& model, Emitter* emitter) {
  for (const lintlib::SourceFile& file : model.files) {
    Linter(file, model, emitter).Run();
  }
}

}  // namespace rapicheck
