#include "tools/rapicheck/model.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace rapicheck {

namespace {

using lintlib::FindWord;
using lintlib::IsIdentChar;
using lintlib::TailIdentifier;
using lintlib::TrimView;

bool IsKeyword(std::string_view token) {
  static constexpr const char* kKeywords[] = {
      "if",         "for",      "while",        "switch",     "return",
      "co_return",  "co_await", "co_yield",     "sizeof",     "alignof",
      "catch",      "new",      "delete",       "static_cast",
      "dynamic_cast", "const_cast", "reinterpret_cast", "decltype",
      "noexcept",   "void",     "throw",        "do",         "else",
  };
  for (const char* k : kKeywords) {
    if (token == k) return true;
  }
  return false;
}

// An enumerator by this repo's convention: kUpperCamel.
bool LooksLikeEnumerator(std::string_view token) {
  return token.size() >= 2 && token[0] == 'k' &&
         std::isupper(static_cast<unsigned char>(token[1])) != 0;
}

struct Scope {
  enum class Kind { kNamespace, kClass, kEnum, kFunction, kSwitch, kBlock };
  Kind kind;
  int id = 0;
  int index = -1;    // enums/switches/functions index for those kinds
  std::string name;  // class name for kClass
};

class Builder {
 public:
  explicit Builder(Model* model) : model_(model) {}

  void AddFile(int file_index) {
    file_index_ = file_index;
    const lintlib::SourceFile& file = model_->files[file_index];
    scopes_.clear();
    header_.clear();
    enum_piece_.clear();
    for (size_t i = 0; i < file.code.size(); ++i) {
      const std::string& line = file.code[i];
      const int ln = static_cast<int>(i) + 1;
      // Pattern extraction uses the scope state at line start; the repo's
      // clang-format puts case labels, calls and acquisitions on their own
      // lines below the brace that opened their scope, so this is exact for
      // the idioms the rules consume.
      ExtractPatterns(line, ln);
      ScanStructure(line, ln);
    }
    // Unterminated scopes (unbalanced braces should not happen on stripped
    // well-formed code, but stay safe): close functions at EOF.
    for (const Scope& s : scopes_) {
      if (s.kind == Scope::Kind::kFunction) {
        model_->functions[s.index].end_line =
            static_cast<int>(file.code.size());
      }
    }
  }

 private:
  const lintlib::SourceFile& file() const {
    return model_->files[file_index_];
  }

  int CurrentFunction() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::Kind::kFunction) return it->index;
    }
    return -1;
  }

  // Innermost switch, not crossing a function boundary (a lambda inside a
  // case arm is its own world).
  int CurrentSwitch() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::Kind::kSwitch) return it->index;
      if (it->kind == Scope::Kind::kFunction) return -1;
    }
    return -1;
  }

  std::vector<int> ScopeIdsFromFunction() const {
    std::vector<int> ids;
    size_t start = 0;
    for (size_t i = scopes_.size(); i > 0; --i) {
      if (scopes_[i - 1].kind == Scope::Kind::kFunction) {
        start = i - 1;
        break;
      }
    }
    for (size_t i = start; i < scopes_.size(); ++i) {
      ids.push_back(scopes_[i].id);
    }
    return ids;
  }

  bool InEnum() const {
    return !scopes_.empty() && scopes_.back().kind == Scope::Kind::kEnum;
  }

  // --- per-line pattern extraction ---------------------------------------

  void ExtractPatterns(const std::string& line, int ln) {
    if (InEnum()) return;  // enumerators are handled by ScanStructure
    const int fn = CurrentFunction();
    ExtractCaseLabels(line, ln);
    ExtractEnumUses(line, ln, fn);
    if (fn >= 0) {
      ExtractAcquisitions(line, ln, fn);
      ExtractCalls(line, ln, fn);
    } else {
      ExtractConstant(line, ln);
    }
  }

  void ExtractCaseLabels(const std::string& line, int ln) {
    const int sw = CurrentSwitch();
    if (sw < 0) return;
    SwitchStmt& stmt = model_->switches[sw];
    for (size_t pos = FindWord(line, "case"); pos != std::string_view::npos;
         pos = FindWord(line, "case", pos + 1)) {
      // Label text runs to the first ':' that is not part of a '::'.
      size_t colon = std::string_view::npos;
      for (size_t i = pos + 4; i < line.size(); ++i) {
        if (line[i] != ':') continue;
        if (i + 1 < line.size() && line[i + 1] == ':') {
          ++i;
          continue;
        }
        if (i > 0 && line[i - 1] == ':') continue;
        colon = i;
        break;
      }
      if (colon == std::string_view::npos) continue;
      const std::string_view label =
          TrimView(std::string_view(line).substr(pos + 4, colon - pos - 4));
      const size_t sep = label.rfind("::");
      if (sep == std::string_view::npos) continue;  // unqualified: not modeled
      const std::string_view enumerator = label.substr(sep + 2);
      std::string_view qualifier = label.substr(0, sep);
      const size_t prev = qualifier.rfind("::");
      if (prev != std::string_view::npos) qualifier = qualifier.substr(prev + 2);
      if (enumerator.empty() || qualifier.empty()) continue;
      stmt.cases.emplace_back(enumerator);
      if (stmt.enum_name.empty()) stmt.enum_name = std::string(qualifier);
    }
    const size_t def = FindWord(line, "default");
    if (def != std::string_view::npos) {
      size_t after = def + 7;
      while (after < line.size() && line[after] == ' ') ++after;
      if (after < line.size() && line[after] == ':') {
        stmt.has_default = true;
        stmt.default_line = ln;
      }
    }
  }

  void ExtractEnumUses(const std::string& line, int ln, int fn) {
    const std::string_view trimmed = TrimView(line);
    const bool is_case_line = trimmed.substr(0, 5) == "case ";
    for (size_t pos = line.find("::"); pos != std::string::npos;
         pos = line.find("::", pos + 1)) {
      // Qualifier: identifier run ending at pos.
      size_t bstart = pos;
      while (bstart > 0 && IsIdentChar(line[bstart - 1])) --bstart;
      if (bstart == pos) continue;
      // Enumerator: identifier run starting after "::".
      size_t aend = pos + 2;
      while (aend < line.size() && IsIdentChar(line[aend])) ++aend;
      if (aend == pos + 2) continue;
      const std::string_view qualifier(line.data() + bstart, pos - bstart);
      const std::string_view enumerator(line.data() + pos + 2, aend - pos - 2);
      if (!LooksLikeEnumerator(enumerator)) continue;
      EnumUse use;
      use.enum_name = std::string(qualifier);
      use.enumerator = std::string(enumerator);
      use.file = file().path;
      use.line = ln;
      use.function_index = fn;
      if (is_case_line) {
        use.kind = EnumUse::Kind::kCase;
      } else if (AdjacentComparison(line, bstart, aend)) {
        use.kind = EnumUse::Kind::kCompare;
      } else {
        use.kind = EnumUse::Kind::kProduce;
      }
      model_->uses.push_back(std::move(use));
    }
  }

  static bool AdjacentComparison(const std::string& line, size_t bstart,
                                 size_t aend) {
    size_t before = bstart;
    while (before > 0 && line[before - 1] == ' ') --before;
    if (before >= 2) {
      const std::string_view op = std::string_view(line).substr(before - 2, 2);
      if (op == "==" || op == "!=") return true;
    }
    size_t after = aend;
    while (after < line.size() && line[after] == ' ') ++after;
    if (after + 1 < line.size()) {
      const std::string_view op = std::string_view(line).substr(after, 2);
      if (op == "==" || op == "!=") return true;
    }
    return false;
  }

  void ExtractAcquisitions(const std::string& line, int ln, int fn) {
    // RAII mutexes: `auto guard = co_await apply_mutex_->Lock();` — the
    // guard lives until its scope closes. Manual lock tables:
    // `co_await locks_->Acquire(txn, key)` — held until function end
    // (released by ReleaseAll, which linear scanning does not model).
    struct Probe {
      const char* pattern;
      bool scoped;
    };
    static constexpr Probe kProbes[] = {
        {"->Lock()", true},
        {".Lock()", true},
        {"->Acquire(", false},
        {".Acquire(", false},
    };
    for (const Probe& probe : kProbes) {
      for (size_t pos = line.find(probe.pattern); pos != std::string::npos;
           pos = line.find(probe.pattern, pos + 1)) {
        const std::string_view node =
            TailIdentifier(std::string_view(line).substr(0, pos));
        if (node.empty()) continue;
        FuncEvent ev;
        ev.kind = FuncEvent::Kind::kAcquire;
        ev.name = std::string(node);
        ev.line = ln;
        ev.scoped_lock = probe.scoped;
        ev.scope_ids = ScopeIdsFromFunction();
        model_->functions[fn].events.push_back(std::move(ev));
      }
    }
  }

  void ExtractCalls(const std::string& line, int ln, int fn) {
    for (size_t i = 0; i < line.size(); ++i) {
      if (!IsIdentChar(line[i])) continue;
      size_t end = i;
      while (end < line.size() && IsIdentChar(line[end])) ++end;
      const std::string_view token(line.data() + i, end - i);
      const size_t next = end;
      if (next < line.size() && line[next] == '(' && !IsKeyword(token) &&
          std::isdigit(static_cast<unsigned char>(token[0])) == 0) {
        FuncEvent ev;
        ev.kind = FuncEvent::Kind::kCall;
        ev.name = std::string(token);
        ev.line = ln;
        ev.scope_ids = ScopeIdsFromFunction();
        model_->functions[fn].events.push_back(std::move(ev));
      }
      i = end;
    }
  }

  void ExtractConstant(const std::string& line, int ln) {
    if (FindWord(line, "constexpr") == std::string_view::npos) return;
    const size_t eq = line.find('=');
    if (eq == std::string::npos) return;
    const std::string_view name =
        TailIdentifier(std::string_view(line).substr(0, eq));
    if (name.empty()) return;
    std::string_view rhs = TrimView(std::string_view(line).substr(eq + 1));
    const size_t semi = rhs.find(';');
    if (semi != std::string_view::npos) rhs = TrimView(rhs.substr(0, semi));
    if (rhs.empty()) return;
    char* parse_end = nullptr;
    const std::string rhs_str(rhs);
    const long long value = std::strtoll(rhs_str.c_str(), &parse_end, 0);
    if (parse_end == nullptr || *parse_end != '\0') return;
    ConstDef def;
    def.name = std::string(name);
    def.value = value;
    def.file = file().path;
    def.line = ln;
    model_->constants.push_back(std::move(def));
  }

  // --- structural scan ----------------------------------------------------

  void ScanStructure(const std::string& line, int ln) {
    for (size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      if (InEnum()) {
        if (c == '}') {
          FlushEnumerator(ln);
          scopes_.pop_back();
          header_.clear();
        } else if (c == ',') {
          FlushEnumerator(ln);
        } else {
          if (enum_piece_.empty() && c != ' ') enum_piece_line_ = ln;
          enum_piece_.push_back(c);
        }
        continue;
      }
      switch (c) {
        case '{':
          ClassifyAndPush(ln);
          header_.clear();
          break;
        case '}':
          if (!scopes_.empty()) {
            if (scopes_.back().kind == Scope::Kind::kFunction) {
              model_->functions[scopes_.back().index].end_line = ln;
            }
            scopes_.pop_back();
          }
          header_.clear();
          break;
        case ';':
          header_.clear();
          break;
        default:
          header_.push_back(c);
      }
    }
    if (!header_.empty()) header_.push_back(' ');  // line break as separator
  }

  void ClassifyAndPush(int ln) {
    const std::string_view h = TrimView(header_);
    Scope scope;
    scope.id = next_scope_id_++;
    const bool in_code =
        !scopes_.empty() && (scopes_.back().kind == Scope::Kind::kFunction ||
                             scopes_.back().kind == Scope::Kind::kBlock ||
                             scopes_.back().kind == Scope::Kind::kSwitch);
    if (in_code) {
      if (FindWord(h, "switch") != std::string_view::npos) {
        scope.kind = Scope::Kind::kSwitch;
        scope.index = static_cast<int>(model_->switches.size());
        SwitchStmt stmt;
        stmt.file = file().path;
        stmt.line = ln;
        stmt.function_index = CurrentFunction();
        model_->switches.push_back(std::move(stmt));
      } else {
        scope.kind = Scope::Kind::kBlock;
      }
    } else if (FindWord(h, "namespace") != std::string_view::npos) {
      scope.kind = Scope::Kind::kNamespace;
    } else if (FindWord(h, "enum") != std::string_view::npos) {
      scope.kind = Scope::Kind::kEnum;
      scope.index = static_cast<int>(model_->enums.size());
      model_->enums.push_back(ParseEnumHeader(h, ln));
      enum_piece_.clear();
    } else if ((FindWord(h, "class") != std::string_view::npos ||
                FindWord(h, "struct") != std::string_view::npos ||
                FindWord(h, "union") != std::string_view::npos) &&
               h.find('(') == std::string_view::npos) {
      scope.kind = Scope::Kind::kClass;
      scope.name = ParseClassName(h);
    } else {
      const std::string name = ParseFunctionName(h);
      if (!name.empty()) {
        scope.kind = Scope::Kind::kFunction;
        scope.index = static_cast<int>(model_->functions.size());
        FunctionDef def;
        def.name = Qualify(name);
        def.file = file().path;
        def.file_index = file_index_;
        def.line = ln;
        model_->functions.push_back(std::move(def));
      } else {
        scope.kind = Scope::Kind::kBlock;
      }
    }
    scopes_.push_back(std::move(scope));
  }

  static EnumDef ParseEnumHeaderImpl(std::string_view h, int ln) {
    EnumDef def;
    def.line = ln;
    size_t pos = FindWord(h, "enum");
    pos += 4;
    auto next_token = [&]() -> std::string_view {
      while (pos < h.size() && !IsIdentChar(h[pos])) {
        if (h[pos] == ':') return {};  // underlying type list starts
        ++pos;
      }
      size_t end = pos;
      while (end < h.size() && IsIdentChar(h[end])) ++end;
      const std::string_view tok = h.substr(pos, end - pos);
      pos = end;
      return tok;
    };
    std::string_view tok = next_token();
    if (tok == "class" || tok == "struct") {
      def.scoped = true;
      tok = next_token();
    }
    def.name = std::string(tok);
    return def;
  }

  EnumDef ParseEnumHeader(std::string_view h, int ln) {
    EnumDef def = ParseEnumHeaderImpl(h, ln);
    def.file = file().path;
    return def;
  }

  static std::string ParseClassName(std::string_view h) {
    for (const char* kw : {"class", "struct", "union"}) {
      const size_t pos = FindWord(h, kw);
      if (pos == std::string_view::npos) continue;
      size_t p = pos + std::string_view(kw).size();
      while (p < h.size() && h[p] == ' ') ++p;
      size_t end = p;
      while (end < h.size() && IsIdentChar(h[end])) ++end;
      // `class RL_EXPORT Foo` style attribute macros don't occur here;
      // `class Foo : public Bar` and `class Foo final` both end the name at
      // the first non-identifier.
      if (end > p) return std::string(h.substr(p, end - p));
    }
    return "";
  }

  static std::string ParseFunctionName(std::string_view h) {
    const size_t open = h.find('(');
    if (open == std::string_view::npos) return "";
    size_t start = open;
    while (start > 0 &&
           (IsIdentChar(h[start - 1]) || h[start - 1] == ':' ||
            h[start - 1] == '~')) {
      --start;
    }
    std::string_view name = h.substr(start, open - start);
    while (!name.empty() && name.front() == ':') name.remove_prefix(1);
    if (name.empty()) return "";
    const std::string_view tail = UnqualifiedTail(name);
    if (tail.empty() || IsKeyword(tail)) return "";
    if (std::isdigit(static_cast<unsigned char>(tail[0])) != 0) return "";
    return std::string(name);
  }

  std::string Qualify(const std::string& name) const {
    if (name.find("::") != std::string::npos) return name;
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::Kind::kClass && !it->name.empty()) {
        return it->name + "::" + name;
      }
      if (it->kind == Scope::Kind::kFunction) break;
    }
    return name;
  }

  void FlushEnumerator(int ln) {
    std::string_view piece = TrimView(enum_piece_);
    if (!piece.empty()) {
      Enumerator e;
      size_t end = 0;
      while (end < piece.size() && IsIdentChar(piece[end])) ++end;
      e.name = std::string(piece.substr(0, end));
      e.line = enum_piece_line_ > 0 ? enum_piece_line_ : ln;
      const size_t eq = piece.find('=');
      if (eq != std::string_view::npos) {
        e.has_value = true;
        const std::string rhs(TrimView(piece.substr(eq + 1)));
        char* parse_end = nullptr;
        e.value = std::strtoll(rhs.c_str(), &parse_end, 0);
        e.value_known = parse_end != nullptr && *parse_end == '\0' &&
                        !rhs.empty();
      }
      if (!e.name.empty() && !scopes_.empty() &&
          scopes_.back().kind == Scope::Kind::kEnum) {
        model_->enums[scopes_.back().index].enumerators.push_back(
            std::move(e));
      }
    }
    enum_piece_.clear();
    enum_piece_line_ = 0;
  }

  Model* model_;
  int file_index_ = -1;
  std::vector<Scope> scopes_;
  std::string header_;
  std::string enum_piece_;
  int enum_piece_line_ = 0;
  int next_scope_id_ = 0;
};

}  // namespace

std::vector<std::string_view> UnorderedDeclarations(std::string_view line) {
  std::vector<std::string_view> names;
  for (const char* cont : {"unordered_map", "unordered_set",
                           "unordered_multimap", "unordered_multiset"}) {
    const size_t pos = FindWord(line, cont);
    if (pos == std::string_view::npos) continue;
    const size_t open = pos + std::string_view(cont).size();
    if (open >= line.size() || line[open] != '<') continue;
    const size_t after = lintlib::SkipAngles(line, open);
    if (after == std::string_view::npos) continue;
    // `unordered_map<K, V> name`: skip references/pointers to reach the
    // declared identifier.
    size_t p = after;
    while (p < line.size() &&
           (line[p] == ' ' || line[p] == '&' || line[p] == '*')) {
      ++p;
    }
    size_t end = p;
    while (end < line.size() && IsIdentChar(line[end])) ++end;
    if (end > p) names.push_back(line.substr(p, end - p));
  }
  return names;
}

std::string_view UnqualifiedTail(std::string_view name) {
  const size_t sep = name.rfind("::");
  return sep == std::string_view::npos ? name : name.substr(sep + 2);
}

const EnumDef* Model::FindEnum(std::string_view name) const {
  for (const EnumDef& def : enums) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

bool Model::InProtocolScope(std::string_view path) const {
  return protocol_root.empty() || lintlib::UnderDir(path, protocol_root);
}

const lintlib::SourceFile* Model::FindFile(std::string_view path) const {
  for (const lintlib::SourceFile& f : files) {
    if (f.path == path) return &f;
  }
  return nullptr;
}

std::vector<int> Model::FunctionsNamed(std::string_view name) const {
  std::vector<int> out;
  for (size_t i = 0; i < functions.size(); ++i) {
    if (UnqualifiedTail(functions[i].name) == name) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

Model BuildModel(std::vector<lintlib::SourceFile> files,
                 std::string_view protocol_root) {
  Model model;
  model.files = std::move(files);
  model.protocol_root = std::string(protocol_root);
  Builder builder(&model);
  for (size_t i = 0; i < model.files.size(); ++i) {
    const lintlib::SourceFile& file = model.files[i];
    for (size_t ln = 0; ln < file.code.size(); ++ln) {
      for (std::string_view name : UnorderedDeclarations(file.code[ln])) {
        // Only `name_` members are indexed across files: that is the repo's
        // member naming convention, and indexing plain locals globally
        // would flag unrelated same-named variables.
        if (name.back() == '_') {
          model.unordered_members[std::string(name)] =
              file.path + ":" + std::to_string(ln + 1);
        }
      }
    }
    if (model.InProtocolScope(file.path)) {
      builder.AddFile(static_cast<int>(i));
    }
  }
  return model;
}

}  // namespace rapicheck
