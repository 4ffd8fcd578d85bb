#include "tools/rapicheck/rapicheck.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "tools/rapicheck/rules.h"

namespace rapicheck {

namespace {

using lintlib::ContainsDir;
using lintlib::Finding;
using lintlib::FindWord;
using lintlib::IsIdentChar;
using lintlib::SourceFile;

// Each RC rule's pragma tag. SL rules name theirs at the report site (SL002
// has two: env-ok and static-ok).
std::string_view TagFor(std::string_view rule) {
  if (rule == "RC101") return "case-ok";
  if (rule == "RC102" || rule == "RC103") return "enum-ok";
  if (rule == "RC104") return "const-ok";
  if (rule == "RC201" || rule == "RC203") return "handler-ok";
  if (rule == "RC202") return "default-ok";
  if (rule == "RC301" || rule == "RC302") return "ack-ok";
  return "lock-ok";
}

std::string_view SeverityFor(std::string_view rule) {
  for (const lintlib::RuleInfo& info : Rules()) {
    if (rule == info.id) return info.severity;
  }
  return "error";
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) out += sep;
    out += p;
  }
  return out;
}

// "src/shard" matches any path containing that directory run; an entry with
// a '.' ("src/shard/shard_node.cc") matches as a path suffix, so fixture
// trees like tests/rapicheck_fixtures/x/src/shard/shard_node.cc qualify.
bool ScopeMatch(std::string_view path, std::string_view entry) {
  if (entry.find('.') != std::string_view::npos) {
    if (path == entry) return true;
    return path.size() > entry.size() &&
           path.compare(path.size() - entry.size(), std::string_view::npos,
                        entry) == 0 &&
           path[path.size() - entry.size() - 1] == '/';
  }
  return ContainsDir(path, entry);
}

bool InAnyScope(std::string_view path,
                const std::vector<std::string>& entries) {
  for (const std::string& e : entries) {
    if (ScopeMatch(path, e)) return true;
  }
  return false;
}

// --- RC101: no-default switch over a known enum missing enumerators --------

void CheckSwitchCoverage(const Model& m, Emitter* e) {
  for (const SwitchStmt& sw : m.switches) {
    if (sw.enum_name.empty() || sw.has_default) continue;
    const EnumDef* def = m.FindEnum(sw.enum_name);
    if (def == nullptr) continue;
    std::vector<std::string> missing;
    for (const Enumerator& en : def->enumerators) {
      if (std::find(sw.cases.begin(), sw.cases.end(), en.name) ==
          sw.cases.end()) {
        missing.push_back(en.name);
      }
    }
    if (missing.empty()) continue;
    e->Add("RC101", sw.file, sw.line,
           "switch over '" + sw.enum_name +
               "' has no default and covers only " +
               std::to_string(sw.cases.size()) + " of " +
               std::to_string(def->enumerators.size()) +
               " enumerators; missing: " + Join(missing, ", "),
           "add the missing case labels, or a deliberate default with a "
           "'// rapicheck: case-ok (why)' justification");
  }
}

// --- RC102: record/wire kind never produced or never consumed --------------

void CheckKindPairing(const Model& m, const Config& cfg, Emitter* e) {
  for (const EnumContract& c : cfg.enums) {
    if (!c.pair_producers) continue;
    const EnumDef* def = m.FindEnum(c.enum_name);
    if (def == nullptr) continue;
    for (const Enumerator& en : def->enumerators) {
      bool produced = false;
      bool consumed = false;
      for (const EnumUse& u : m.uses) {
        if (u.enum_name != c.enum_name || u.enumerator != en.name) continue;
        if (u.kind == EnumUse::Kind::kProduce) {
          produced = true;
        } else {
          consumed = true;
        }
      }
      if (!produced) {
        e->Add("RC102", def->file, en.line,
               "record kind '" + c.enum_name + "::" + en.name +
                   "' is defined but never constructed anywhere in the "
                   "tree",
               "produce it on some path, or delete the kind; a reserved "
               "value can carry '// rapicheck: enum-ok (reserved)'");
      }
      if (!consumed) {
        e->Add("RC102", def->file, en.line,
               "record kind '" + c.enum_name + "::" + en.name +
                   "' is never consumed: no case label or comparison "
                   "reads it, so instances are silently ignored",
               "handle it in the dispatch switch, or delete the kind");
      }
    }
  }
}

// --- RC103: on-disk enums need explicit, unique values ---------------------

void CheckOnDiskEnumValues(const Model& m, const Config& cfg, Emitter* e) {
  for (const EnumContract& c : cfg.enums) {
    if (!c.on_disk) continue;
    const EnumDef* def = m.FindEnum(c.enum_name);
    if (def == nullptr) continue;
    std::map<long long, const Enumerator*> by_value;
    for (const Enumerator& en : def->enumerators) {
      if (!en.has_value) {
        e->Add("RC103", def->file, en.line,
               "on-disk enumerator '" + c.enum_name + "::" + en.name +
                   "' has no explicit value; inserting or reordering "
                   "kinds would silently renumber the persistent format",
               "pin every enumerator of an on-disk enum to an explicit "
               "integer value");
        continue;
      }
      if (!en.value_known) continue;
      auto [it, inserted] = by_value.emplace(en.value, &en);
      if (!inserted) {
        e->Add("RC103", def->file, en.line,
               "on-disk enumerator '" + c.enum_name + "::" + en.name +
                   "' duplicates value " + std::to_string(en.value) +
                   " of '" + it->second->name + "'",
               "on-disk enumerator values must be unique");
      }
    }
  }
}

// --- RC104: literal duplicating a named on-disk constant -------------------

void CheckConstantDrift(const Model& m, const Config& cfg, Emitter* e) {
  for (const std::string& name : cfg.on_disk_constants) {
    const ConstDef* def = nullptr;
    for (const ConstDef& cd : m.constants) {
      if (cd.name == name) {
        def = &cd;
        break;
      }
    }
    if (def == nullptr) continue;
    for (const SourceFile& sf : m.files) {
      if (!m.InProtocolScope(sf.path)) continue;
      bool references = false;
      for (const std::string& ln : sf.code) {
        if (FindWord(ln, name) != std::string::npos) {
          references = true;
          break;
        }
      }
      if (!references) continue;
      for (size_t i = 0; i < sf.code.size(); ++i) {
        const std::string& ln = sf.code[i];
        if (FindWord(ln, name) != std::string::npos) continue;
        // Scan for a standalone integer literal equal to the constant.
        for (size_t pos = 0; pos < ln.size(); ++pos) {
          if (ln[pos] < '0' || ln[pos] > '9') continue;
          if (pos > 0 && (IsIdentChar(ln[pos - 1]) || ln[pos - 1] == '.')) {
            while (pos + 1 < ln.size() && IsIdentChar(ln[pos + 1])) ++pos;
            continue;
          }
          char* end = nullptr;
          long long v = std::strtoll(ln.c_str() + pos, &end, 0);
          size_t len = static_cast<size_t>(end - (ln.c_str() + pos));
          if (len == 0) continue;
          size_t after = pos + len;
          if (after < ln.size() &&
              (IsIdentChar(ln[after]) || ln[after] == '.')) {
            pos = after;
            continue;
          }
          if (v == def->value) {
            e->Add("RC104", sf.path, static_cast<int>(i) + 1,
                   "integer literal " + std::to_string(def->value) +
                       " duplicates on-disk constant '" + name +
                       "' (defined at " + def->file + ":" +
                       std::to_string(def->line) +
                       ") in a file that also uses the symbol",
                   "spell it '" + name +
                       "' so a format change cannot half-apply");
            break;  // one finding per line
          }
          pos = after;
        }
      }
    }
  }
}

// --- RC201: every wire kind has a handler case in the registered files -----

void CheckHandlerCoverage(const Model& m, const Config& cfg, Emitter* e) {
  for (const EnumContract& c : cfg.enums) {
    if (c.handler_paths.empty()) continue;
    const EnumDef* def = m.FindEnum(c.enum_name);
    if (def == nullptr) continue;
    for (const Enumerator& en : def->enumerators) {
      bool handled = false;
      for (const EnumUse& u : m.uses) {
        if (u.kind == EnumUse::Kind::kCase && u.enum_name == c.enum_name &&
            u.enumerator == en.name &&
            InAnyScope(u.file, c.handler_paths)) {
          handled = true;
          break;
        }
      }
      if (handled) continue;
      e->Add("RC201", def->file, en.line,
             "message kind '" + c.enum_name + "::" + en.name +
                 "' has no handler: no case label in " +
                 Join(c.handler_paths, ", "),
             "add a case in the handler switch; today this kind falls "
             "into a default or is dropped on arrival");
    }
  }
}

// --- RC202: default: in a protocol-enum switch swallows messages -----------

void CheckSilentDefault(const Model& m, const Config& cfg, Emitter* e) {
  for (const EnumContract& c : cfg.enums) {
    if (!c.protocol) continue;
    for (const SwitchStmt& sw : m.switches) {
      if (sw.enum_name != c.enum_name || !sw.has_default) continue;
      e->Add("RC202", sw.file, sw.default_line,
             "'default:' in a switch over protocol enum '" + c.enum_name +
                 "' silently drops message kinds: a new kind added to the "
                 "wire enum is ignored here instead of failing closed",
             "enumerate every kind explicitly (count unexpected ones), or "
             "annotate '// rapicheck: default-ok (why)'");
    }
  }
}

// --- RC203: a request handler must be able to produce the paired reply -----

constexpr int kCallGraphDepth = 3;

bool ProducesEnumerator(const Model& m, int fn, std::string_view enum_name,
                        std::string_view enumerator) {
  for (const EnumUse& u : m.uses) {
    if (u.function_index == fn && u.kind == EnumUse::Kind::kProduce &&
        u.enum_name == enum_name && u.enumerator == enumerator) {
      return true;
    }
  }
  return false;
}

bool ReachesProducer(const Model& m, int start, std::string_view enum_name,
                     std::string_view enumerator) {
  std::set<int> visited;
  std::vector<int> frontier = {start};
  for (int depth = 0; depth <= kCallGraphDepth && !frontier.empty();
       ++depth) {
    std::vector<int> next;
    for (int fn : frontier) {
      if (!visited.insert(fn).second) continue;
      if (ProducesEnumerator(m, fn, enum_name, enumerator)) return true;
      for (const FuncEvent& ev : m.functions[fn].events) {
        if (ev.kind != FuncEvent::Kind::kCall) continue;
        for (int gi : m.FunctionsNamed(ev.name)) next.push_back(gi);
      }
    }
    frontier = std::move(next);
  }
  return false;
}

void CheckReplyReachability(const Model& m, const Config& cfg, Emitter* e) {
  for (const ReplyContract& rc : cfg.replies) {
    const EnumContract* contract = nullptr;
    for (const EnumContract& c : cfg.enums) {
      if (c.enum_name == rc.enum_name) contract = &c;
    }
    const EnumUse* first_site = nullptr;
    bool reachable = false;
    for (const EnumUse& u : m.uses) {
      if (u.kind != EnumUse::Kind::kCase || u.enum_name != rc.enum_name ||
          u.enumerator != rc.request || u.function_index < 0) {
        continue;
      }
      if (contract != nullptr && !contract->handler_paths.empty() &&
          !InAnyScope(u.file, contract->handler_paths)) {
        continue;
      }
      if (first_site == nullptr) first_site = &u;
      if (ReachesProducer(m, u.function_index, rc.enum_name, rc.reply)) {
        reachable = true;
        break;
      }
    }
    if (first_site == nullptr || reachable) continue;  // RC201 covers absent
    e->Add("RC203", first_site->file, first_site->line,
           "handler for '" + rc.enum_name + "::" + rc.request +
               "' can never produce the paired reply '" + rc.enum_name +
               "::" + rc.reply + "' (call graph searched to depth " +
               std::to_string(kCallGraphDepth) + ")",
           "send the reply on every handled path, or annotate "
           "'// rapicheck: handler-ok (why)'");
  }
}

// --- RC3xx: durability ordering --------------------------------------------

// Functions that reach a durability point: the base names themselves
// (WaitDurable, ...) plus, transitively, any function whose body calls a
// durable function.
std::vector<char> DurabilityClosure(const Model& m, const Config& cfg) {
  std::set<std::string> base(cfg.durability_calls.begin(),
                             cfg.durability_calls.end());
  std::vector<char> durable(m.functions.size(), 0);
  auto call_is_durable = [&](const FuncEvent& ev) {
    if (ev.kind != FuncEvent::Kind::kCall) return false;
    if (base.count(ev.name) != 0) return true;
    for (int gi : m.FunctionsNamed(ev.name)) {
      if (durable[gi] != 0) return true;
    }
    return false;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < m.functions.size(); ++i) {
      if (durable[i] != 0) continue;
      for (const FuncEvent& ev : m.functions[i].events) {
        if (call_is_durable(ev)) {
          durable[i] = 1;
          changed = true;
          break;
        }
      }
    }
  }
  return durable;
}

bool DurableCallAt(const Model& m, const Config& cfg,
                   const std::vector<char>& durable, const FuncEvent& ev) {
  if (ev.kind != FuncEvent::Kind::kCall) return false;
  for (const std::string& b : cfg.durability_calls) {
    if (ev.name == b) return true;
  }
  for (int gi : m.FunctionsNamed(ev.name)) {
    if (durable[gi] != 0) return true;
  }
  return false;
}

void CheckAckBeforeDurability(const Model& m, const Config& cfg,
                              const std::vector<char>& durable,
                              Emitter* e) {
  struct AckSite {
    int fn;
    int line;
    std::string what;
  };
  std::vector<AckSite> sites;
  for (size_t fi = 0; fi < m.functions.size(); ++fi) {
    const FunctionDef& f = m.functions[fi];
    const SourceFile* sf = m.FindFile(f.file);
    if (sf == nullptr) continue;
    for (int ln = f.line; ln <= f.end_line &&
                          ln <= static_cast<int>(sf->code.size());
         ++ln) {
      const std::string& code = sf->code[ln - 1];
      for (const std::string& marker : cfg.ack_line_markers) {
        if (code.find(marker) != std::string::npos) {
          sites.push_back({static_cast<int>(fi), ln, marker});
          break;
        }
      }
    }
  }
  for (const EnumUse& u : m.uses) {
    if (u.kind != EnumUse::Kind::kProduce || u.function_index < 0) continue;
    for (const EnumRef& ref : cfg.ack_producers) {
      if (u.enum_name == ref.enum_name && u.enumerator == ref.enumerator) {
        sites.push_back({u.function_index, u.line,
                         ref.enum_name + "::" + ref.enumerator});
      }
    }
  }
  for (const AckSite& site : sites) {
    const FunctionDef& f = m.functions[site.fn];
    bool durable_before = false;
    for (const FuncEvent& ev : f.events) {
      if (ev.line > site.line) break;
      if (DurableCallAt(m, cfg, durable, ev)) {
        durable_before = true;
        break;
      }
    }
    if (durable_before) continue;
    e->Add("RC301", f.file, site.line,
           "commit acknowledged ('" + site.what +
               "') with no durability point before it in '" + f.name +
               "': no direct or transitive " +
               Join(cfg.durability_calls, "/") +
               " call precedes this line",
           "await durability before acknowledging, or annotate "
           "'// rapicheck: ack-ok (why this path needs no flush)'");
  }
}

void CheckCommitRecordAwaited(const Model& m, const Config& cfg,
                              const std::vector<char>& durable,
                              Emitter* e) {
  if (cfg.commit_record_enum.empty()) return;
  for (size_t fi = 0; fi < m.functions.size(); ++fi) {
    const FunctionDef& f = m.functions[fi];
    int first_produce = 0;
    std::string kind;
    for (const EnumUse& u : m.uses) {
      if (u.function_index != static_cast<int>(fi) ||
          u.kind != EnumUse::Kind::kProduce ||
          u.enum_name != cfg.commit_record_enum) {
        continue;
      }
      if (std::find(cfg.commit_record_kinds.begin(),
                    cfg.commit_record_kinds.end(),
                    u.enumerator) == cfg.commit_record_kinds.end()) {
        continue;
      }
      if (first_produce == 0 || u.line < first_produce) {
        first_produce = u.line;
        kind = u.enumerator;
      }
    }
    if (first_produce == 0) continue;
    int last_append = 0;
    for (const FuncEvent& ev : f.events) {
      if (ev.kind != FuncEvent::Kind::kCall || ev.line < first_produce) {
        continue;
      }
      if (std::find(cfg.append_calls.begin(), cfg.append_calls.end(),
                    ev.name) != cfg.append_calls.end()) {
        last_append = std::max(last_append, ev.line);
      }
    }
    if (last_append == 0) continue;  // record built here, appended elsewhere
    bool awaited = false;
    for (const FuncEvent& ev : f.events) {
      if (ev.line <= last_append) continue;
      if (DurableCallAt(m, cfg, durable, ev)) {
        awaited = true;
        break;
      }
    }
    if (awaited) continue;
    e->Add("RC302", f.file, last_append,
           "a '" + cfg.commit_record_enum + "::" + kind +
               "' record is appended here but never awaited durable in '" +
               f.name + "'",
           "follow the append with " + Join(cfg.durability_calls, "/") +
           " before the outcome can be observed, or annotate "
           "'// rapicheck: ack-ok (why)'");
  }
}

// --- RC401: lock-order cycles ----------------------------------------------

struct LockEdge {
  std::string from;
  std::string to;
  std::string file;
  int line = 0;
  std::string via;  // "Database::Checkpoint" or "...Commit -> Acquire"
};

// Lock nodes a call to `name` may acquire, found by expanding every
// function with that unqualified name to kCallGraphDepth.
void CollectCalleeAcquisitions(const Model& m, int fn, int depth,
                               std::set<int>* visited,
                               std::set<std::string>* out) {
  if (!visited->insert(fn).second) return;
  for (const FuncEvent& ev : m.functions[fn].events) {
    if (ev.kind == FuncEvent::Kind::kAcquire) {
      out->insert(ev.name);
    } else if (depth > 0) {
      for (int gi : m.FunctionsNamed(ev.name)) {
        CollectCalleeAcquisitions(m, gi, depth - 1, visited, out);
      }
    }
  }
}

// Tarjan strongly-connected components over the lock graph.
class SccFinder {
 public:
  SccFinder(const std::vector<std::string>& nodes,
            const std::map<std::pair<std::string, std::string>, LockEdge>&
                edges) {
    for (size_t i = 0; i < nodes.size(); ++i) index_of_[nodes[i]] = i;
    adj_.resize(nodes.size());
    for (const auto& [key, edge] : edges) {
      adj_[index_of_[key.first]].push_back(index_of_[key.second]);
    }
    state_.resize(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (state_[i].index < 0) Strongconnect(i);
    }
  }

  // component id per node index; components with >= 2 members are cycles.
  const std::vector<int>& Component() const { return component_; }

 private:
  struct State {
    int index = -1;
    int lowlink = 0;
    bool on_stack = false;
  };

  void Strongconnect(size_t v) {
    state_[v].index = state_[v].lowlink = next_index_++;
    state_[v].on_stack = true;
    stack_.push_back(v);
    for (size_t w : adj_[v]) {
      if (state_[w].index < 0) {
        Strongconnect(w);
        state_[v].lowlink = std::min(state_[v].lowlink, state_[w].lowlink);
      } else if (state_[w].on_stack) {
        state_[v].lowlink = std::min(state_[v].lowlink, state_[w].index);
      }
    }
    if (state_[v].lowlink == state_[v].index) {
      if (component_.size() < state_.size()) {
        component_.resize(state_.size(), -1);
      }
      while (true) {
        size_t w = stack_.back();
        stack_.pop_back();
        state_[w].on_stack = false;
        component_[w] = next_component_;
        if (w == v) break;
      }
      ++next_component_;
    }
  }

  std::map<std::string, size_t> index_of_;
  std::vector<std::vector<size_t>> adj_;
  std::vector<State> state_;
  std::vector<size_t> stack_;
  std::vector<int> component_;
  int next_index_ = 0;
  int next_component_ = 0;
};

void CheckLockOrder(const Model& m, Emitter* e) {
  std::map<std::pair<std::string, std::string>, LockEdge> edges;
  std::map<std::string, std::set<std::string>> callee_acq_memo;
  auto callee_acquisitions =
      [&](const std::string& name) -> const std::set<std::string>& {
    auto it = callee_acq_memo.find(name);
    if (it != callee_acq_memo.end()) return it->second;
    std::set<std::string> acq;
    std::set<int> visited;
    for (int gi : m.FunctionsNamed(name)) {
      CollectCalleeAcquisitions(m, gi, kCallGraphDepth - 1, &visited, &acq);
    }
    return callee_acq_memo.emplace(name, std::move(acq)).first->second;
  };
  auto add_edge = [&](const std::string& from, const std::string& to,
                      const std::string& file, int line,
                      const std::string& via) {
    if (from == to) return;  // per-key managers re-enter by design
    edges.emplace(std::make_pair(from, to),
                  LockEdge{from, to, file, line, via});
  };

  for (const FunctionDef& f : m.functions) {
    struct Held {
      std::string node;
      int scope_top;  // RAII guard's scope id; -1 = held to function end
    };
    std::vector<Held> held;
    for (const FuncEvent& ev : f.events) {
      held.erase(std::remove_if(held.begin(), held.end(),
                                [&](const Held& h) {
                                  if (h.scope_top < 0) return false;
                                  return std::find(ev.scope_ids.begin(),
                                                   ev.scope_ids.end(),
                                                   h.scope_top) ==
                                         ev.scope_ids.end();
                                }),
                 held.end());
      if (ev.kind == FuncEvent::Kind::kAcquire) {
        for (const Held& h : held) {
          add_edge(h.node, ev.name, f.file, ev.line, f.name);
        }
        int scope_top = -1;
        if (ev.scoped_lock && !ev.scope_ids.empty()) {
          scope_top = ev.scope_ids.back();
        }
        held.push_back({ev.name, scope_top});
      } else if (!held.empty()) {
        for (const std::string& node : callee_acquisitions(ev.name)) {
          for (const Held& h : held) {
            add_edge(h.node, node, f.file, ev.line,
                     f.name + " -> " + ev.name);
          }
        }
      }
    }
  }

  std::set<std::string> node_set;
  for (const auto& [key, edge] : edges) {
    node_set.insert(key.first);
    node_set.insert(key.second);
  }
  std::vector<std::string> nodes(node_set.begin(), node_set.end());
  if (nodes.empty()) return;
  SccFinder scc(nodes, edges);
  std::map<std::string, int> comp_of;
  for (size_t i = 0; i < nodes.size(); ++i) {
    comp_of[nodes[i]] = scc.Component()[i];
  }
  std::map<int, std::vector<const LockEdge*>> cycle_edges;
  for (const auto& [key, edge] : edges) {
    if (comp_of[key.first] == comp_of[key.second]) {
      cycle_edges[comp_of[key.first]].push_back(&edge);
    }
  }
  for (const auto& [comp, members] : cycle_edges) {
    if (members.size() < 2) continue;  // no self-edges, so >=2 means cycle
    const LockEdge* anchor = members.front();
    for (const LockEdge* edge : members) {
      if (std::make_pair(edge->file, edge->line) <
          std::make_pair(anchor->file, anchor->line)) {
        anchor = edge;
      }
    }
    std::vector<std::string> parts;
    for (const LockEdge* edge : members) {
      parts.push_back(edge->from + " -> " + edge->to + " (" + edge->file +
                      ":" + std::to_string(edge->line) + " in " +
                      edge->via + ")");
    }
    e->Add("RC401", anchor->file, anchor->line,
           "lock-order cycle: " + Join(parts, "; "),
           "impose a single acquisition order for these locks, or "
           "annotate the intentional edge with "
           "'// rapicheck: lock-ok (why)'");
  }
}

}  // namespace

void Emitter::Add(std::string_view rule, const std::string& file, int line,
                  std::string message, std::string hint,
                  std::string_view tag) {
  const SourceFile* sf = model_.FindFile(file);
  if (sf != nullptr &&
      lintlib::PragmaSuppressed(*sf, line, tag.empty() ? TagFor(rule) : tag)) {
    return;
  }
  Finding f;
  f.rule = std::string(rule);
  f.severity = std::string(SeverityFor(rule));
  f.file = file;
  f.line = line;
  f.message = std::move(message);
  f.hint = std::move(hint);
  findings_.push_back(std::move(f));
}

Config DefaultConfig() {
  Config c;
  c.enums.push_back(
      {"LogRecordType", true, true, false, {"src/db/database.cc"}});
  c.enums.push_back({"MsgType",
                     true,
                     true,
                     true,
                     {"src/shard/shard_node.cc",
                      "src/shard/txn_coordinator.cc"}});
  c.enums.push_back(
      {"QueryAnswer", true, true, true, {"src/shard/shard_node.cc"}});
  c.enums.push_back({"PageType", true, false, false, {}});
  c.replies = {{"MsgType", "kPrepareReq", "kVote"},
               {"MsgType", "kExecuteReq", "kExecuteResp"},
               {"MsgType", "kDecision", "kDecisionAck"},
               {"MsgType", "kQuery", "kQueryResp"}};
  c.durability_calls = {"WaitDurable", "Force", "Flush", "Quiesce"};
  c.ack_line_markers = {"stats_.commits.Add", "stats_.prepares.Add"};
  c.ack_producers = {{"TxnOutcome", "kCommitted"}};
  c.commit_record_enum = "LogRecordType";
  c.commit_record_kinds = {"kCommit", "kPrepare"};
  c.append_calls = {"Append"};
  c.on_disk_constants = {"kRedoSlices"};
  return c;
}

const std::vector<lintlib::RuleInfo>& Rules() {
  static const std::vector<lintlib::RuleInfo> rules = {
      {"SL001", "wall-clock-or-entropy", "error",
       "ambient time/randomness source (system_clock, rand, random_device, "
       "time(), ...) outside the simulator clock/Rng"},
      {"SL002", "ambient-state", "error",
       "getenv or mutable static state in src/sim, src/rapilog, src/faults"},
      {"SL003", "unordered-iteration", "error",
       "iteration over an unordered_{map,set} member in src/ without a "
       "sorted snapshot"},
      {"SL004", "pointer-ordering", "error",
       "ordered container or comparator keyed by pointer value"},
      {"SL005", "raw-new-delete", "warning",
       "raw new/delete outside arena/device code"},
      {"SL006", "float-accumulation", "warning",
       "+=/-= on a float/double accumulator without Kahan or integer units"},
      {"SL007", "thread-primitives", "error",
       "std::thread/async/mutex (and friends) in src/ outside "
       "src/harness/parallel_runner"},
      {"SL008", "wire-byte-punning", "error",
       "reinterpret_cast or memcpy-through-&object in persistent/wire "
       "format directories outside the sanctioned codecs"},
      {"RC101", "switch-missing-case", "error",
       "no-default switch over a known enum missing enumerators"},
      {"RC102", "record-kind-unpaired", "error",
       "record/wire kind never produced or never consumed"},
      {"RC103", "on-disk-enum-values", "error",
       "on-disk enum without explicit unique enumerator values"},
      {"RC104", "on-disk-constant-drift", "warning",
       "integer literal duplicating a named on-disk constant"},
      {"RC201", "handler-coverage", "error",
       "wire message kind with no handler case in the registered files"},
      {"RC202", "silent-default-drop", "error",
       "default: in a protocol-enum switch silently drops message kinds"},
      {"RC203", "reply-unreachable", "error",
       "request handler that can never produce the paired reply"},
      {"RC301", "ack-before-durability", "error",
       "commit acknowledgement with no durability point before it"},
      {"RC302", "commit-record-not-awaited", "error",
       "commit/prepare record appended but never awaited durable"},
      {"RC401", "lock-order-cycle", "error",
       "cycle in the lock acquisition order graph"},
  };
  return rules;
}

std::vector<Finding> Analyze(const Model& model, const Config& config) {
  Emitter e(model);
  CheckDeterminism(model, &e);
  CheckSwitchCoverage(model, &e);
  CheckKindPairing(model, config, &e);
  CheckOnDiskEnumValues(model, config, &e);
  CheckConstantDrift(model, config, &e);
  CheckHandlerCoverage(model, config, &e);
  CheckSilentDefault(model, config, &e);
  CheckReplyReachability(model, config, &e);
  std::vector<char> durable = DurabilityClosure(model, config);
  CheckAckBeforeDurability(model, config, durable, &e);
  CheckCommitRecordAwaited(model, config, durable, &e);
  CheckLockOrder(model, &e);
  std::vector<Finding> findings = e.Take();
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return findings;
}

std::vector<Finding> AnalyzeSources(
    const std::vector<std::pair<std::string, std::string>>& path_contents,
    const Config& config) {
  std::vector<lintlib::SourceFile> files;
  files.reserve(path_contents.size());
  for (const auto& [path, contents] : path_contents) {
    files.push_back(lintlib::StripSource(path, contents));
  }
  return Analyze(BuildModel(std::move(files)), config);
}

}  // namespace rapicheck
