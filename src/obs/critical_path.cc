#include "src/obs/critical_path.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "src/sim/time.h"

namespace rlobs {

std::vector<SpanNode> CollectSpans(const SpanTracer& tracer, size_t last_n) {
  const std::vector<SpanTracer::Record>& records = tracer.records();
  std::vector<SpanNode> spans;
  std::map<uint64_t, size_t> open;  // span_id -> index into spans
  int64_t last_ns = 0;
  for (size_t i = records.size() - std::min(last_n, records.size());
       i < records.size(); ++i) {
    const SpanTracer::Record& r = records[i];
    last_ns = std::max(last_ns, r.at_ns);
    if (r.type == SpanTracer::EventType::kBegin) {
      open[r.span_id] = spans.size();
      spans.push_back(SpanNode{r.span_id, r.parent, r.at_ns, r.at_ns,
                               tracer.name(r.actor), tracer.name(r.kind)});
    } else if (r.type == SpanTracer::EventType::kEnd) {
      const auto it = open.find(r.span_id);
      if (it != open.end()) {
        spans[it->second].end_ns = r.at_ns;
        open.erase(it);
      }
    }
  }
  for (const auto& [id, index] : open) {
    spans[index].end_ns = last_ns;
  }
  return spans;
}

std::vector<size_t> ResolveRoots(const std::vector<SpanNode>& spans) {
  std::map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_id.emplace(spans[i].id, i);
  }
  std::vector<size_t> roots(spans.size(), SIZE_MAX);
  for (size_t i = 0; i < spans.size(); ++i) {
    // Climb until a span already resolved (a parent collected before its
    // children resolves in one hop) or one with no collected parent. A
    // climb longer than the span count has gone round a cycle.
    size_t j = i;
    for (size_t hops = 0; hops <= spans.size(); ++hops) {
      if (roots[j] != SIZE_MAX) {
        roots[i] = roots[j];
        break;
      }
      const auto it = spans[j].parent == 0 ? by_id.end()
                                           : by_id.find(spans[j].parent);
      if (it == by_id.end()) {
        roots[i] = j;
        break;
      }
      j = it->second;
    }
  }
  return roots;
}

namespace {

struct Walk {
  const std::vector<SpanNode>& spans;
  // parent id -> children indices, each list sorted by (end, begin, id) so
  // "latest-finishing child before the cursor" is a deterministic pick.
  std::map<uint64_t, std::vector<size_t>> children;

  explicit Walk(const std::vector<SpanNode>& s) : spans(s) {
    for (size_t i = 0; i < s.size(); ++i) {
      if (s[i].parent != 0) {
        children[s[i].parent].push_back(i);
      }
    }
    for (auto& [id, kids] : children) {
      std::sort(kids.begin(), kids.end(), [&s](size_t a, size_t b) {
        if (s[a].end_ns != s[b].end_ns) {
          return s[a].end_ns < s[b].end_ns;
        }
        if (s[a].begin_ns != s[b].begin_ns) {
          return s[a].begin_ns < s[b].begin_ns;
        }
        return s[a].id < s[b].id;
      });
    }
  }

};

}  // namespace

CriticalPathReport AnalyzeCriticalPaths(const std::vector<SpanNode>& spans) {
  Walk walk(spans);

  // A root is any span whose parent does not resolve (0, or opened under a
  // span the tracer never saw — e.g. tracing enabled mid-run).
  const std::vector<size_t> roots = ResolveRoots(spans);

  struct ClassAccum {
    uint64_t roots = 0;
    int64_t total_ns = 0;
    std::map<std::string, CriticalEdge> edges;
  };
  std::map<std::string, ClassAccum> classes;

  for (size_t r = 0; r < spans.size(); ++r) {
    if (roots[r] != r) {
      continue;
    }
    const SpanNode& root = spans[r];
    ClassAccum& acc = classes[root.kind];
    ++acc.roots;
    acc.total_ns += root.end_ns - root.begin_ns;

    const auto attribute = [&acc](const std::string& kind, int64_t self_ns) {
      CriticalEdge& edge = acc.edges[kind];
      edge.kind = kind;
      ++edge.count;
      edge.total_ns += self_ns;
    };

    // Backward walk with an explicit ancestor stack: consuming a child moves
    // the cursor to that child's end, and once the child's subtree is spent
    // the walk RESUMES at the parent (earlier siblings — e.g. the slowest
    // prepare behind the decision fanout — still get their share). `next`
    // caps the sibling scan at the previously picked child so a
    // zero-duration child is consumed exactly once and the walk always
    // terminates.
    struct Frame {
      const SpanNode* node;
      size_t next;  // exclusive upper bound into the sorted child list
    };
    const auto kid_count = [&walk](uint64_t id) {
      const auto it = walk.children.find(id);
      return it == walk.children.end() ? size_t{0} : it->second.size();
    };
    std::vector<Frame> stack;
    stack.push_back(Frame{&root, kid_count(root.id)});
    int64_t cursor = root.end_ns;
    while (!stack.empty()) {
      Frame& top = stack.back();
      // Latest-finishing unconsumed child with end <= cursor.
      size_t pick = SIZE_MAX;
      const auto it = walk.children.find(top.node->id);
      if (it != walk.children.end()) {
        const std::vector<size_t>& kids = it->second;
        for (size_t i = std::min(top.next, kids.size()); i-- > 0;) {
          if (spans[kids[i]].end_ns <= cursor) {
            pick = i;
            break;
          }
        }
      }
      if (pick == SIZE_MAX) {
        // Nothing left below the cursor: the node itself ran this stretch.
        attribute(top.node->kind,
                  std::max<int64_t>(0, cursor - top.node->begin_ns));
        cursor = std::min(cursor, top.node->begin_ns);
        stack.pop_back();
        continue;
      }
      const size_t child = it->second[pick];
      attribute(top.node->kind,
                std::max<int64_t>(0, cursor - spans[child].end_ns));
      top.next = pick;
      cursor = spans[child].end_ns;
      stack.push_back(Frame{&spans[child], kid_count(spans[child].id)});
    }
  }

  CriticalPathReport report;
  for (auto& [kind, acc] : classes) {
    CriticalPathClass cls;
    cls.root_kind = kind;
    cls.roots = acc.roots;
    cls.total_ns = acc.total_ns;
    for (auto& [edge_kind, edge] : acc.edges) {
      cls.edges.push_back(std::move(edge));
    }
    std::sort(cls.edges.begin(), cls.edges.end(),
              [](const CriticalEdge& a, const CriticalEdge& b) {
                if (a.total_ns != b.total_ns) {
                  return a.total_ns > b.total_ns;
                }
                return a.kind < b.kind;
              });
    report.classes.push_back(std::move(cls));
  }
  return report;
}

std::string FormatCriticalPath(const CriticalPathReport& report) {
  std::string out;
  char line[256];
  if (report.classes.empty()) {
    return "critical path: no spans recorded\n";
  }
  for (const CriticalPathClass& cls : report.classes) {
    std::snprintf(
        line, sizeof(line), "critical path: %s (%llu root%s, total %s)\n",
        cls.root_kind.c_str(), static_cast<unsigned long long>(cls.roots),
        cls.roots == 1 ? "" : "s",
        rlsim::ToString(rlsim::Duration::Nanos(cls.total_ns)).c_str());
    out += line;
    for (const CriticalEdge& edge : cls.edges) {
      const double share =
          cls.total_ns > 0
              ? 100.0 * static_cast<double>(edge.total_ns) /
                    static_cast<double>(cls.total_ns)
              : 0.0;
      const int64_t mean_ns =
          edge.count > 0 ? edge.total_ns / static_cast<int64_t>(edge.count)
                         : 0;
      std::snprintf(
          line, sizeof(line), "  %-22s %6llu  %10s  %5.1f%%  mean %s\n",
          edge.kind.c_str(), static_cast<unsigned long long>(edge.count),
          rlsim::ToString(rlsim::Duration::Nanos(edge.total_ns)).c_str(),
          share,
          rlsim::ToString(rlsim::Duration::Nanos(mean_ns)).c_str());
      out += line;
    }
  }
  return out;
}

std::string CriticalPathJson(const CriticalPathReport& report) {
  std::string out = "{\"critical_path\":[";
  char buf[256];
  for (size_t c = 0; c < report.classes.size(); ++c) {
    const CriticalPathClass& cls = report.classes[c];
    if (c > 0) {
      out += ',';
    }
    std::snprintf(buf, sizeof(buf),
                  "{\"class\":\"%s\",\"roots\":%llu,\"total_ns\":%lld,"
                  "\"edges\":[",
                  cls.root_kind.c_str(),
                  static_cast<unsigned long long>(cls.roots),
                  static_cast<long long>(cls.total_ns));
    out += buf;
    for (size_t e = 0; e < cls.edges.size(); ++e) {
      const CriticalEdge& edge = cls.edges[e];
      if (e > 0) {
        out += ',';
      }
      const double share =
          cls.total_ns > 0
              ? static_cast<double>(edge.total_ns) /
                    static_cast<double>(cls.total_ns)
              : 0.0;
      const int64_t mean_ns =
          edge.count > 0 ? edge.total_ns / static_cast<int64_t>(edge.count)
                         : 0;
      std::snprintf(buf, sizeof(buf),
                    "{\"kind\":\"%s\",\"count\":%llu,\"total_ns\":%lld,"
                    "\"mean_ns\":%lld,\"share\":%.4f}",
                    edge.kind.c_str(),
                    static_cast<unsigned long long>(edge.count),
                    static_cast<long long>(edge.total_ns),
                    static_cast<long long>(mean_ns), share);
      out += buf;
    }
    out += "]}";
  }
  out += "]}\n";
  return out;
}

}  // namespace rlobs
