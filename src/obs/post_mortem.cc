#include "src/obs/post_mortem.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/obs/critical_path.h"

namespace rlobs {

namespace {

using Record = SpanTracer::Record;

// Records in the window: the newest ones, capped by `last_n` and `since`.
size_t WindowSize(const SpanTracer& tracer, size_t last_n, uint64_t since) {
  return static_cast<size_t>(
      std::min<uint64_t>({last_n, tracer.records().size(),
                          tracer.total_records() - since}));
}

// One line, e.g. "  +1.250ms      I  log-disk/medium-write arg=123456".
std::string FormatRecord(const SpanTracer& tracer, const Record& r) {
  std::string time = rlsim::ToString(rlsim::TimePoint::FromNanos(r.at_ns));
  time.resize(std::max<size_t>(time.size(), 14), ' ');
  std::string out = "  " + time + " " + "IBE"[static_cast<int>(r.type)] +
                    "  " + tracer.name(r.actor) + "/" + tracer.name(r.kind);
  if (r.span_id != 0) {
    out += " span=" + std::to_string(r.span_id);
  }
  if (r.parent != 0) {
    out += " parent=" + std::to_string(r.parent);
  }
  return out + " arg=" + std::to_string(r.arg) + "\n";
}

}  // namespace

std::string DumpRecords(const SpanTracer& tracer, size_t last_n,
                        uint64_t since) {
  const size_t held = WindowSize(tracer, last_n, since);
  std::string out = "flight recorder: last " + std::to_string(held) + " of " +
                    std::to_string(tracer.total_records() - since) +
                    " events\n";
  const std::vector<Record>& records = tracer.records();
  for (size_t i = records.size() - held; i < records.size(); ++i) {
    out += FormatRecord(tracer, records[i]);
  }
  return out;
}

std::string DumpCausalChain(const SpanTracer& tracer, int64_t arg,
                            size_t last_n, uint64_t since) {
  const size_t held = WindowSize(tracer, last_n, since);
  const std::vector<SpanNode> spans = CollectSpans(tracer, held);
  const std::vector<size_t> roots = ResolveRoots(spans);
  // A tree is named by its root, or by the parent the root was opened under
  // when that parent's begin is older than the window: siblings whose common
  // parent fell out still share a tree. A span whose begin fell out names
  // its own.
  std::map<uint64_t, uint64_t> tree_of;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (roots[i] != SIZE_MAX) {
      const SpanNode& root = spans[roots[i]];
      tree_of[spans[i].id] = root.parent != 0 ? root.parent : root.id;
    }
  }
  const auto tree = [&tree_of](uint64_t id) {
    const auto it = tree_of.find(id);
    return it == tree_of.end() ? id : it->second;
  };
  const std::vector<Record>& records = tracer.records();
  const size_t first = records.size() - held;
  std::set<uint64_t> trees;
  for (size_t i = first; i < records.size(); ++i) {
    const Record& r = records[i];
    if (r.type == SpanTracer::EventType::kBegin && r.arg == arg) {
      trees.insert(tree(r.span_id));
    }
  }
  if (trees.empty()) {
    return "";
  }
  std::string out = "causal chain for arg=" + std::to_string(arg) + " (" +
                    std::to_string(trees.size()) + " tree" +
                    (trees.size() == 1 ? "" : "s") + " in ring):\n";
  for (size_t i = first; i < records.size(); ++i) {
    const Record& r = records[i];
    if (r.span_id != 0 && trees.contains(tree(r.span_id))) {
      out += FormatRecord(tracer, r);
    }
  }
  return out;
}

}  // namespace rlobs
