#include "tools/tracecheck/tracecheck.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace tracecheck {

namespace {

constexpr std::string_view kHeader =
    "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
constexpr std::string_view kFooter = "]}";

void Add(Report* report, const char* rule, int line, std::string message) {
  report->problems.push_back(Problem{rule, line, std::move(message)});
}

// Finds `"key":` in `line` and returns the raw value text that follows
// (string values come back without their quotes). Substring search is enough
// for the exporter's fixed vocabulary: the keys tracecheck extracts never
// appear inside emitted string values ("name" is only searched at its first,
// top-level occurrence; args.name is reached via the "args":{"name" prefix).
bool ExtractField(std::string_view line, std::string_view key,
                  std::string* out) {
  std::string needle = "\"";
  needle.append(key);
  needle.append("\":");
  const size_t at = line.find(needle);
  if (at == std::string_view::npos) {
    return false;
  }
  size_t pos = at + needle.size();
  if (pos >= line.size()) {
    return false;
  }
  if (line[pos] == '"') {  // string value
    ++pos;
    std::string value;
    while (pos < line.size() && line[pos] != '"') {
      if (line[pos] == '\\' && pos + 1 < line.size()) {
        ++pos;
      }
      value += line[pos++];
    }
    if (pos >= line.size()) {
      return false;  // unterminated string
    }
    *out = value;
    return true;
  }
  // Number (or other bare token): runs until a JSON delimiter.
  size_t end = pos;
  while (end < line.size() && line[end] != ',' && line[end] != '}' &&
         line[end] != ']') {
    ++end;
  }
  if (end == pos) {
    return false;
  }
  *out = std::string(line.substr(pos, end - pos));
  return true;
}

bool ParseInt(std::string_view text, int64_t* out) {
  if (text.empty()) {
    return false;
  }
  size_t i = 0;
  bool negative = false;
  if (text[0] == '-') {
    negative = true;
    i = 1;
    if (text.size() == 1) {
      return false;
    }
  }
  int64_t value = 0;
  for (; i < text.size(); ++i) {
    if (text[i] < '0' || text[i] > '9') {
      return false;
    }
    value = value * 10 + (text[i] - '0');
  }
  *out = negative ? -value : value;
  return true;
}

}  // namespace

bool ParseMicrosToNanos(std::string_view text, int64_t* out_ns) {
  const size_t dot = text.find('.');
  if (dot == std::string_view::npos) {
    int64_t micros = 0;
    if (!ParseInt(text, &micros)) {
      return false;
    }
    *out_ns = micros * 1000;
    return true;
  }
  int64_t micros = 0;
  if (!ParseInt(text.substr(0, dot), &micros)) {
    return false;
  }
  std::string_view frac = text.substr(dot + 1);
  if (frac.empty() || frac.size() > 3) {
    return false;
  }
  int64_t frac_ns = 0;
  if (!ParseInt(frac, &frac_ns) || frac_ns < 0) {
    return false;
  }
  for (size_t i = frac.size(); i < 3; ++i) {
    frac_ns *= 10;
  }
  const bool negative = micros < 0 || (!text.empty() && text[0] == '-');
  *out_ns = negative ? micros * 1000 - frac_ns : micros * 1000 + frac_ns;
  return true;
}

Report CheckTraceText(std::string_view text, std::string_view path) {
  Report report;

  // Split into lines (the exporter emits exactly one event per line).
  std::vector<std::string_view> lines;
  size_t start = 0;
  while (start <= text.size()) {
    const size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) {
      if (start < text.size()) {
        lines.push_back(text.substr(start));
      }
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }

  if (lines.empty() || lines.front() != kHeader) {
    Add(&report, "TC001", 1,
        std::string(path) + ": missing trace header " + std::string(kHeader));
    return report;
  }
  size_t last = lines.size();
  while (last > 0 && lines[last - 1].empty()) {
    --last;
  }
  if (last == 0 || lines[last - 1] != kFooter) {
    Add(&report, "TC001", static_cast<int>(last),
        std::string(path) + ": missing trace footer \"]}\"");
    return report;
  }

  std::set<int64_t> meta_pids;
  std::map<int64_t, int> used_pids;  // pid -> first line using it
  std::map<std::pair<int64_t, int64_t>, int64_t> lane_end_ns;
  int64_t last_ts_ns = -1;

  // Parent links for TC006/TC007, collected as spans stream past.
  struct SpanLink {
    int line = 0;
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root
  };
  std::vector<SpanLink> links;
  std::set<uint64_t> span_ids;

  for (size_t i = 1; i + 1 < last; ++i) {
    const int line_no = static_cast<int>(i) + 1;
    std::string_view line = lines[i];
    if (!line.empty() && line.back() == ',') {
      line.remove_suffix(1);
    }
    if (line.size() < 2 || line.front() != '{' || line.back() != '}') {
      Add(&report, "TC001", line_no, "event line is not a {...} object");
      continue;
    }

    std::string ph;
    if (!ExtractField(line, "ph", &ph)) {
      Add(&report, "TC002", line_no, "event has no \"ph\" phase field");
      continue;
    }
    std::string pid_text;
    int64_t pid = 0;
    if (!ExtractField(line, "pid", &pid_text) || !ParseInt(pid_text, &pid)) {
      Add(&report, "TC002", line_no, "event has no integer \"pid\"");
      continue;
    }

    if (ph == "M") {
      std::string name;
      if (!ExtractField(line, "name", &name) || name != "process_name") {
        Add(&report, "TC002", line_no,
            "metadata event is not a process_name record");
        continue;
      }
      std::string actor;
      if (line.find("\"args\":{\"name\":") == std::string_view::npos ||
          !ExtractField(line.substr(line.find("\"args\":")), "name", &actor) ||
          actor.empty()) {
        Add(&report, "TC002", line_no,
            "process_name metadata has no args.name");
        continue;
      }
      meta_pids.insert(pid);
      ++report.metadata;
      continue;
    }

    if (ph != "X" && ph != "i") {
      Add(&report, "TC002", line_no, "unknown phase \"" + ph + "\"");
      continue;
    }
    used_pids.emplace(pid, line_no);

    std::string name;
    if (!ExtractField(line, "name", &name) || name.empty()) {
      Add(&report, "TC002", line_no, "event has no \"name\"");
      continue;
    }
    std::string tid_text;
    int64_t tid = 0;
    if (!ExtractField(line, "tid", &tid_text) || !ParseInt(tid_text, &tid)) {
      Add(&report, "TC002", line_no, "event has no integer \"tid\"");
      continue;
    }
    std::string ts_text;
    int64_t ts_ns = 0;
    if (!ExtractField(line, "ts", &ts_text) ||
        !ParseMicrosToNanos(ts_text, &ts_ns) || ts_ns < 0) {
      Add(&report, "TC002", line_no,
          "event has no parseable non-negative \"ts\"");
      continue;
    }

    if (ts_ns < last_ts_ns) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "timestamp goes backwards (%lld ns after %lld ns)",
                    static_cast<long long>(ts_ns),
                    static_cast<long long>(last_ts_ns));
      Add(&report, "TC003", line_no, buf);
    }
    last_ts_ns = ts_ns;
    ++report.events;

    if (ph == "i") {
      std::string scope;
      if (!ExtractField(line, "s", &scope) || scope.empty()) {
        Add(&report, "TC002", line_no, "instant event has no \"s\" scope");
        continue;
      }
      ++report.instants;
      continue;
    }

    // ph == "X"
    std::string dur_text;
    int64_t dur_ns = 0;
    if (!ExtractField(line, "dur", &dur_text) ||
        !ParseMicrosToNanos(dur_text, &dur_ns) || dur_ns < 0) {
      Add(&report, "TC002", line_no,
          "complete event has no parseable non-negative \"dur\"");
      continue;
    }
    const auto lane = std::make_pair(pid, tid);
    const auto it = lane_end_ns.find(lane);
    if (it != lane_end_ns.end() && ts_ns < it->second) {
      char buf[128];
      std::snprintf(
          buf, sizeof(buf),
          "span on pid %lld tid %lld begins at %lld ns before the lane's "
          "previous span ended at %lld ns",
          static_cast<long long>(pid), static_cast<long long>(tid),
          static_cast<long long>(ts_ns), static_cast<long long>(it->second));
      Add(&report, "TC004", line_no, buf);
    }
    lane_end_ns[lane] = ts_ns + dur_ns;
    ++report.spans;

    // Parent links are optional (hand-built fixtures omit them), but when a
    // span carries them they must form a well-founded forest — checked after
    // the whole file is read, since a parent legitimately appears later in
    // the file than its remote child (it ends later).
    std::string sid_text;
    int64_t sid = 0;
    if (ExtractField(line, "span_id", &sid_text) && ParseInt(sid_text, &sid) &&
        sid > 0) {
      span_ids.insert(static_cast<uint64_t>(sid));
      std::string parent_text;
      int64_t parent = 0;
      if (ExtractField(line, "parent", &parent_text) &&
          ParseInt(parent_text, &parent) && parent > 0) {
        links.push_back(SpanLink{line_no, static_cast<uint64_t>(sid),
                                 static_cast<uint64_t>(parent)});
      }
    }
  }

  // TC006: every parent resolves within this file.
  std::map<uint64_t, uint64_t> parent_of;
  std::map<uint64_t, int> link_line;
  for (const SpanLink& link : links) {
    if (span_ids.find(link.parent) == span_ids.end()) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "span %llu's parent %llu is not a span in this trace",
                    static_cast<unsigned long long>(link.id),
                    static_cast<unsigned long long>(link.parent));
      Add(&report, "TC006", link.line, buf);
      continue;
    }
    parent_of[link.id] = link.parent;
    link_line.emplace(link.id, link.line);
  }

  // TC007: parent chains terminate. Nodes proven to reach a root are cached
  // so the sweep stays linear; a chain that revisits itself is reported once,
  // at the span that closed the cycle.
  std::set<uint64_t> reaches_root;
  for (const SpanLink& link : links) {
    std::vector<uint64_t> path;
    std::set<uint64_t> on_path;
    uint64_t at = link.id;
    bool cyclic = false;
    while (parent_of.count(at) > 0 && reaches_root.count(at) == 0) {
      if (!on_path.insert(at).second) {
        cyclic = true;
        break;
      }
      path.push_back(at);
      at = parent_of[at];
    }
    for (const uint64_t id : path) {
      reaches_root.insert(id);  // cycle members too: report each cycle once
    }
    if (cyclic) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "span %llu's parent chain cycles back through span %llu",
                    static_cast<unsigned long long>(link.id),
                    static_cast<unsigned long long>(at));
      Add(&report, "TC007", link.line, buf);
    }
  }

  for (const auto& [pid, line_no] : used_pids) {
    if (meta_pids.find(pid) == meta_pids.end()) {
      char buf[80];
      std::snprintf(buf, sizeof(buf),
                    "pid %lld has no process_name metadata",
                    static_cast<long long>(pid));
      Add(&report, "TC005", line_no, buf);
    }
  }
  report.pids = static_cast<int64_t>(used_pids.size());
  return report;
}

Report CheckTraceFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    Report report;
    Add(&report, "TC001", 0, "cannot read " + path);
    return report;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  return CheckTraceText(text, path);
}

std::vector<rlobs::SpanNode> ExtractSpans(std::string_view text) {
  std::vector<rlobs::SpanNode> spans;
  std::map<int64_t, std::string> actor_of_pid;

  size_t start = 0;
  // Two streaming concerns, one pass: process_name metadata always precedes
  // the events of its pid (the exporter emits all metadata first).
  while (start <= text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) {
      nl = text.size();
    }
    std::string_view line = text.substr(start, nl - start);
    start = nl + 1;
    if (!line.empty() && line.back() == ',') {
      line.remove_suffix(1);
    }

    std::string ph;
    std::string pid_text;
    int64_t pid = 0;
    if (!ExtractField(line, "ph", &ph) ||
        !ExtractField(line, "pid", &pid_text) || !ParseInt(pid_text, &pid)) {
      continue;
    }
    if (ph == "M") {
      std::string actor;
      const size_t args_at = line.find("\"args\":");
      if (args_at != std::string_view::npos &&
          ExtractField(line.substr(args_at), "name", &actor)) {
        actor_of_pid.emplace(pid, actor);
      }
      continue;
    }
    if (ph != "X") {
      continue;
    }

    std::string name;
    std::string ts_text;
    std::string dur_text;
    std::string sid_text;
    int64_t ts_ns = 0;
    int64_t dur_ns = 0;
    int64_t sid = 0;
    if (!ExtractField(line, "name", &name) ||
        !ExtractField(line, "ts", &ts_text) ||
        !ParseMicrosToNanos(ts_text, &ts_ns) ||
        !ExtractField(line, "dur", &dur_text) ||
        !ParseMicrosToNanos(dur_text, &dur_ns) ||
        !ExtractField(line, "span_id", &sid_text) ||
        !ParseInt(sid_text, &sid) || sid <= 0) {
      continue;
    }
    std::string parent_text;
    int64_t parent = 0;
    if (ExtractField(line, "parent", &parent_text)) {
      ParseInt(parent_text, &parent);
    }
    rlobs::SpanNode node;
    node.id = static_cast<uint64_t>(sid);
    node.parent = parent > 0 ? static_cast<uint64_t>(parent) : 0;
    node.begin_ns = ts_ns;
    node.end_ns = ts_ns + dur_ns;
    const auto actor_it = actor_of_pid.find(pid);
    node.actor = actor_it != actor_of_pid.end() ? actor_it->second
                                                : "pid-" + pid_text;
    node.kind = name;
    spans.push_back(std::move(node));
  }
  return spans;
}

std::string FormatReport(const Report& report, std::string_view path) {
  std::string out;
  char buf[160];
  for (const Problem& p : report.problems) {
    std::snprintf(buf, sizeof(buf), "%s %s:%d: %s\n", p.rule.c_str(),
                  std::string(path).c_str(), p.line, p.message.c_str());
    out += buf;
  }
  std::snprintf(
      buf, sizeof(buf),
      "%s: %lld events (%lld spans, %lld instants, %lld pids), %zu problems\n",
      std::string(path).c_str(), static_cast<long long>(report.events),
      static_cast<long long>(report.spans),
      static_cast<long long>(report.instants),
      static_cast<long long>(report.pids), report.problems.size());
  out += buf;
  return out;
}

}  // namespace tracecheck
