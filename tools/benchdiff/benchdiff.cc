#include "tools/benchdiff/benchdiff.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

namespace benchdiff {

namespace {

// Scans for `"key":` from `from` and extracts the value token (strings come
// back unquoted). The writer emits no escapes inside names/units, so plain
// quote scanning is exact. Returns npos on failure, else the position just
// past the value.
size_t ExtractAfter(std::string_view text, size_t from, std::string_view key,
                    std::string* out) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const size_t at = text.find(needle, from);
  if (at == std::string_view::npos) {
    return std::string_view::npos;
  }
  size_t pos = at + needle.size();
  if (pos >= text.size()) {
    return std::string_view::npos;
  }
  if (text[pos] == '"') {
    const size_t end = text.find('"', pos + 1);
    if (end == std::string_view::npos) {
      return std::string_view::npos;
    }
    *out = std::string(text.substr(pos + 1, end - pos - 1));
    return end + 1;
  }
  size_t end = pos;
  while (end < text.size() && text[end] != ',' && text[end] != '}' &&
         text[end] != ']') {
    ++end;
  }
  if (end == pos) {
    return std::string_view::npos;
  }
  *out = std::string(text.substr(pos, end - pos));
  return end;
}

}  // namespace

bool ParseBenchJson(std::string_view text, std::vector<Metric>* out,
                    std::string* error) {
  out->clear();
  const size_t metrics_at = text.find("\"metrics\":[");
  if (metrics_at == std::string_view::npos) {
    *error = "no \"metrics\" array";
    return false;
  }
  // The metrics array is flat {..},{..} objects; entries after its closing
  // ']' (AddRaw blocks) must not be parsed as metrics. Find the matching
  // bracket by depth — raw blocks can nest arrays, metric objects cannot.
  size_t pos = metrics_at + std::string_view("\"metrics\":[").size();
  size_t depth = 1;
  size_t array_end = std::string_view::npos;
  bool in_string = false;
  for (size_t i = pos; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '[') {
      ++depth;
    } else if (c == ']') {
      if (--depth == 0) {
        array_end = i;
        break;
      }
    }
  }
  if (array_end == std::string_view::npos) {
    *error = "unterminated \"metrics\" array";
    return false;
  }
  const std::string_view body = text.substr(pos, array_end - pos);

  size_t cursor = 0;
  while (cursor < body.size()) {
    Metric m;
    std::string value_text;
    const size_t after_name = ExtractAfter(body, cursor, "name", &m.name);
    if (after_name == std::string_view::npos) {
      break;  // no further metric objects
    }
    const size_t after_value =
        ExtractAfter(body, after_name, "value", &value_text);
    const size_t after_unit = ExtractAfter(body, after_name, "unit", &m.unit);
    if (after_value == std::string_view::npos ||
        after_unit == std::string_view::npos) {
      *error = "metric \"" + m.name + "\" lacks value or unit";
      return false;
    }
    char* parse_end = nullptr;
    m.value = std::strtod(value_text.c_str(), &parse_end);
    if (parse_end == value_text.c_str()) {
      *error = "metric \"" + m.name + "\" has unparseable value \"" +
               value_text + "\"";
      return false;
    }
    out->push_back(std::move(m));
    cursor = after_unit > after_value ? after_unit : after_value;
  }
  if (out->empty()) {
    *error = "\"metrics\" array has no entries";
    return false;
  }
  return true;
}

bool ParseTolerance(std::string_view arg, DiffOptions* opts,
                    std::string* error) {
  const size_t eq = arg.find('=');
  const std::string value(eq == std::string_view::npos ? arg
                                                       : arg.substr(eq + 1));
  char* end = nullptr;
  const double tol = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size() ||
      !std::isfinite(tol) || tol < 0 || eq == 0) {
    *error = "--tolerance wants X or NAME=X with X a finite number >= 0, "
             "got '" + std::string(arg) + "'";
    return false;
  }
  if (eq == std::string_view::npos) {
    opts->default_tolerance = tol;
  } else {
    opts->overrides[std::string(arg.substr(0, eq))] = tol;
  }
  return true;
}

bool CheckOverrides(const DiffOptions& opts,
                    const std::vector<Metric>& baseline, std::string* error) {
  std::set<std::string_view> names;
  for (const Metric& m : baseline) {
    names.insert(m.name);
  }
  for (const auto& [name, tol] : opts.overrides) {
    if (names.count(name) == 0) {
      *error = "--tolerance " + name + "=... names no baseline metric";
      return false;
    }
  }
  return true;
}

std::vector<lintlib::Finding> DiffBench(const std::vector<Metric>& baseline,
                                        const std::vector<Metric>& fresh,
                                        const DiffOptions& opts,
                                        const std::string& fresh_path) {
  std::vector<lintlib::Finding> findings;
  std::map<std::string, const Metric*> fresh_by_name;
  for (const Metric& m : fresh) {
    fresh_by_name.emplace(m.name, &m);
  }
  std::set<std::string> baseline_names;

  const auto tolerance_for = [&](const std::string& name) {
    const auto it = opts.overrides.find(name);
    return it != opts.overrides.end() ? it->second : opts.default_tolerance;
  };
  const auto add = [&](const char* rule, const char* severity,
                       std::string message, std::string hint) {
    lintlib::Finding f;
    f.rule = rule;
    f.severity = severity;
    f.file = fresh_path;
    f.line = 0;
    f.message = std::move(message);
    f.hint = std::move(hint);
    findings.push_back(std::move(f));
  };

  for (const Metric& base : baseline) {
    baseline_names.insert(base.name);
    const auto it = fresh_by_name.find(base.name);
    if (it == fresh_by_name.end()) {
      add("BD002", "warning", "metric " + base.name + " missing from fresh run",
          "regenerate the baseline if the bench dropped this metric on "
          "purpose");
      continue;
    }
    const Metric& got = *it->second;
    if (got.unit != base.unit) {
      add("BD001", "error",
          "metric " + base.name + " changed unit: " + base.unit + " -> " +
              got.unit,
          "unit changes need a deliberate baseline update");
      continue;
    }
    const double tol = tolerance_for(base.name);
    const double band = tol * std::fabs(base.value);
    const double delta = std::fabs(got.value - base.value);
    if (delta > band) {
      char buf[192];
      std::snprintf(buf, sizeof(buf),
                    "metric %s out of band: baseline %g, fresh %g %s "
                    "(|delta| %g > %.0f%% band %g)",
                    base.name.c_str(), base.value, got.value,
                    base.unit.c_str(), delta, tol * 100.0, band);
      add("BD001", "error", buf,
          "a real regression, or the baseline needs a deliberate refresh");
    }
  }
  for (const Metric& got : fresh) {
    if (baseline_names.count(got.name) == 0) {
      add("BD003", "warning",
          "new metric " + got.name + " (" + got.unit + ") not in baseline",
          "regenerate the baseline to start tracking it");
    }
  }
  return findings;
}

bool HasErrors(const std::vector<lintlib::Finding>& findings) {
  for (const lintlib::Finding& f : findings) {
    if (f.severity == "error") {
      return true;
    }
  }
  return false;
}

}  // namespace benchdiff
