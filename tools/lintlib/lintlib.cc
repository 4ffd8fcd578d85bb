#include "tools/lintlib/lintlib.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace lintlib {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool WordAt(std::string_view text, size_t pos, std::string_view word) {
  if (pos + word.size() > text.size()) return false;
  if (text.substr(pos, word.size()) != word) return false;
  if (pos > 0 && IsIdentChar(text[pos - 1])) return false;
  const size_t end = pos + word.size();
  if (end < text.size() && IsIdentChar(text[end])) return false;
  return true;
}

size_t FindWord(std::string_view text, std::string_view word, size_t from) {
  for (size_t pos = text.find(word, from); pos != std::string_view::npos;
       pos = text.find(word, pos + 1)) {
    if (WordAt(text, pos, word)) return pos;
  }
  return std::string_view::npos;
}

bool UnderDir(std::string_view path, std::string_view dir) {
  // Accept both "src/sim/..." and "./src/sim/...".
  if (path.substr(0, 2) == "./") path.remove_prefix(2);
  if (path.substr(0, dir.size()) != dir) return false;
  return path.size() == dir.size() || path[dir.size()] == '/';
}

bool ContainsDir(std::string_view path, std::string_view dir) {
  if (path.substr(0, 2) == "./") path.remove_prefix(2);
  for (size_t pos = path.find(dir); pos != std::string_view::npos;
       pos = path.find(dir, pos + 1)) {
    const bool left_ok = pos == 0 || path[pos - 1] == '/';
    const size_t end = pos + dir.size();
    const bool right_ok = end == path.size() || path[end] == '/';
    if (left_ok && right_ok) return true;
  }
  return false;
}

size_t SkipAngles(std::string_view text, size_t pos) {
  int depth = 0;
  for (size_t i = pos; i < text.size(); ++i) {
    if (text[i] == '<') ++depth;
    if (text[i] == '>') {
      --depth;
      if (depth == 0) return i + 1;
    }
  }
  return std::string_view::npos;
}

std::string_view TrimView(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

std::string_view TailIdentifier(std::string_view expr) {
  expr = TrimView(expr);
  size_t end = expr.size();
  while (end > 0 && IsIdentChar(expr[end - 1])) --end;
  return expr.substr(end);
}

SourceFile StripSource(std::string path, std::string_view contents) {
  SourceFile out;
  out.path = std::move(path);

  // Split into raw lines first (keeps \r out of the code view).
  size_t start = 0;
  while (start <= contents.size()) {
    size_t nl = contents.find('\n', start);
    if (nl == std::string_view::npos) {
      if (start < contents.size()) {
        out.raw.emplace_back(contents.substr(start));
      }
      break;
    }
    std::string_view line = contents.substr(start, nl - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    out.raw.emplace_back(line);
    start = nl + 1;
  }

  // Lexical pass: blank comment and literal contents, carrying block-comment
  // state across lines. Pragmas are harvested from comment text.
  bool in_block_comment = false;
  for (const std::string& rawline : out.raw) {
    std::string code;
    code.reserve(rawline.size());
    std::vector<std::string> tags;
    std::string comment_text;
    for (size_t i = 0; i < rawline.size();) {
      const char c = rawline[i];
      if (in_block_comment) {
        if (c == '*' && i + 1 < rawline.size() && rawline[i + 1] == '/') {
          in_block_comment = false;
          i += 2;
        } else {
          comment_text.push_back(c);
          ++i;
        }
        continue;
      }
      if (c == '/' && i + 1 < rawline.size() && rawline[i + 1] == '/') {
        comment_text.append(rawline.substr(i + 2));
        break;  // rest of line is comment
      }
      if (c == '/' && i + 1 < rawline.size() && rawline[i + 1] == '*') {
        in_block_comment = true;
        i += 2;
        continue;
      }
      if (c == 'R' && i + 1 < rawline.size() && rawline[i + 1] == '"') {
        // Raw string literal: skip to the closing )delim" — for the common
        // single-line case; multi-line raw strings blank to end of line and
        // the next lines are handled as code (acceptable for this repo).
        const size_t open_paren = rawline.find('(', i + 2);
        if (open_paren != std::string::npos) {
          std::string delim = ")";
          delim.append(rawline, i + 2, open_paren - (i + 2));
          delim.push_back('"');
          const size_t close = rawline.find(delim, open_paren);
          code.append("\"\"");
          if (close != std::string::npos) {
            i = close + delim.size();
          } else {
            i = rawline.size();
          }
          continue;
        }
      }
      if (c == '"' || c == '\'') {
        const char quote = c;
        code.push_back(quote);
        ++i;
        while (i < rawline.size()) {
          if (rawline[i] == '\\') {
            i += 2;
            continue;
          }
          if (rawline[i] == quote) {
            ++i;
            break;
          }
          ++i;
        }
        code.push_back(quote);
        continue;
      }
      code.push_back(c);
      ++i;
    }
    // Harvest `rapicheck: tag1 tag2` from the comment text.
    const size_t mark = comment_text.find(kPragmaMarker);
    if (mark != std::string::npos) {
      size_t p = mark + kPragmaMarker.size();
      while (p < comment_text.size()) {
        while (p < comment_text.size() &&
               (comment_text[p] == ' ' || comment_text[p] == ',')) {
          ++p;
        }
        size_t end = p;
        while (end < comment_text.size() &&
               (std::isalnum(static_cast<unsigned char>(comment_text[end])) !=
                    0 ||
                comment_text[end] == '-')) {
          ++end;
        }
        if (end == p) break;
        tags.push_back(comment_text.substr(p, end - p));
        p = end;
        // Tags stop at the parenthesized justification.
        if (p < comment_text.size() && comment_text[p] == '(') break;
      }
    }
    out.code.push_back(std::move(code));
    out.pragmas.push_back(std::move(tags));
  }
  return out;
}

bool PragmaSuppressed(const SourceFile& file, int line, std::string_view tag) {
  for (int ln = line; ln >= 1; --ln) {
    if (ln <= static_cast<int>(file.pragmas.size())) {
      for (const std::string& t : file.pragmas[ln - 1]) {
        if (t == tag) return true;
      }
    }
    if (ln == line) continue;  // always step to the line above the finding
    // Keep walking only while the line is comment-only (stripped code is
    // blank but the raw line is not).
    const std::string_view code = TrimView(file.code[ln - 1]);
    const std::string_view raw = TrimView(file.raw[ln - 1]);
    if (!code.empty() || raw.empty()) break;
  }
  return false;
}

// --- Output ---------------------------------------------------------------

std::string FormatText(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
           f.severity + ": " + f.message + "\n";
    if (!f.hint.empty()) {
      out += "    fix: " + f.hint + "\n";
    }
  }
  return out;
}

namespace {
std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}
}  // namespace

std::string FormatJson(const std::vector<Finding>& findings) {
  std::string out = "{\"findings\":[";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i > 0) out += ",";
    out += "{\"rule\":\"" + JsonEscape(f.rule) + "\",\"severity\":\"" +
           JsonEscape(f.severity) + "\",\"file\":\"" + JsonEscape(f.file) +
           "\",\"line\":" + std::to_string(f.line) + ",\"message\":\"" +
           JsonEscape(f.message) + "\",\"hint\":\"" + JsonEscape(f.hint) +
           "\"}";
  }
  out += "],\"total\":" + std::to_string(findings.size()) + "}\n";
  return out;
}

std::string FormatGithub(const std::vector<Finding>& findings,
                         std::string_view tool) {
  std::string out;
  for (const Finding& f : findings) {
    out += std::string("::") + (f.severity == "error" ? "error" : "warning") +
           " file=" + f.file + ",line=" + std::to_string(f.line) +
           ",title=" + std::string(tool) + " " + f.rule + "::" + f.message +
           " — " + f.hint + "\n";
  }
  return out;
}

// --- File discovery -------------------------------------------------------

namespace {

namespace fs = std::filesystem;

bool IsSourceFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h" || ext == ".cpp" || ext == ".hpp";
}

}  // namespace

std::vector<std::string> CollectFiles(const std::vector<std::string>& paths,
                                      std::string* error) {
  std::vector<std::string> files;
  for (const std::string& path : paths) {
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      for (fs::recursive_directory_iterator it(path, ec), end;
           it != end && !ec; it.increment(ec)) {
        const fs::path& p = it->path();
        const std::string name = p.filename().string();
        if (it->is_directory() &&
            (name == "build" || name.substr(0, 1) == ".")) {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && IsSourceFile(p)) {
          files.push_back(p.generic_string());
        }
      }
      if (ec) {
        *error = "cannot walk " + path + ": " + ec.message();
        return {};
      }
    } else if (fs::is_regular_file(path, ec)) {
      files.push_back(fs::path(path).generic_string());
    } else {
      *error = "no such file or directory: " + path;
      return {};
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::stringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

}  // namespace lintlib
