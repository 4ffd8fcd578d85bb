// lintlib: the scanning + reporting core shared by this repo's source
// checker (tools/rapicheck) and its bench regression gate
// (tools/benchdiff).
//
// rapicheck owns its rules; what lives here is everything around them: the
// lexical strip pass that blanks comments and literal contents (so rules
// never fire on prose or fixture snippets), pragma harvesting, the
// deterministic file walk, and the text/JSON/GitHub-annotation output
// formats that benchdiff reuses for its findings.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace lintlib {

struct Finding {
  std::string rule;      // "SL003", "RC201"
  std::string severity;  // "error" | "warning"
  std::string file;
  int line = 0;  // 1-based
  std::string message;
  std::string hint;  // fix-it suggestion
};

struct RuleInfo {
  const char* id;
  const char* name;
  const char* severity;
  const char* summary;
};

// The comment prefix that introduces suppression tags:
// `// rapicheck: ordered-ok (why order cannot matter)`.
inline constexpr std::string_view kPragmaMarker = "rapicheck:";

// A source file after lexical preprocessing. `code[i]` is line i with
// comments and string/char literal *contents* blanked (quotes preserved).
// `pragmas[i]` holds the `rapicheck: tag1 tag2` tags found on line i.
struct SourceFile {
  std::string path;
  std::vector<std::string> raw;
  std::vector<std::string> code;
  std::vector<std::vector<std::string>> pragmas;
};

// Tags stop at a parenthesized justification.
SourceFile StripSource(std::string path, std::string_view contents);

// True if a pragma with `tag` suppresses a finding on `line` (1-based):
// same line, or reachable by walking up through the contiguous block of
// comment-only lines directly above it.
bool PragmaSuppressed(const SourceFile& file, int line, std::string_view tag);

// --- Shared text helpers ---------------------------------------------------

bool IsIdentChar(char c);
// True if `text[pos..]` starts with `word` at identifier boundaries.
bool WordAt(std::string_view text, size_t pos, std::string_view word);
// First boundary occurrence of `word` in `text`, or npos.
size_t FindWord(std::string_view text, std::string_view word, size_t from = 0);
// True if `path` starts with directory prefix `dir` ("src/sim" matches
// "src/sim/foo.h" and "src/sim" itself, not "src/simx.h"). "./" accepted.
bool UnderDir(std::string_view path, std::string_view dir);
// True if `dir` appears as a directory run anywhere in `path`: lets rules
// scoped to "src/shard" also apply inside fixture trees like
// "tests/rapicheck_fixtures/rc201/src/shard/node.cc".
bool ContainsDir(std::string_view path, std::string_view dir);
// One past the matching '>' for the '<' at text[pos], or npos.
size_t SkipAngles(std::string_view text, size_t pos);
std::string_view TrimView(std::string_view s);
// Final identifier of an expression like "table_", "this->cache_".
std::string_view TailIdentifier(std::string_view expr);

// --- Output ---------------------------------------------------------------

std::string FormatText(const std::vector<Finding>& findings);
std::string FormatJson(const std::vector<Finding>& findings);
// GitHub Actions workflow-command annotations (::error file=...); `tool`
// prefixes the annotation title ("rapicheck SL003").
std::string FormatGithub(const std::vector<Finding>& findings,
                         std::string_view tool);

// --- File discovery -------------------------------------------------------

// Deterministic file discovery: recursive *.h/*.cc/*.cpp/*.hpp walk,
// lexicographically sorted, `build` and dot-directories skipped. On error
// sets *error and returns empty.
std::vector<std::string> CollectFiles(const std::vector<std::string>& paths,
                                      std::string* error);
bool ReadFile(const std::string& path, std::string* out);

}  // namespace lintlib
