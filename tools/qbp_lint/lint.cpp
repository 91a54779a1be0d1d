#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace qbp::lint {

namespace {

// ------------------------------------------------------------- tokenizer

enum class TokenKind { kIdent, kNumber, kString, kPunct };

struct Token {
  TokenKind kind;
  std::string text;
  int line = 0;
};

/// A `// qbp-lint: allow(rule)` comment: the rules it names, the line it
/// sits on, and whether the comment was the only thing on that line (in
/// which case it covers the next line instead of its own).
struct Suppression {
  std::set<std::string> rules;
  bool own_line = false;
};

struct TokenizedFile {
  std::vector<Token> tokens;
  std::map<int, Suppression> suppressions;  // keyed by comment line
};

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Extract every allow(...) rule from one comment's text.
void parse_suppression(const std::string& comment, int line, bool own_line,
                       std::map<int, Suppression>& out) {
  const std::size_t tag = comment.find("qbp-lint:");
  if (tag == std::string::npos) return;
  std::size_t cursor = tag;
  while ((cursor = comment.find("allow(", cursor)) != std::string::npos) {
    cursor += 6;
    const std::size_t close = comment.find(')', cursor);
    if (close == std::string::npos) return;
    Suppression& entry = out[line];
    entry.rules.insert(comment.substr(cursor, close - cursor));
    entry.own_line = own_line;
    cursor = close;
  }
}

/// Comment- and string-stripping tokenizer.  Emits `::` and `->` as single
/// punctuation tokens, collapses string/char literals to one token, skips
/// preprocessor directives (so `#include <unordered_map>` never reads as a
/// declaration) and records qbp-lint suppression comments.
TokenizedFile tokenize(const std::string& text) {
  TokenizedFile out;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = text.size();
  // Tracks whether any token was emitted on the current line: a comment on
  // a line of its own suppresses the *next* line.
  bool line_has_code = false;

  const auto newline = [&] {
    ++line;
    line_has_code = false;
  };

  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      newline();
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    // Preprocessor directive: skip to end of line (honoring continuations).
    if (c == '#' && !line_has_code) {
      while (i < n && text[i] != '\n') {
        if (text[i] == '\\' && i + 1 < n && text[i + 1] == '\n') {
          newline();
          ++i;
        }
        ++i;
      }
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      const std::size_t start = i;
      while (i < n && text[i] != '\n') ++i;
      parse_suppression(text.substr(start, i - start), line, !line_has_code,
                        out.suppressions);
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      const std::size_t start = i;
      const int start_line = line;
      const bool own_line = !line_has_code;
      i += 2;
      while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) {
        if (text[i] == '\n') newline();
        ++i;
      }
      i = std::min(n, i + 2);
      parse_suppression(text.substr(start, i - start), start_line, own_line,
                        out.suppressions);
      continue;
    }
    // Raw string literal.
    if (c == 'R' && i + 1 < n && text[i + 1] == '"') {
      std::size_t delim_end = i + 2;
      while (delim_end < n && text[delim_end] != '(') ++delim_end;
      const std::string closer =
          ")" + text.substr(i + 2, delim_end - (i + 2)) + "\"";
      std::size_t end = text.find(closer, delim_end);
      end = end == std::string::npos ? n : end + closer.size();
      for (std::size_t k = i; k < end; ++k) {
        if (text[k] == '\n') newline();
      }
      out.tokens.push_back({TokenKind::kString, "\"\"", line});
      line_has_code = true;
      i = end;
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      const char quote = c;
      ++i;
      while (i < n && text[i] != quote) {
        if (text[i] == '\\') ++i;
        if (i < n && text[i] == '\n') newline();
        ++i;
      }
      ++i;
      out.tokens.push_back({TokenKind::kString, std::string(1, quote), line});
      line_has_code = true;
      continue;
    }
    if (ident_start(c)) {
      const std::size_t start = i;
      while (i < n && ident_char(text[i])) ++i;
      out.tokens.push_back(
          {TokenKind::kIdent, text.substr(start, i - start), line});
      line_has_code = true;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      const std::size_t start = i;
      while (i < n && (ident_char(text[i]) || text[i] == '.')) ++i;
      out.tokens.push_back(
          {TokenKind::kNumber, text.substr(start, i - start), line});
      line_has_code = true;
      continue;
    }
    // Punctuation; `::` and `->` matter to the rules, fuse them.
    if (c == ':' && i + 1 < n && text[i + 1] == ':') {
      out.tokens.push_back({TokenKind::kPunct, "::", line});
      i += 2;
    } else if (c == '-' && i + 1 < n && text[i + 1] == '>') {
      out.tokens.push_back({TokenKind::kPunct, "->", line});
      i += 2;
    } else {
      out.tokens.push_back({TokenKind::kPunct, std::string(1, c), line});
      ++i;
    }
    line_has_code = true;
  }
  return out;
}

// ------------------------------------------------------------------ rules

const std::vector<RuleInfo> kRules = {
    {"raw-assert",
     "use QBP_CHECK/QBP_DCHECK (util/check.hpp) instead of assert()"},
    {"raw-thread",
     "std::thread/std::jthread/std::async: solves run serially; portfolio "
     "and server threads carry an allow comment giving the reason"},
    {"raw-rng",
     "rand()/srand()/std::random_device/drand48 outside util/rng breaks "
     "reproducibility"},
    {"unordered-iter",
     "iterating an unordered container yields implementation-defined order; "
     "iterate a sorted view or switch container"},
    {"unordered-reduce",
     "std::reduce/std::transform_reduce accumulates floating point in "
     "unspecified order"},
    {"dangling-span",
     "std::span bound to a by-value accessor temporary dangles at the end "
     "of the statement"},
};

/// Accessors that return by value; binding a span to their result dangles.
/// Netlist::sizes() used to belong here until it was fixed to return a
/// reference -- QhatMatrix::omega() legitimately computes its vector.
const std::set<std::string> kByValueAccessors = {"omega"};

bool path_contains(const std::string& path, const char* needle) {
  std::string normalized = path;
  std::replace(normalized.begin(), normalized.end(), '\\', '/');
  return normalized.find(needle) != std::string::npos;
}

/// Directory exemptions: the one sanctioned home for each primitive.
bool rule_exempt(const std::string& rule, const std::string& path) {
  if (rule == "raw-rng") return path_contains(path, "util/rng");
  return false;
}

bool is_suppressed(const TokenizedFile& file, const std::string& rule,
                   int line) {
  if (const auto same = file.suppressions.find(line);
      same != file.suppressions.end() && same->second.rules.count(rule) != 0) {
    return true;
  }
  // A comment-only line covers the next line.
  if (const auto above = file.suppressions.find(line - 1);
      above != file.suppressions.end() && above->second.own_line &&
      above->second.rules.count(rule) != 0) {
    return true;
  }
  return false;
}

struct Linter {
  const std::vector<SourceFile>& files;
  std::vector<TokenizedFile> tokenized;
  /// Variable/member names declared anywhere in the scanned set with an
  /// unordered container type (pass 1; enables cross-file header/cpp
  /// detection in pass 2).
  std::set<std::string> unordered_names;
  std::vector<Finding> findings;

  explicit Linter(const std::vector<SourceFile>& input) : files(input) {
    tokenized.reserve(files.size());
    for (const SourceFile& file : files) tokenized.push_back(tokenize(file.contents));
  }

  void report(std::size_t file_index, const std::string& rule, int line,
              std::string message) {
    const std::string& path = files[file_index].path;
    if (rule_exempt(rule, path)) return;
    if (is_suppressed(tokenized[file_index], rule, line)) return;
    findings.push_back({path, line, rule, std::move(message)});
  }

  // Pass 1: collect names declared with an unordered container type.  The
  // shape matched is `unordered_xxx < ...balanced... > [&] name`, which
  // covers members, locals and parameters in this codebase's style.
  void collect_unordered_names() {
    static const std::set<std::string> kUnordered = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    for (const TokenizedFile& file : tokenized) {
      const auto& tokens = file.tokens;
      for (std::size_t t = 0; t + 1 < tokens.size(); ++t) {
        if (tokens[t].kind != TokenKind::kIdent ||
            kUnordered.count(tokens[t].text) == 0 ||
            tokens[t + 1].text != "<") {
          continue;
        }
        std::size_t cursor = t + 1;
        int depth = 0;
        while (cursor < tokens.size()) {
          if (tokens[cursor].text == "<") ++depth;
          if (tokens[cursor].text == ">") {
            --depth;
            if (depth == 0) break;
          }
          ++cursor;
        }
        if (cursor == tokens.size()) continue;
        ++cursor;                                            // past `>`
        while (cursor < tokens.size() && (tokens[cursor].text == "&" ||
                                          tokens[cursor].text == "*" ||
                                          tokens[cursor].text == "const")) {
          ++cursor;
        }
        if (cursor < tokens.size() &&
            tokens[cursor].kind == TokenKind::kIdent) {
          unordered_names.insert(tokens[cursor].text);
        }
      }
    }
  }

  void lint_file(std::size_t file_index) {
    const auto& tokens = tokenized[file_index].tokens;

    const auto text_at = [&](std::size_t t) -> const std::string& {
      static const std::string empty;
      return t < tokens.size() ? tokens[t].text : empty;
    };

    for (std::size_t t = 0; t < tokens.size(); ++t) {
      const Token& token = tokens[t];
      if (token.kind != TokenKind::kIdent) continue;
      const bool member_access =
          t > 0 && (tokens[t - 1].text == "." || tokens[t - 1].text == "->");

      // raw-assert: a call to `assert` that is not a member/namespace
      // qualified name of something else.
      if (token.text == "assert" && text_at(t + 1) == "(" && !member_access) {
        report(file_index, "raw-assert", token.line,
               "raw assert(); use QBP_CHECK (always-on boundary) or "
               "QBP_DCHECK (debug-only invariant) from util/check.hpp");
      }

      // raw-thread: std::thread / std::jthread / std::async, except static
      // member access like std::thread::hardware_concurrency().
      if (token.text == "std" && text_at(t + 1) == "::") {
        const std::string& name = text_at(t + 2);
        if ((name == "thread" || name == "jthread") &&
            text_at(t + 3) != "::") {
          report(file_index, "raw-thread", token.line,
                 "std::" + name +
                     ": a solve runs on its caller's thread; only portfolio "
                     "and server threads exist, each with an allow comment "
                     "giving the reason");
        }
        if (name == "async") {
          report(file_index, "raw-thread", token.line,
                 "std::async: a solve runs on its caller's thread; only "
                 "portfolio and server threads exist, each with an allow "
                 "comment giving the reason");
        }
        if (name == "random_device") {
          report(file_index, "raw-rng", token.line,
                 "std::random_device is platform-seeded; derive streams "
                 "from util/rng's seeded SplitMix instead");
        }
        if (name == "reduce" || name == "transform_reduce") {
          report(file_index, "unordered-reduce", token.line,
                 "std::" + name +
                     " accumulates in unspecified order; use "
                     "std::accumulate (strictly left to right)");
        }
      }

      // raw-rng: C library randomness.
      if (!member_access && text_at(t + 1) == "(" &&
          (token.text == "rand" || token.text == "srand" ||
           token.text == "drand48" || token.text == "srand48")) {
        report(file_index, "raw-rng", token.line,
               token.text + "() is not reproducible; use util/rng");
      }

      // unordered-iter: `name.begin()` / `name.cbegin()` on a known
      // unordered container variable.
      if (member_access &&
          (token.text == "begin" || token.text == "cbegin") &&
          text_at(t + 1) == "(" && t >= 2 &&
          tokens[t - 2].kind == TokenKind::kIdent &&
          unordered_names.count(tokens[t - 2].text) != 0) {
        report(file_index, "unordered-iter", token.line,
               "iteration over unordered container '" + tokens[t - 2].text +
                   "' has implementation-defined order");
      }

      // unordered-iter: range-for whose range expression names a known
      // unordered container variable.
      if (token.text == "for" && text_at(t + 1) == "(" && !member_access) {
        std::size_t cursor = t + 1;
        int depth = 0;
        std::size_t colon = 0;
        while (cursor < tokens.size()) {
          const std::string& text = tokens[cursor].text;
          if (text == "(") ++depth;
          if (text == ")") {
            --depth;
            if (depth == 0) break;
          }
          if (text == ":" && depth == 1 && colon == 0) colon = cursor;
          ++cursor;
        }
        if (colon != 0 && cursor < tokens.size()) {
          for (std::size_t r = colon + 1; r < cursor; ++r) {
            if (tokens[r].kind == TokenKind::kIdent &&
                unordered_names.count(tokens[r].text) != 0) {
              report(file_index, "unordered-iter", tokens[r].line,
                     "range-for over unordered container '" + tokens[r].text +
                         "' has implementation-defined order");
              break;
            }
          }
        }
      }

      // dangling-span: a statement that declares a span and initializes it
      // from a by-value accessor call (`... span ... = ... .omega() ...;`).
      if (token.text == "span") {
        std::size_t cursor = t + 1;
        std::size_t init = 0;  // first `=` / `{` after the declared name
        int angle = 0;
        while (cursor < tokens.size() && tokens[cursor].text != ";") {
          const std::string& text = tokens[cursor].text;
          if (text == "<") ++angle;
          if (text == ">") --angle;
          if (angle == 0 && (text == "=" || text == "{") && init == 0) {
            init = cursor;
          }
          if (init != 0 && (text == "." || text == "->") &&
              cursor + 2 < tokens.size() &&
              kByValueAccessors.count(tokens[cursor + 1].text) != 0 &&
              tokens[cursor + 2].text == "(") {
            report(file_index, "dangling-span", tokens[cursor + 1].line,
                   "std::span bound to the temporary returned by '" +
                       tokens[cursor + 1].text +
                       "()'; copy into a named vector first");
            break;
          }
          ++cursor;
        }
      }
    }
  }

  std::vector<Finding> lint() {
    collect_unordered_names();
    for (std::size_t f = 0; f < files.size(); ++f) lint_file(f);
    std::sort(findings.begin(), findings.end(),
              [](const Finding& a, const Finding& b) {
                if (a.file != b.file) return a.file < b.file;
                if (a.line != b.line) return a.line < b.line;
                return a.rule < b.rule;
              });
    return std::move(findings);
  }
};

bool has_cpp_extension(const std::filesystem::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" ||
         ext == ".h" || ext == ".hxx" || ext == ".inl";
}

void json_escape(std::ostringstream& out, const std::string& text) {
  for (const char c : text) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default: out << c;
    }
  }
}

}  // namespace

const std::vector<RuleInfo>& rules() { return kRules; }

std::vector<Finding> lint_files(const std::vector<SourceFile>& files) {
  return Linter(files).lint();
}

std::vector<Finding> run(const std::vector<std::string>& paths,
                         std::string& error) {
  namespace fs = std::filesystem;
  std::vector<std::string> sources;
  for (const std::string& path : paths) {
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      for (auto it = fs::recursive_directory_iterator(path, ec);
           !ec && it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_regular_file() && has_cpp_extension(it->path())) {
          sources.push_back(it->path().generic_string());
        }
      }
    } else if (fs::is_regular_file(path, ec)) {
      sources.push_back(path);
    } else {
      error = "qbp_lint: cannot read '" + path + "'";
      return {};
    }
  }
  std::sort(sources.begin(), sources.end());

  std::vector<SourceFile> files;
  files.reserve(sources.size());
  for (const std::string& source : sources) {
    std::ifstream in(source, std::ios::binary);
    if (!in) {
      error = "qbp_lint: cannot open '" + source + "'";
      return {};
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    files.push_back({source, buffer.str()});
  }
  return lint_files(files);
}

std::string to_json(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    if (i != 0) out << ",";
    out << "\n  {\"file\":\"";
    json_escape(out, findings[i].file);
    out << "\",\"line\":" << findings[i].line << ",\"rule\":\""
        << findings[i].rule << "\",\"message\":\"";
    json_escape(out, findings[i].message);
    out << "\"}";
  }
  out << (findings.empty() ? "]" : "\n]");
  out << "\n";
  return out.str();
}

}  // namespace qbp::lint
