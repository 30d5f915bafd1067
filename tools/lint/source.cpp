// Source loading and tokenization shared by every pass: the three
// aligned text views (raw / code-only / comment-only), include
// extraction, module resolution and allow-marker parsing.
#include <algorithm>
#include <cctype>
#include <fstream>
#include <regex>
#include <sstream>

#include "lint.hpp"

namespace witag::lint {
namespace {

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (const char c : text) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  lines.push_back(current);
  return lines;
}

/// Splits a path into components on '/'.
std::vector<std::string> components(const std::string& generic) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : generic) {
    if (c == '/') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

}  // namespace

std::string strip_view(const std::string& src, bool keep_comments) {
  std::string out;
  out.reserve(src.size());
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  // `keep_comments` inverts the blanking: comment text survives and
  // everything else (code, literals, the // and /* markers) is blanked.
  const auto code_char = [&](char c) { return keep_comments ? ' ' : c; };
  const auto comment_char = [&](char c) { return keep_comments ? c : ' '; };
  const auto ident_char = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
  };
  // Inside a numeric literal, where ' is a digit separator (1'000,
  // 0xF022'0001), not the start of a character literal. A digit that
  // continues an identifier (u8'x', x1) does not start one.
  bool in_number = false;
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    if (state != State::kCode) {
      in_number = false;
    } else if (in_number) {
      in_number = ident_char(c) || c == '.' || c == '\'';
    } else {
      in_number = std::isdigit(static_cast<unsigned char>(c)) != 0 &&
                  (i == 0 || !ident_char(src[i - 1]));
    }
    switch (state) {
      case State::kCode:
        if (c == '\'' && in_number) {
          out += code_char(c);
        } else if (c == '/' && next == '/') {
          state = State::kLineComment;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out += "  ";
          ++i;
        } else if (c == '"') {
          state = State::kString;
          out += ' ';
        } else if (c == '\'') {
          state = State::kChar;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : code_char(c);
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          out += '\n';
        } else {
          out += comment_char(c);
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : comment_char(c);
        }
        break;
      case State::kString:
      case State::kChar: {
        const char quote = state == State::kString ? '"' : '\'';
        if (c == '\\') {
          out += "  ";
          ++i;
        } else if (c == quote) {
          state = State::kCode;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      }
    }
  }
  return out;
}

bool SourceFile::line_allows(std::size_t line, const std::string& rule) const {
  if (line == 0 || line > comment.size()) return false;
  const std::string& text = comment[line - 1];
  static const std::string kPrefix = "witag-lint: allow(";
  std::size_t pos = text.find(kPrefix);
  while (pos != std::string::npos) {
    const std::size_t open = pos + kPrefix.size();
    const std::size_t close = text.find(')', open);
    if (close == std::string::npos) break;
    std::size_t start = open;
    while (start < close) {
      std::size_t end = text.find(',', start);
      if (end == std::string::npos || end > close) end = close;
      std::size_t a = start;
      std::size_t b = end;
      while (a < b && std::isspace(static_cast<unsigned char>(text[a]))) ++a;
      while (b > a && std::isspace(static_cast<unsigned char>(text[b - 1]))) {
        --b;
      }
      if (text.compare(a, b - a, rule) == 0) return true;
      start = end + 1;
    }
    pos = text.find(kPrefix, close);
  }
  return false;
}

std::optional<SourceFile> load_source(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string raw_text = buf.str();

  SourceFile f;
  f.path = path;
  f.display = path.generic_string();
  f.raw = split_lines(raw_text);
  f.code = split_lines(strip_view(raw_text, /*keep_comments=*/false));
  f.comment = split_lines(strip_view(raw_text, /*keep_comments=*/true));
  f.is_header = path.extension() == ".hpp";

  // The target of a quoted include is a string literal, blanked in the
  // code view — so the directive is *detected* on the code view (which
  // kills commented-out includes) and *extracted* from the raw line.
  static const std::regex kIncludeStart(R"(^\s*#\s*include\b)");
  static const std::regex kInclude(
      R"re(^\s*#\s*include\s*(?:"([^"]+)"|<([^>]+)>))re");
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    std::smatch m;
    if (std::regex_search(f.code[i], kIncludeStart) &&
        std::regex_search(f.raw[i], m, kInclude)) {
      SourceFile::Include inc;
      inc.line = i + 1;
      if (m[1].matched) {
        inc.target = m[1].str();
        inc.angled = false;
      } else {
        inc.target = m[2].str();
        inc.angled = true;
      }
      f.includes.push_back(inc);
    }
  }

  // Module: the component after the *last* "src" path component, so
  // fixture trees shaped like fixtures/bad/src/witag/x.hpp resolve
  // exactly like the real src/ tree.
  const std::vector<std::string> parts = components(f.display);
  for (std::size_t i = parts.size(); i-- > 0;) {
    if (parts[i] != "src") continue;
    // Need at least src/<module>/<file>.
    if (i + 2 < parts.size()) {
      f.module = parts[i + 1];
      std::string rel;
      for (std::size_t j = i + 1; j < parts.size(); ++j) {
        if (!rel.empty()) rel += '/';
        rel += parts[j];
      }
      f.src_rel = rel;
    }
    break;
  }
  return f;
}

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace witag::lint
