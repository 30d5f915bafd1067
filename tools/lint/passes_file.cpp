// Per-file passes: the line-oriented determinism/style rules.
//
// These are the original witag_lint rules (determinism, unordered-iter,
// pragma-once, namespace-comment, raw-literal, hot-alloc, hot-lookup,
// simd-intrinsic, simd-unaligned) plus allow-marker validation
// (allow-unknown). Rule semantics are unchanged except:
//  * namespace-comment now reports each unannotated closing brace
//    individually (with the namespace's name), which is what makes the
//    --fix rewrite possible;
//  * unordered-iter additionally flags iterator-based accumulation
//    (std::accumulate over an unordered container's range) feeding
//    merge/CSV paths, part of the determinism dataflow audit.
#include <cctype>
#include <regex>
#include <set>
#include <string>

#include "lint.hpp"

namespace witag::lint {
namespace {

/// Determinism applies to simulation sources: src/ outside obs/ and
/// runner/, which legitimately read wall clocks (tracing, worker pools).
bool determinism_applies(const std::string& path) {
  if (path.find("src/") == std::string::npos) return false;
  if (path.find("src/obs/") != std::string::npos) return false;
  if (path.find("src/runner/") != std::string::npos) return false;
  return true;
}

/// Hot-alloc applies to the files holding the per-step decode loops
/// and the city simulator's event loop, where the zero-alloc contract
/// is load-bearing for throughput (pooled calendar nodes in sim/).
bool hot_alloc_applies(const std::string& path) {
  return path.find("phy/viterbi.cpp") != std::string::npos ||
         path.find("phy/ofdm.cpp") != std::string::npos ||
         path.find("sim/event_queue.cpp") != std::string::npos ||
         path.find("sim/city_run.cpp") != std::string::npos;
}

/// Hot-lookup adds the session exchange loop: its per-round work is
/// not allocation-free like decode, but a per-round registry lookup
/// still costs a hash+probe that the WITAG_* macros hoist for free.
bool hot_lookup_applies(const std::string& path) {
  return hot_alloc_applies(path) ||
         path.find("witag/session.cpp") != std::string::npos;
}

/// Simd-intrinsic applies everywhere *except* the dispatch kernel files
/// (src/phy/simd.cpp, simd_avx2.cpp, simd_avx512.cpp and the simd.hpp
/// header), which are the sanctioned home for vector code.
bool simd_intrinsic_applies(const std::string& path) {
  return path.find("phy/simd") == std::string::npos;
}

void check_determinism(const SourceFile& f, std::vector<Finding>& out) {
  static const std::vector<std::pair<std::regex, std::string>> kPatterns = {
      {std::regex(R"(std\s*::\s*rand\b)"),
       "std::rand breaks sweep determinism; use util::Rng"},
      {std::regex(R"(\brandom_device\b)"),
       "std::random_device is nondeterministic; seed util::Rng explicitly"},
      {std::regex(R"(\btime\s*\()"),
       "time() reads the wall clock; thread simulated time through "
       "configs instead"},
      {std::regex(R"(_clock\s*::\s*now\b)"),
       "chrono clock reads are only allowed in obs/ and runner/"},
  };
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    if (f.line_allows(i + 1, "determinism")) continue;
    for (const auto& [re, why] : kPatterns) {
      if (std::regex_search(f.code[i], re)) {
        out.push_back({f.display, i + 1, "determinism", why, {}, {}});
      }
    }
  }
}

void check_unordered_iteration(const SourceFile& f,
                               std::vector<Finding>& out) {
  // Pass 1: names of variables declared with an unordered container
  // type on a single line (covers this codebase's style).
  static const std::regex kDecl(
      R"(\bunordered_(?:map|set)\s*<.*>\s+([A-Za-z_]\w*)\s*[;={(])");
  std::set<std::string> tracked;
  for (const auto& line : f.code) {
    std::smatch m;
    if (std::regex_search(line, m, kDecl)) tracked.insert(m[1].str());
  }
  if (tracked.empty()) return;
  // Pass 2: range-for over a tracked name (directly or via member), or
  // iterator-based accumulation over its range — both visit elements
  // in unspecified order, which silently reorders merged/CSV output.
  static const std::regex kRangeFor(
      R"(\bfor\s*\(.*:\s*(?:\w+\s*\.\s*)?([A-Za-z_]\w*)\s*\))");
  static const std::regex kAccumulate(
      R"(\b(?:std\s*::\s*)?accumulate\s*\(\s*([A-Za-z_]\w*)\s*\.\s*(?:c?begin)\s*\()");
  static const std::regex kIterLoop(
      R"(\bfor\s*\(\s*auto\b.*=\s*([A-Za-z_]\w*)\s*\.\s*(?:c?begin)\s*\()");
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    if (f.line_allows(i + 1, "unordered-iter")) continue;
    std::smatch m;
    if (std::regex_search(f.code[i], m, kRangeFor) &&
        tracked.count(m[1].str()) != 0) {
      out.push_back({f.display, i + 1, "unordered-iter",
                     "range-for over unordered container '" + m[1].str() +
                         "' has unspecified order; copy into a sorted "
                         "vector before emitting output",
                     {},
                     {}});
    }
    if ((std::regex_search(f.code[i], m, kAccumulate) ||
         std::regex_search(f.code[i], m, kIterLoop)) &&
        tracked.count(m[1].str()) != 0) {
      out.push_back({f.display, i + 1, "unordered-iter",
                     "accumulation over unordered container '" +
                         m[1].str() +
                         "' folds elements in unspecified order; "
                         "floating-point merge results become "
                         "iteration-order dependent — sort first",
                     {},
                     {}});
    }
  }
}

void check_pragma_once(const SourceFile& f, std::vector<Finding>& out) {
  if (!f.is_header) return;
  // Searched in the comment-stripped view so a comment *mentioning* the
  // directive does not satisfy the rule.
  for (const auto& line : f.code) {
    if (line.find("#pragma once") != std::string::npos) return;
  }
  // Fix: insert before the first code-bearing line (after the leading
  // comment block).
  std::size_t insert_line = 1;
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    if (f.code[i].find_first_not_of(" \t") != std::string::npos) {
      insert_line = i + 1;
      break;
    }
  }
  out.push_back({f.display, insert_line, "pragma-once",
                 "header is missing #pragma once",
                 Finding::Fix::kInsertPragmaOnce, {}});
}

void check_namespace_comments(const SourceFile& f,
                              std::vector<Finding>& out) {
  static const std::regex kOpen(
      R"(^\s*(?:inline\s+)?namespace(?:\s+([A-Za-z_][\w:]*))?\s*\{\s*$)");
  static const std::regex kClose(R"(\}\s*//\s*namespace)");
  struct OpenNs {
    std::string name;
    int depth = 0;  ///< Brace depth *before* the opening brace.
  };
  std::vector<OpenNs> stack;
  int depth = 0;
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    std::smatch m;
    const bool opens_ns = std::regex_search(line, m, kOpen);
    if (opens_ns) stack.push_back({m[1].matched ? m[1].str() : "", depth});
    for (const char c : line) {
      if (c == '{') {
        ++depth;
      } else if (c == '}') {
        if (depth > 0) --depth;
        if (!stack.empty() && stack.back().depth == depth) {
          const OpenNs ns = stack.back();
          stack.pop_back();
          if (!std::regex_search(f.raw[i], kClose)) {
            out.push_back(
                {f.display, i + 1, "namespace-comment",
                 "namespace" + (ns.name.empty() ? "" : " '" + ns.name + "'") +
                     " closed without a '}  // namespace' comment",
                 Finding::Fix::kAnnotateNamespaceEnd, ns.name});
          }
        }
      }
    }
  }
}

void check_raw_literals(const SourceFile& f, std::vector<Finding>& out) {
  // units.hpp is where these constants are *defined*.
  const std::string& path = f.display;
  if (path.size() >= 14 &&
      path.compare(path.size() - 14, 14, "util/units.hpp") == 0) {
    return;
  }
  static const std::vector<std::pair<std::string, std::string>> kLiterals = {
      {"3.14159", "util::kPi"},
      {"6.28318", "2.0 * util::kPi"},
      {"299792458", "util::kSpeedOfLight"},
      {"299'792'458", "util::kSpeedOfLight"},
      {"2.99792458e8", "util::kSpeedOfLight"},
      {"1.380649e-23", "util::kBoltzmann"},
      {"2.437e9", "util::kWifi24GHz"},
      {"5.18e9", "util::kWifi5GHz"},
  };
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    if (f.line_allows(i + 1, "raw-literal")) continue;
    for (const auto& [lit, named] : kLiterals) {
      if (f.code[i].find(lit) != std::string::npos) {
        out.push_back({f.display, i + 1, "raw-literal",
                       "literal " + lit + " duplicates " + named +
                           " from util/units.hpp",
                       {},
                       {}});
      }
    }
  }
}

/// Shared engine for the in-loop rules: flags lines matching `pattern`
/// while any for/while body is open. Line-granular brace tracking
/// remembers the depth at which each loop body opened. Lines declaring
/// a `static` are exempt when `skip_static` is set — a function-local
/// static initializer runs once, which is exactly the sanctioned
/// hoisting pattern.
void check_loop_pattern(const SourceFile& f, const std::string& rule,
                        const std::regex& pattern, bool skip_static,
                        const std::string& message,
                        std::vector<Finding>& out) {
  static const std::regex kLoopHead(R"(\b(?:for|while)\s*\()");
  static const std::regex kStaticDecl(R"(\bstatic\b)");
  int depth = 0;
  int paren_depth = 0;
  bool pending_loop = false;  // saw a loop head, body brace not yet open
  std::vector<int> loop_body_depths;
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    if (std::regex_search(line, kLoopHead)) pending_loop = true;
    if (!loop_body_depths.empty() && std::regex_search(line, pattern) &&
        !(skip_static && std::regex_search(line, kStaticDecl)) &&
        !f.line_allows(i + 1, rule)) {
      out.push_back({f.display, i + 1, rule, message, {}, {}});
    }
    for (const char c : line) {
      if (c == '(') {
        ++paren_depth;
      } else if (c == ')') {
        if (paren_depth > 0) --paren_depth;
      } else if (c == '{') {
        if (pending_loop && paren_depth == 0) {
          loop_body_depths.push_back(depth);
          pending_loop = false;
        }
        ++depth;
      } else if (c == '}') {
        if (depth > 0) --depth;
        if (!loop_body_depths.empty() && loop_body_depths.back() == depth) {
          loop_body_depths.pop_back();
        }
      } else if (c == ';' && paren_depth == 0) {
        pending_loop = false;  // braceless single-statement loop body
      }
    }
  }
}

void check_hot_alloc(const SourceFile& f, std::vector<Finding>& out) {
  static const std::regex kContainerDecl(
      R"((?:^|[;{(\s])(?:std\s*::\s*vector\s*<|(?:util\s*::\s*)?(?:BitVec|ByteVec|CxVec)\s+[A-Za-z_]))");
  check_loop_pattern(f, "hot-alloc", kContainerDecl,
                     /*skip_static=*/false,
                     "container constructed inside a hot decode loop; "
                     "hoist the buffer into the workspace/scratch struct "
                     "so steady-state decode stays allocation-free",
                     out);
}

void check_hot_lookup(const SourceFile& f, std::vector<Finding>& out) {
  static const std::regex kRegistryLookup(
      R"(\bobs\s*::\s*(?:counter|gauge|hdr)\s*\()");
  check_loop_pattern(f, "hot-lookup", kRegistryLookup,
                     /*skip_static=*/true,
                     "metric registry lookup inside a per-step loop "
                     "takes the registry mutex every iteration; cache "
                     "the handle with a WITAG_* macro or a function-local "
                     "static outside the loop",
                     out);
}

void check_simd_intrinsic(const SourceFile& f, std::vector<Finding>& out) {
  // x86 intrinsic calls (_mm_*, _mm256_*, _mm512_*) and ARM NEON
  // loads/ops (vld1q_f32, ...). Matching the call form `name(` keeps
  // type names like __m256d out of scope — declaring a vector local is
  // harmless, computing with intrinsics outside the kernels is not.
  static const std::regex kIntrinsicCall(R"(\b(?:_mm\d*_\w+|vld\w+)\s*\()");
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    if (f.line_allows(i + 1, "simd-intrinsic")) continue;
    if (std::regex_search(f.code[i], kIntrinsicCall)) {
      out.push_back({f.display, i + 1, "simd-intrinsic",
                     "raw vector intrinsic outside src/phy/simd*; route "
                     "through the phy::simd dispatch table so the scalar "
                     "reference and WITAG_SIMD=off cover this path",
                     {},
                     {}});
    }
  }
}

void check_simd_unaligned(const SourceFile& f, std::vector<Finding>& out) {
  static const std::regex kUnalignedLoad(
      R"(\b_mm\d*_(?:loadu|lddqu)_\w+\s*\()");
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    if (f.line_allows(i + 1, "simd-unaligned")) continue;
    if (std::regex_search(f.code[i], kUnalignedLoad)) {
      out.push_back({f.display, i + 1, "simd-unaligned",
                     "unaligned vector load without a justification "
                     "marker; align the buffer (alignas array, aligned "
                     "workspace) or annotate why it cannot be",
                     {},
                     {}});
    }
  }
}

/// Validates every allow marker in the file: a rule name the analyzer
/// does not know is a typo that silently suppresses nothing.
void check_allow_markers(const SourceFile& f, std::vector<Finding>& out) {
  static const std::string kPrefix = "witag-lint: allow(";
  const std::set<std::string> known(all_rules().begin(), all_rules().end());
  for (std::size_t i = 0; i < f.comment.size(); ++i) {
    const std::string& text = f.comment[i];
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
        while (a < b && std::isspace(static_cast<unsigned char>(text[a]))) {
          ++a;
        }
        while (b > a &&
               std::isspace(static_cast<unsigned char>(text[b - 1]))) {
          --b;
        }
        const std::string rule = text.substr(a, b - a);
        if (known.count(rule) == 0) {
          out.push_back({f.display, i + 1, "allow-unknown",
                         "allow marker names unknown rule '" + rule +
                             "'; it suppresses nothing (typo?)",
                         {},
                         {}});
        }
        start = end + 1;
      }
      pos = text.find(kPrefix, close);
    }
  }
}

}  // namespace

void run_file_passes(const SourceFile& f, const Options& opts,
                     std::vector<Finding>& out) {
  const std::string& path = f.display;
  const bool all = opts.all_rules;
  if (opts.rule_enabled("determinism") &&
      (all || determinism_applies(path))) {
    check_determinism(f, out);
  }
  if (opts.rule_enabled("unordered-iter")) check_unordered_iteration(f, out);
  if (opts.rule_enabled("pragma-once")) check_pragma_once(f, out);
  if (opts.rule_enabled("namespace-comment")) check_namespace_comments(f, out);
  if (opts.rule_enabled("raw-literal")) check_raw_literals(f, out);
  if (opts.rule_enabled("hot-alloc") && (all || hot_alloc_applies(path))) {
    check_hot_alloc(f, out);
  }
  if (opts.rule_enabled("hot-lookup") && (all || hot_lookup_applies(path))) {
    check_hot_lookup(f, out);
  }
  if (opts.rule_enabled("simd-intrinsic") &&
      (all || simd_intrinsic_applies(path))) {
    check_simd_intrinsic(f, out);
  }
  if (opts.rule_enabled("simd-unaligned")) check_simd_unaligned(f, out);
  if (opts.rule_enabled("allow-unknown")) check_allow_markers(f, out);
}

}  // namespace witag::lint
