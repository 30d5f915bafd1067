// Determinism dataflow: how util::Rng values move through the code.
//
// The repo's reproducibility contract (DESIGN.md §2) hangs on every
// random draw coming from a deliberately-routed Rng stream. Two code
// shapes silently break that contract without breaking any test:
//
//   rng-copy      An Rng taken by value (parameter) or copy-initialized
//                 from an lvalue forks the stream: the copy and the
//                 original replay the *same* draws, and advancing one
//                 no longer advances the other. Callers keep their
//                 documented stream only if Rng travels by reference —
//                 or is forked *explicitly* via split()/derive_seed,
//                 which produce decorrelated child streams. Copy-init
//                 from a call expression (`Rng c = rng.split();`) is
//                 therefore fine; from a plain lvalue it is not.
//
//   seed-discard  `Rng::derive_seed(base, idx)` computes a child seed
//                 and has no side effects; calling it without consuming
//                 the result means someone planned a sub-stream and
//                 forgot to wire it. [[nodiscard]] would catch this at
//                 compile time, but the expression-statement form is
//                 worth flagging even where warnings are off.
//
// Both rules are text-level over the code view (comments and string
// literals already blanked) and scoped to src/-module files; tests may
// copy Rng deliberately to prove stream semantics.
#include <regex>
#include <string>

#include "lint.hpp"

namespace witag::lint {

void run_rngflow_pass(const std::vector<SourceFile>& files,
                      const Options& opts, std::vector<Finding>& out) {
  const bool want_copy = opts.rule_enabled("rng-copy");
  const bool want_seed = opts.rule_enabled("seed-discard");
  if (!want_copy && !want_seed) return;

  // By-value parameter: `Rng name` directly after '(' or ',' and
  // directly before ',' or ')'. `Rng& name` / `const Rng& name` /
  // `Rng* name` do not match (the &/* breaks the pattern).
  static const std::regex kByValueParam(
      R"((?:^|[(,])\s*(?:(?:witag\s*::\s*)?util\s*::\s*)?Rng\s+(\w+)\s*[,)])");
  // Copy-init from an lvalue: `Rng a = b;` or `Rng a(b);` or
  // `Rng a{b};` where the initializer is an identifier chain with no
  // call parentheses — `rng`, `ctx.rng`, `state->rng` — not
  // `rng.split()` and not `Rng(seed)` (a literal/expression seed is a
  // fresh stream, not a fork).
  static const std::regex kCopyInit(
      R"(\b(?:(?:witag\s*::\s*)?util\s*::\s*)?Rng\s+\w+\s*(?:=\s*|[({])\s*((?:\w+\s*(?:\.|->|::)\s*)*\w+)\s*[;)}])");
  // derive_seed(...) as a full expression statement: optional
  // qualification, the call, then ';' — nothing consuming the value.
  static const std::regex kSeedDiscard(
      R"(^\s*(?:(?:witag\s*::\s*)?util\s*::\s*)?(?:Rng\s*::\s*)?derive_seed\s*\([^;]*\)\s*;)");

  for (const SourceFile& f : files) {
    if (f.module.empty()) continue;
    // Last non-blank character of the previous code line: a line that
    // follows '(', ',' or '=' continues that expression, so a
    // derive_seed call starting it is an argument or an initializer.
    char prev_end = ';';
    for (std::size_t i = 0; i < f.code.size(); ++i) {
      const std::string& line = f.code[i];
      const char continues_from = prev_end;
      const std::size_t last = line.find_last_not_of(" \t\r");
      if (last != std::string::npos) prev_end = line[last];
      if (line.find("Rng") == std::string::npos &&
          line.find("derive_seed") == std::string::npos) {
        continue;
      }

      if (want_copy && !f.line_allows(i + 1, "rng-copy")) {
        std::smatch m;
        if (std::regex_search(line, m, kByValueParam)) {
          out.push_back(
              {f.display, i + 1, "rng-copy",
               "util::Rng parameter '" + m[1].str() +
                   "' is taken by value: the callee replays the "
                   "caller's draws on a silent fork of the stream. "
                   "Take Rng& (shared stream) or accept a seed / call "
                   "split() for a decorrelated child",
               {},
               {}});
        } else if (std::regex_search(line, m, kCopyInit)) {
          const std::string init = m[1].str();
          // Skip fresh construction from a non-Rng expression: a bare
          // identifier that is plausibly a seed is indistinguishable
          // textually, so only flag initializers that *name an Rng by
          // convention* (identifier or member chain containing "rng",
          // case-insensitive) — precision over recall.
          std::string lowered = init;
          for (char& c : lowered) {
            c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
          }
          if (lowered.find("rng") != std::string::npos) {
            out.push_back(
                {f.display, i + 1, "rng-copy",
                 "util::Rng copy-initialized from lvalue '" + init +
                     "': this forks the stream — both objects replay "
                     "the same draws. Use a reference, or fork "
                     "explicitly with split()/derive_seed",
                 {},
                 {}});
          }
        }
      }

      if (want_seed && !f.line_allows(i + 1, "seed-discard") &&
          continues_from != '(' && continues_from != ',' &&
          continues_from != '=' && std::regex_search(line, kSeedDiscard)) {
        out.push_back(
            {f.display, i + 1, "seed-discard",
             "derive_seed result is discarded: the derivation has no "
             "side effects, so a dropped child seed means a planned "
             "sub-stream was never wired up",
             {},
             {}});
      }
    }
  }
}

}  // namespace witag::lint
