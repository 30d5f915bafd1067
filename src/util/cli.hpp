// Minimal command-line option parser for the bench and example binaries:
// `--name value` options and `--flag` switches, with typed getters and
// defaults, and run_main(), the bench binaries' shared main. Args records
// each option a binary reads, with its default, so check() can reject a
// misspelled option and answer --help with the binary's own option list.
//
// Every bench binary also understands the standard observability flags
// (consumed by obs::RunScope, see obs/report.hpp):
//   --metrics-out <path>   per-run metrics JSON destination
//   --no-metrics           suppress the metrics JSON
//   --trace-out <path>     record a Chrome trace-event JSON (or JSONL
//                          when the path ends in ".jsonl")
#pragma once

#include <charconv>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>
#include <cstddef>

namespace witag::util {

/// All of `text` as a T (decimal for the integers), or nullopt.
/// from_chars stops at the first character it cannot use, so a token it
/// leaves unread (`12abc`, `2m`, `1e3` for an integer) is rejected, as
/// are a sign on an unsigned T and a value out of range. Every numeric
/// input (options, environment variables, tool flags) parses this way.
template <typename T>
std::optional<T> parse_whole(std::string_view text) {
  const char* const last = text.data() + text.size();
  T out{};
  const auto [stop, ec] = std::from_chars(text.data(), last, out);
  if (ec != std::errc{} || stop != last) return std::nullopt;
  return out;
}

/// Thrown by Args::check() when --help was given: `options` lists every
/// option the binary read, one line each. run_main prints it on stdout
/// and returns 0 without running the binary's body further.
struct HelpRequested {
  std::string options;
};

class Args {
 public:
  /// Parses argv. Throws std::invalid_argument on malformed input (a
  /// positional argument or an empty option name).
  Args(int argc, const char* const* argv);

  /// Typed getters with defaults. A value must parse whole (decimal for
  /// the integers): trailing characters, or a sign on get_u64, throw
  /// std::invalid_argument naming the option and the value. Each getter
  /// records the option and its default for check() and --help.
  double get_double(const std::string& name, double fallback) const;
  long get_int(const std::string& name, long fallback) const;
  std::uint64_t get_u64(const std::string& name, std::uint64_t fallback) const;
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;

  /// True when `--name` appeared (with or without a value).
  bool has(const std::string& name) const;

  /// Names that were parsed but never queried (typo detection); call
  /// after all getters to warn the user.
  std::set<std::string> unused() const;

  /// Writes one "unknown option --name" warning line per unused option
  /// to `os`; returns how many there were. Call after all getters.
  std::size_t warn_unused(std::ostream& os) const;

  /// Ends option handling: call after every getter and before any
  /// output. With --help, throws HelpRequested carrying options_text();
  /// otherwise an option no getter read throws std::invalid_argument
  /// ("unknown option --rnus"), which run_main reports with exit 2.
  void check() const;

 private:
  /// The options read so far in first-read order, one line each:
  /// "  --name VALUE  (default D)", or "  --name" for a switch.
  std::string options_text() const;

  /// Records that `name` was read, with its default as text (nullopt
  /// for a switch), and returns its value (nullptr when absent).
  const std::string* read(const std::string& name,
                          std::optional<std::string> fallback) const;

  struct ReadOption {
    std::string name;
    std::optional<std::string> fallback;
  };

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> used_;
  mutable std::vector<ReadOption> read_;
};

/// A bench binary's main: parses argv and returns body(args). Bad input
/// (a std::invalid_argument out of the parse or out of `body`: a
/// malformed value, a positional argument, an unknown option, a value a
/// config check rejects) prints one "<binary>: <reason>" line on stderr
/// and returns 2 instead of reaching std::terminate. A HelpRequested
/// prints "usage: <binary> [options]" and the option list on stdout and
/// returns 0. A body that reads every option and calls Args::check()
/// before its first line of output leaves stdout empty on bad input and
/// prints no figure on --help.
int run_main(const char* binary, int argc, const char* const* argv,
             int (*body)(const Args&));

}  // namespace witag::util
