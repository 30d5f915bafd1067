// Minimal command-line option parser for the bench and example binaries:
// `--name value` options and `--flag` switches, with typed getters and
// defaults, and run_main(), the bench binaries' shared main.
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

class Args {
 public:
  /// Parses argv. Throws std::invalid_argument on malformed input (a
  /// positional argument or an empty option name).
  Args(int argc, const char* const* argv);

  /// Typed getters with defaults. A value must parse whole (decimal for
  /// the integers): trailing characters, or a sign on get_u64, throw
  /// std::invalid_argument naming the option and the value.
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

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> used_;
};

/// A bench binary's main: parses argv and returns body(args). Bad input
/// (a std::invalid_argument out of the parse or out of `body`: a
/// malformed value, a positional argument, a value a config check
/// rejects) prints one "<binary>: <reason>" line on stderr and returns
/// 2 instead of reaching std::terminate. A body that reads every option
/// before its first line of output leaves stdout empty on bad input.
int run_main(const char* binary, int argc, const char* const* argv,
             int (*body)(const Args&));

}  // namespace witag::util
