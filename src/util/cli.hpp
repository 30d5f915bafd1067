// Minimal command-line option parser for the bench and example binaries:
// `--name value` options and `--flag` switches, with typed getters and
// defaults. Unknown arguments are an error so typos fail loudly.
//
// Every bench binary also understands the standard observability flags
// (consumed by obs::RunScope, see obs/report.hpp):
//   --metrics-out <path>   per-run metrics JSON destination
//   --no-metrics           suppress the metrics JSON
//   --trace-out <path>     record a Chrome trace-event JSON (or JSONL
//                          when the path ends in ".jsonl")
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <cstddef>

namespace witag::util {

class Args {
 public:
  /// Parses argv. Throws std::invalid_argument on malformed input
  /// (an option missing its value).
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

}  // namespace witag::util
