#include "util/cli.hpp"

#include <charconv>
#include <ostream>
#include <stdexcept>
#include <system_error>
#include <type_traits>
#include <cstddef>

#include "util/require.hpp"

namespace witag::util {
namespace {

// Parses all of `value` as a T. from_chars stops at the first character
// it cannot use, so a token it leaves unread (`12abc`, `2m`, `1e3` for
// an integer) throws, as does a sign on an unsigned option.
template <typename T>
T parse_whole(const std::string& name, const std::string& value) {
  const char* const last = value.data() + value.size();
  T out{};
  const auto [stop, ec] = std::from_chars(value.data(), last, out);
  if (ec != std::errc{} || stop != last) {
    throw std::invalid_argument(
        "--" + name + ": '" + value + "' is not " +
        (std::is_floating_point_v<T> ? "a number"
         : std::is_signed_v<T>       ? "an integer"
                                     : "a non-negative integer"));
  }
  return out;
}

}  // namespace

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    require(arg.rfind("--", 0) == 0,
            "Args: options must start with -- (positional args unsupported)");
    const std::string name = arg.substr(2);
    require(!name.empty(), "Args: empty option name");
    // A following token that is not itself an option is this option's
    // value; otherwise it's a bare flag.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[name] = argv[++i];
    } else {
      values_[name] = "";
    }
  }
}

double Args::get_double(const std::string& name, double fallback) const {
  const std::string value = get_string(name, "");
  return value.empty() ? fallback : parse_whole<double>(name, value);
}

long Args::get_int(const std::string& name, long fallback) const {
  const std::string value = get_string(name, "");
  return value.empty() ? fallback : parse_whole<long>(name, value);
}

std::uint64_t Args::get_u64(const std::string& name,
                            std::uint64_t fallback) const {
  const std::string value = get_string(name, "");
  return value.empty() ? fallback : parse_whole<std::uint64_t>(name, value);
}

std::string Args::get_string(const std::string& name,
                             const std::string& fallback) const {
  used_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return fallback;
  return it->second;
}

bool Args::has(const std::string& name) const {
  used_.insert(name);
  return values_.contains(name);
}

std::set<std::string> Args::unused() const {
  std::set<std::string> out;
  for (const auto& [name, value] : values_) {
    if (!used_.contains(name)) out.insert(name);
  }
  return out;
}

std::size_t Args::warn_unused(std::ostream& os) const {
  const auto names = unused();
  for (const auto& name : names) {
    os << "warning: unknown option --" << name << '\n';
  }
  return names.size();
}

}  // namespace witag::util
