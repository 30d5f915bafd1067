#include "util/cli.hpp"

#include <algorithm>
#include <iostream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <cstddef>

#include "util/require.hpp"

namespace witag::util {
namespace {

// Option `name`'s value as a T (parse_whole), or an
// std::invalid_argument naming the option and the value.
template <typename T>
T parse_option(const std::string& name, const std::string& value) {
  if (const std::optional<T> out = parse_whole<T>(value)) return *out;
  throw std::invalid_argument(
      "--" + name + ": '" + value + "' is not " +
      (std::is_floating_point_v<T> ? "a number"
       : std::is_signed_v<T>       ? "an integer"
                                   : "a non-negative integer"));
}

}  // namespace

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    require(arg.rfind("--", 0) == 0,
            "'" + arg + "' is not an option (options start with --)");
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

const std::string* Args::read(const std::string& name,
                              std::optional<std::string> fallback) const {
  if (used_.insert(name).second) read_.push_back({name, std::move(fallback)});
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

double Args::get_double(const std::string& name, double fallback) const {
  std::ostringstream shown;
  shown << fallback;
  const std::string* value = read(name, shown.str());
  return !value || value->empty() ? fallback
                                  : parse_option<double>(name, *value);
}

long Args::get_int(const std::string& name, long fallback) const {
  const std::string* value = read(name, std::to_string(fallback));
  return !value || value->empty() ? fallback
                                  : parse_option<long>(name, *value);
}

std::uint64_t Args::get_u64(const std::string& name,
                            std::uint64_t fallback) const {
  const std::string* value = read(name, std::to_string(fallback));
  return !value || value->empty()
             ? fallback
             : parse_option<std::uint64_t>(name, *value);
}

std::string Args::get_string(const std::string& name,
                             const std::string& fallback) const {
  const std::string* value = read(name, fallback);
  return !value || value->empty() ? fallback : *value;
}

bool Args::has(const std::string& name) const {
  return read(name, std::nullopt) != nullptr;
}

std::set<std::string> Args::unused() const {
  std::set<std::string> out;
  for (const auto& [name, value] : values_) {
    if (!used_.contains(name)) out.insert(name);
  }
  return out;
}

void Args::check() const {
  if (has("help")) throw HelpRequested{options_text()};
  const std::set<std::string> names = unused();
  if (names.empty()) return;
  std::string message = "unknown option";
  const char* separator = " --";
  for (const std::string& name : names) {
    message += separator;
    message += name;
    separator = ", --";
  }
  throw std::invalid_argument(message);
}

std::string Args::options_text() const {
  std::ostringstream os;
  for (const ReadOption& opt : read_) {
    std::string line = "  --";
    line += opt.name;
    if (opt.fallback) {
      line += " VALUE";
      line.resize(std::max<std::size_t>(line.size() + 2, 32), ' ');
      line += "(default: ";
      line += opt.fallback->empty() ? "none" : *opt.fallback;
      line += ')';
    }
    os << line << '\n';
  }
  return os.str();
}

int run_main(const char* binary, int argc, const char* const* argv,
             int (*body)(const Args&)) {
  try {
    return body(Args(argc, argv));
  } catch (const HelpRequested& help) {
    std::cout << "usage: " << binary << " [options]\n" << help.options;
    return 0;
  } catch (const std::invalid_argument& e) {
    std::cerr << binary << ": " << e.what() << '\n';
    return 2;
  }
}

}  // namespace witag::util
