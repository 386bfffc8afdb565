#include "support/cli.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "support/assert.hpp"

namespace locus {

Cli& Cli::flag(std::string name, std::string help, std::string default_value) {
  LOCUS_ASSERT(!flags_.count(name));
  order_.push_back(name);
  flags_[std::move(name)] = Flag{std::move(help), std::move(default_value), false};
  return *this;
}

Cli& Cli::flag(std::string name, std::string help, bool default_value) {
  LOCUS_ASSERT(!flags_.count(name));
  order_.push_back(name);
  flags_[std::move(name)] =
      Flag{std::move(help), default_value ? "true" : "false", true};
  return *this;
}

bool Cli::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage(argv[0]).c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      std::fprintf(stderr, "unknown flag --%s\n%s", name.c_str(),
                   usage(argv[0]).c_str());
      return false;
    }
    if (!has_value) {
      if (it->second.is_bool) {
        value = "true";
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        std::fprintf(stderr, "flag --%s requires a value\n", name.c_str());
        return false;
      }
    }
    it->second.value = std::move(value);
    it->second.given = true;
  }
  return true;
}

std::string Cli::get(const std::string& name) const {
  auto it = flags_.find(name);
  LOCUS_ASSERT_MSG(it != flags_.end(), "unregistered flag queried");
  return it->second.value;
}

bool Cli::given(const std::string& name) const {
  auto it = flags_.find(name);
  LOCUS_ASSERT_MSG(it != flags_.end(), "unregistered flag queried");
  return it->second.given;
}

bool Cli::get_bool(const std::string& name) const {
  std::string v = get(name);
  return v == "true" || v == "1" || v == "yes";
}

std::int64_t Cli::get_int(const std::string& name) const {
  return std::strtoll(get(name).c_str(), nullptr, 10);
}

std::int32_t Cli::get_bounded_int(const std::string& name, std::int64_t lo,
                                  std::int64_t hi) const {
  LOCUS_ASSERT(lo <= hi && hi <= std::numeric_limits<std::int32_t>::max());
  const std::string text = get(name);
  std::int64_t v = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || end != text.data() + text.size() || v < lo || v > hi) {
    throw std::invalid_argument("--" + name + "=" + text + " is not an integer in " +
                                std::to_string(lo) + ".." + std::to_string(hi));
  }
  return static_cast<std::int32_t>(v);
}

std::uint64_t Cli::get_uint64(const std::string& name) const {
  const std::string text = get(name);
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || end != text.data() + text.size()) {
    throw std::invalid_argument("--" + name + "=" + text +
                                " is not a whole number in 0..2^64-1");
  }
  return v;
}

double Cli::get_double(const std::string& name) const {
  return std::strtod(get(name).c_str(), nullptr);
}

std::string Cli::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const std::string& name : order_) {
    const Flag& f = flags_.at(name);
    os << "  --" << name << " (default: " << f.value << ")\n      " << f.help << '\n';
  }
  return os.str();
}

}  // namespace locus
