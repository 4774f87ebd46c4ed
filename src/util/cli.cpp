#include "util/cli.h"

#include <stdexcept>

namespace ftc::util {

Args::Args(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        // Assigned from a std::string: GCC 12 raises a false -Wrestrict
        // on the inlined assign(const char*) here.
        values_[arg.substr(2)] = std::string("1");
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

bool Args::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::optional<std::string> Args::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Args::get_string(const std::string& key,
                             const std::string& fallback) const {
  return get(key).value_or(fallback);
}

long long Args::get_int(const std::string& key, long long fallback) const {
  const auto raw = get(key);
  if (!raw) return fallback;
  try {
    return std::stoll(*raw);
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + key + "=" + *raw + ": not an integer");
  }
}

double Args::get_double(const std::string& key, double fallback) const {
  const auto raw = get(key);
  if (!raw) return fallback;
  try {
    return std::stod(*raw);
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + key + "=" + *raw + ": not a number");
  }
}

bool Args::get_bool(const std::string& key, bool fallback) const {
  const auto raw = get(key);
  if (!raw) return fallback;
  if (*raw == "1" || *raw == "true" || *raw == "yes" || *raw == "on") {
    return true;
  }
  if (*raw == "0" || *raw == "false" || *raw == "no" || *raw == "off") {
    return false;
  }
  throw std::invalid_argument("--" + key + "=" + *raw + ": not a boolean");
}

std::uint64_t Args::get_u64(const std::string& key,
                            std::uint64_t fallback) const {
  const auto raw = get(key);
  if (!raw) return fallback;
  try {
    return std::stoull(*raw);
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + key + "=" + *raw +
                                ": not an unsigned integer");
  }
}

std::vector<long long> Args::get_int_list(
    const std::string& key, std::vector<long long> fallback) const {
  const auto raw = get(key);
  if (!raw) return fallback;
  std::vector<long long> out;
  std::string token;
  for (std::size_t i = 0; i <= raw->size(); ++i) {
    if (i == raw->size() || (*raw)[i] == ',') {
      if (!token.empty()) {
        try {
          out.push_back(std::stoll(token));
        } catch (const std::exception&) {
          throw std::invalid_argument("--" + key + ": bad element '" + token +
                                      "'");
        }
        token.clear();
      }
    } else {
      token += (*raw)[i];
    }
  }
  return out;
}

ObsFlags parse_obs_flags(const Args& args) {
  ObsFlags flags;
  flags.trace_path = args.get_string("trace", "");
  flags.metrics_path = args.get_string("metrics", "");
  flags.categories = args.get_string("trace-categories", "");
  flags.severity = args.get_string("trace-severity", "");
  flags.capacity = args.get_int("trace-capacity", flags.capacity);
  if (args.has("perf")) {
    flags.perf = true;
    // Bare `--perf` parses as value "1"; treat that as "default path".
    const std::string path = args.get_string("perf", "");
    flags.perf_path = (path.empty() || path == "1") ? "perf.jsonl" : path;
  }
  return flags;
}

}  // namespace ftc::util
