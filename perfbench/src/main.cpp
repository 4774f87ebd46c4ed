// ftc_perfbench — one run of one end-to-end workload (perfbench/README.md).
//
//   ftc_perfbench --workload oneshot_udg|distributed_udg|churn_udg
//                 --seed N --seconds S --trace 0|1
//
// Prints one JSON object on stdout: the raw per-operation samples, scalar
// counts, failure accounting and (traced runs) span totals. run.py reduces
// it to the benchmark's metrics. Exit code 2 on a usage error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench.h"

namespace {

using ftc::perfbench::Config;
using ftc::perfbench::Report;
using ftc::perfbench::Tracer;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_report(const Config& cfg, const Report& report,
                  const Tracer& tracer) {
  std::string out = "{\"workload\": " + json_string(cfg.workload);
  out += ", \"n\": " + std::to_string(cfg.n);
  out += ", \"threads\": " + std::to_string(cfg.threads);
  out += ", \"trace\": " + std::string(cfg.trace ? "true" : "false");
  out += ", \"build_type\": " + json_string(FTC_BUILD_TYPE);
  out += ", \"compiler\": " + json_string(FTC_COMPILER);
  out += ", \"cxx_flags\": " + json_string(FTC_CXX_FLAGS);
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"errors\": [";
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    out += (i ? ", " : "") + json_string(report.errors[i]);
  }
  out += "], \"values\": {";
  bool first = true;
  for (const auto& [name, v] : report.values) {
    out += (first ? "" : ", ") + json_string(name) + ": " + json_number(v);
    first = false;
  }
  out += "}, \"series\": {";
  first = true;
  for (const auto& [name, samples] : report.series) {
    out += (first ? "" : ", ") + json_string(name) + ": [";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      out += (i ? ", " : "") + json_number(samples[i]);
    }
    out += "]";
    first = false;
  }
  out += "}, \"spans\": {";
  first = true;
  for (const auto& [name, t] : tracer.totals()) {
    out += (first ? "" : ", ") + json_string(name) +
           ": {\"self_s\": " + json_number(t.self_s) +
           ", \"total_s\": " + json_number(t.total_s) +
           ", \"calls\": " + std::to_string(t.calls) + "}";
    first = false;
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ftc_perfbench: " << why
            << "\nusage: ftc_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n";
  std::exit(2);
}

long long parse_int(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  long long v = 0;
  try {
    v = std::stoll(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || v < 0) usage("bad value for " + flag + ": " + text);
  return v;
}

Config parse(int argc, char** argv) {
  Config cfg;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  cfg.threads = static_cast<int>(std::min(4u, hw));
  bool have_seconds = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = static_cast<std::uint64_t>(parse_int(flag, value));
    } else if (flag == "--seconds") {
      cfg.seconds = static_cast<double>(parse_int(flag, value));
      have_seconds = true;
    } else if (flag == "--trace") {
      cfg.trace = parse_int(flag, value) != 0;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (cfg.workload.empty()) usage("--workload is required");
  cfg.n = ftc::perfbench::deployment_size(cfg.workload);
  if (!have_seconds) usage("--seconds is required");
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = parse(argc, argv);
  Tracer tracer;
  Report report;
  try {
    if (cfg.workload == "oneshot_udg") {
      ftc::perfbench::run_oneshot(cfg, tracer, report);
    } else if (cfg.workload == "distributed_udg") {
      ftc::perfbench::run_distributed(cfg, tracer, report);
    } else if (cfg.workload == "churn_udg") {
      ftc::perfbench::run_churn(cfg, tracer, report);
    } else {
      usage("unknown workload " + cfg.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "ftc_perfbench: " << e.what() << "\n";
    return 1;
  }
  write_report(cfg, report, tracer);
  return 0;
}
