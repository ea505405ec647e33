// The benchmark binary: runs one workload for a fixed time and prints one
// JSON report line (metrics, request counts, check failures, details).
// perfbench/run.py builds and runs it; README.md documents the workloads.
//
//   perfbench --workload optimize_fig1 --seed 0 --seconds 10 --trace 0
//             [--expect key=value ...]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void PrintReport(const perfbench::Options& opt,
                 const perfbench::RunResult& r) {
  std::string out = "{\"workload\": " + JsonString(opt.workload) +
                    ", \"seed\": " + std::to_string(opt.seed) +
                    ", \"trace\": " + (opt.trace ? "1" : "0") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    out += (i ? ", " : "") + JsonString(r.errors[i]);
  }
  out += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    out += (first ? "" : ", ") + JsonString(name) +
           ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
    first = false;
  }
  out += "}, \"details\": {";
  first = true;
  for (const auto& [name, v] : r.details) {
    out += (first ? "" : ", ") + JsonString(name) + ": " + JsonNumber(v);
    first = false;
  }
  out += "}, \"notes\": {";
  first = true;
  for (const auto& [name, v] : r.notes) {
    out += (first ? "" : ", ") + JsonString(name) + ": " + JsonString(v);
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{optimize_fig1|montecarlo_join|serve_mixed} --seed N "
               "--seconds S --trace {0|1} [--expect key=value ...]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--expect") {
      const auto eq = value.find('=');
      if (eq == std::string::npos) return Usage("--expect needs key=value");
      opt.expect[value.substr(0, eq)] = value.substr(eq + 1);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(opt.seconds > 0.0)) {
    return Usage("--seconds is required and must be positive");
  }

  perfbench::RunResult result;
  if (opt.workload == "optimize_fig1") {
    perfbench::RunOptimizeFig1(opt, &result);
  } else if (opt.workload == "montecarlo_join") {
    perfbench::RunMonteCarloJoin(opt, &result);
  } else if (opt.workload == "serve_mixed") {
    perfbench::RunServeMixed(opt, &result);
  } else {
    return Usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  PrintReport(opt, result);
  return result.failed == 0 && result.errors.empty() ? 0 : 1;
}
