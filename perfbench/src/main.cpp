// privid_bench: runs one workload of the Privid benchmark and prints its
// result as the last line of standard output.
//
//   privid_bench --workload <cv_batch|porto_relational|service_mix>
//                --seed <n> --seconds <s> --trace <0|1>
//
// Context lines ("key: value") come first; the last line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer ones. A check failure
// prints "correct": false; a bad argument or an unexpected error exits
// non-zero without a result line.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Args;

bool parse_args(int argc, char** argv, Args* out) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      out->workload = val;
      have[0] = true;
    } else if (key == "--seed") {
      out->seed = std::strtoull(val, &end, 10);
      have[1] = end != val && *end == '\0';
    } else if (key == "--seconds") {
      out->seconds = std::strtod(val, &end);
      have[2] = end != val && *end == '\0' && out->seconds > 0 &&
                std::isfinite(out->seconds);
    } else if (key == "--trace") {
      out->trace = std::strcmp(val, "1") == 0;
      have[3] = out->trace || std::strcmp(val, "0") == 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have[0] && have[1] && have[2] && have[3];
}

// JSON-safe shortest round-trip rendering of a finite double.
std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Clock::time_point start = perfbench::Clock::now();
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: privid_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  perfbench::Report report;
  bool correct = true;
  try {
    if (args.workload == "cv_batch") {
      report = perfbench::run_cv_batch(args, start);
    } else if (args.workload == "porto_relational") {
      report = perfbench::run_porto_relational(args, start);
    } else if (args.workload == "service_mix") {
      report = perfbench::run_service_mix(args, start);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
  } catch (const perfbench::CheckFailure& e) {
    std::printf("check failed: %s\n", e.what());
    correct = false;
    report.attempted = std::max<std::uint64_t>(report.attempted, 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf("workload: %s\nseed: %llu\nseconds: %g\ntrace: %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& [name, m] = report.metrics[i];
    json += (i ? ", \"" : "\"") + name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
