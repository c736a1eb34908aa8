// perfbench: the repository benchmark's workload runner.
//
//   perfbench --workload <hot-read|cold-read> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <path>]
//
// Prints human-readable lines, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<hot-read|cold-read> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <path>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) Usage("missing value");
    const char* flag = argv[i];
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      o.workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      o.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      o.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--spans") == 0) {
      o.span_path = value;
    } else {
      Usage("unknown flag");
    }
  }
  if (!have_workload || !perfbench::IsWorkload(o.workload)) {
    Usage("unknown workload");
  }
  if (!(o.seconds > 0)) Usage("--seconds must be positive");

  const perfbench::Report report = perfbench::RunWorkload(o);
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  for (const std::string& line : report.lines) {
    std::printf("  %s\n", line.c_str());
  }
  const auto& metrics = o.trace ? report.per_layer : report.end_to_end;
  for (const perfbench::Metric& m : metrics) {
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
