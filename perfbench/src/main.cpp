// nvbench: wall-clock benchmark of the nvsys N-variant stack.
//
//   nvbench --workload <httpd_table3|fleet_open_attack|churn_saturated>
//           --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// Prints a readable report, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"} carrying every metric the run
// measured (run.py keeps the ones BENCHMARK.json lists). With --trace 0 those
// are the end-to-end metrics; with --trace 1 the per-layer ones, and the
// spans recorded during the run are written to
// <dir>/spans-<workload>-<seed>.csv. An output-gate or accounting violation
// exits 3 without printing numbers.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "nvbench: %s\nusage: nvbench --workload <httpd_table3|fleet_open_attack|"
               "churn_saturated> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_dir = ".bench_out";
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out") {
      out_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  if (!(options.seconds >= 1.0 && options.seconds <= 120.0)) return usage("--seconds in [1, 120]");

  using Runner = perfbench::RunResult (*)(const perfbench::RunOptions&, perfbench::SpanLog&);
  Runner runner = nullptr;
  if (workload == "httpd_table3") runner = perfbench::run_httpd_table3;
  if (workload == "fleet_open_attack") runner = perfbench::run_fleet_open_attack;
  if (workload == "churn_saturated") runner = perfbench::run_churn_saturated;
  if (runner == nullptr) return usage(("unknown workload '" + workload + "'").c_str());

  std::printf("nvbench %s: workload seed %llu, diversity seed 0x%llx, %.1f s, %s\n",
              workload.c_str(), static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(perfbench::kDiversitySeed), options.seconds,
              options.trace ? "traced (per-layer metrics)" : "untraced (end-to-end metrics)");
  std::fflush(stdout);

  perfbench::SpanLog spans(200'000);
  const auto epoch = perfbench::Clock::now();
  perfbench::RunResult result;
  try {
    result = runner(options, spans);
  } catch (const perfbench::GateError& e) {
    std::fprintf(stderr, "nvbench: GATE VIOLATION: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nvbench: error: %s\n", e.what());
    return 4;
  }

  perfbench::Report& report = result.report;
  if (options.trace) {
    std::filesystem::create_directories(out_dir);
    const std::string path =
        out_dir + "/spans-" + workload + "-" + std::to_string(options.seed) + ".csv";
    if (!spans.write_csv(path, epoch)) {
      std::fprintf(stderr, "nvbench: cannot write %s\n", path.c_str());
      return 4;
    }
    report.note("spans: " + std::to_string(spans.size()) + " written to " + path + ", " +
                std::to_string(spans.dropped()) + " past the in-memory cap counted, not kept");
  }
  report.print_text(stdout);

  if (result.attempted == 0) {
    std::fprintf(stderr, "nvbench: no request was attempted in the measured window\n");
    return 4;
  }
  std::string metrics;
  for (const auto& metric : report.metrics()) {
    if (!std::isfinite(metric.value)) continue;  // a ratio over an empty phase
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + metric.name + "\": {\"value\": " + value + ", \"unit\": \"" +
               metric.unit + "\"}";
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
