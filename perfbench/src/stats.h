// Small measurement helpers shared by the workloads: wall-clock arithmetic,
// order statistics, process CPU time and peak memory, and the metric report
// nvbench prints.
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// User + system CPU seconds consumed by this process so far.
[[nodiscard]] double process_cpu_s();
/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// One named measurement. `samples` is the sample count behind a percentile
/// (0 for counts, ratios and single readings).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Ordered metrics of one run, printed as text and as the result JSON.
class Report {
 public:
  void add(std::string name, double value, std::string unit, std::size_t samples = 0);
  /// Percentile metric: added only when at least `min_samples` values back it.
  void add_percentile(const std::string& name, const std::vector<double>& values, double q,
                      std::size_t min_samples = 1);
  void note(std::string line) { notes_.push_back(std::move(line)); }

  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept { return metrics_; }

  /// "name = value unit (n=samples)" lines, then the free-form notes.
  void print_text(std::FILE* out) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H
