#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      std::min(values.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void Report::add(std::string name, double value, std::string unit, std::size_t samples) {
  metrics_.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::add_percentile(const std::string& name, const std::vector<double>& values,
                            double q, std::size_t min_samples) {
  if (values.size() < min_samples || values.empty()) {
    note(name + ": not reported (" + std::to_string(values.size()) + " samples, need " +
         std::to_string(std::max<std::size_t>(min_samples, 1)) + ")");
    return;
  }
  add(name, percentile(values, q), "us", values.size());
}

void Report::print_text(std::FILE* out) const {
  for (const auto& metric : metrics_) {
    if (metric.samples > 0) {
      std::fprintf(out, "  %-28s = %14.6g %-6s (n=%zu)\n", metric.name.c_str(), metric.value,
                   metric.unit.c_str(), metric.samples);
    } else {
      std::fprintf(out, "  %-28s = %14.6g %s\n", metric.name.c_str(), metric.value,
                   metric.unit.c_str());
    }
  }
  for (const auto& line : notes_) std::fprintf(out, "  # %s\n", line.c_str());
}

}  // namespace perfbench
