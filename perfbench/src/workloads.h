// The benchmark's three workloads on the real stack (guest -> vkernel ->
// rendezvous -> session -> fleet), timed on the wall clock.
//
//   httpd_table3       closed loop, one client, one long-lived 2-variant
//                      uid-xor mini-httpd (paper configuration 4); no fleet
//   fleet_open_attack  seeded Poisson arrivals into a shedding fleet, ~2% of
//                      them attacks that must alarm, quarantine and respawn
//   churn_saturated    closed loop keeping uid_churn(100) jobs outstanding on
//                      a fleet whose variant threads fill every core
//
// Untraced runs produce the end-to-end metrics; traced runs the per-layer
// ones (README.md lists both). Every run checks every output and throws
// GateError on a violation, so no numbers are printed for a bad run.
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <stdexcept>
#include <string>

#include "probe.h"
#include "stats.h"

namespace perfbench {

/// Fixed seed of the fleet's and the server's diversity draws (uid-xor
/// masks). Separate from the workload seed, which shapes only the inputs.
inline constexpr std::uint64_t kDiversitySeed = 0xD5A2008;

/// An output-gate or accounting violation: the run must not report numbers.
struct GateError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct RunResult {
  std::uint64_t attempted = 0;  // benign requests in the measured window
  std::uint64_t failed = 0;     // of those: shed, dropped, errored, wrong, alarmed
  Report report;
};

[[nodiscard]] RunResult run_httpd_table3(const RunOptions& options, SpanLog& spans);
[[nodiscard]] RunResult run_fleet_open_attack(const RunOptions& options, SpanLog& spans);
[[nodiscard]] RunResult run_churn_saturated(const RunOptions& options, SpanLog& spans);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
