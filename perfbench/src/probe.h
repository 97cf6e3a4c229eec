// Tracing from outside the library: a timing decorator around the
// vkernel::SyscallPort that NVariantSystem hands each variant body, the
// per-launch record it fills, the in-memory span log written out when a run
// ends, and the per-layer aggregates computed from both.
//
// Nothing here touches library internals: the decorator wraps the port the
// variant body receives, and every other boundary is a timestamp taken
// around a public call in the workload code.
#ifndef PERFBENCH_PROBE_H
#define PERFBENCH_PROBE_H

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/nvariant_system.h"
#include "stats.h"
#include "vkernel/syscalls.h"

namespace perfbench {

// The library's namespaces (core, fleet, httpd, vkernel, ...) by their short names.
using namespace nv;  // NOLINT(google-build-using-namespace)

/// The descriptor table's BatchPolicy of a port call (a batch takes the
/// policy of its first call).
enum class CallKind : std::uint8_t { kBarrier, kCoalesce, kCompletion };

struct CallRecord {
  Clock::time_point start;
  Clock::time_point end;
  vkernel::Sys no = vkernel::Sys::kGetpid;
  CallKind kind = CallKind::kBarrier;
  std::uint32_t syscalls = 1;  // calls carried: 1, or the batch length
};

/// What one variant thread did during one launch()/run(). Written only by
/// that variant's thread; read after the system has joined it.
struct VariantTrace {
  Clock::time_point body_start{};
  Clock::time_point body_end{};
  std::vector<CallRecord> calls;
};

/// The decorator's record of one launch()/run() of a system, plus the
/// caller's stamps around launch and stop.
class JobTrace {
 public:
  explicit JobTrace(unsigned n_variants) : variants_(n_variants) {}

  /// `body` with every variant's port wrapped in the timing decorator.
  [[nodiscard]] core::VariantBody wrap(core::VariantBody body);

  [[nodiscard]] const std::vector<VariantTrace>& variants() const noexcept { return variants_; }
  /// Latest body entry across variants: the moment every variant runs.
  [[nodiscard]] Clock::time_point all_started() const;
  /// Latest body exit across variants.
  [[nodiscard]] Clock::time_point all_exited() const;

  Clock::time_point launch_call{};  // before launch()/run()
  Clock::time_point stop_call{};    // before stop() (launch/stop jobs only)
  Clock::time_point stopped{};      // after stop()/run() returned

 private:
  std::vector<VariantTrace> variants_;
};

/// One recorded span: name, interval, causing span and the request it
/// belongs to. `detail` is a variant index or syscall number.
struct SpanRow {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  Clock::time_point start{};
  Clock::time_point end{};
  std::uint32_t detail = 0;
};

/// Bounded in-memory span store; rows past the capacity are counted, not
/// kept. Thread-safe.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) : capacity_(capacity) {}

  /// Record a span and return its id (ids are issued even when the row is
  /// dropped, so children still name their parent). `request` 0 marks a
  /// root: the span is its own request.
  std::uint64_t add(const char* name, std::uint64_t parent, std::uint64_t request,
                    Clock::time_point start, Clock::time_point end, std::uint32_t detail = 0);
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t dropped() const;
  /// CSV: name,id,parent,request,start_us,end_us,detail (times from `epoch`).
  [[nodiscard]] bool write_csv(const std::string& path, Clock::time_point epoch) const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<SpanRow> rows_;
  std::uint64_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
};

/// Per-layer aggregates over the traced part of a run.
struct LayerStats {
  std::vector<double> barrier_us;     // duration of kBarrier port calls
  std::vector<double> coalesce_us;    // duration of kCoalesce port calls
  std::vector<double> completion_us;  // duration of kCompletion port calls
  std::vector<double> skew_us;        // spread of the k-th barrier call's entry across variants
  std::vector<double> self_us;        // variant time per request outside port calls
  std::vector<double> launch_us;      // launch()/run() call -> every variant body running
  std::vector<double> stop_us;        // stop() call (or last body exit) -> joined
  std::uint64_t syscalls = 0;         // guest syscalls issued, all variants
  double port_us = 0.0;               // variant time inside port calls
  double variant_us = 0.0;            // variant wall time the above is a share of
};

/// Fold a whole launch/stop (or run) into `stats`: one request per job.
/// Emits a span per variant body and per port call under `parent`.
void absorb_job(LayerStats& stats, const JobTrace& trace, SpanLog& spans, std::uint64_t parent,
                std::uint64_t request);

/// Fold the part of a long-lived server's trace inside [from, to) into
/// `stats`, one request per `boundary` call (accept): a request's variant
/// time runs from the end of its accept to the start of the next.
/// `request_spans[k]` is the client span of the k-th request since launch.
void absorb_window(LayerStats& stats, const JobTrace& trace, SpanLog& spans,
                   const std::vector<std::uint64_t>& request_spans, Clock::time_point from,
                   Clock::time_point to, vkernel::Sys boundary);

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H
