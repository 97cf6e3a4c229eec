#include "probe.h"

#include <algorithm>
#include <fstream>
#include <iomanip>

#include "vkernel/syscall_descriptors.h"

namespace perfbench {

namespace {

CallKind kind_of(vkernel::Sys no) {
  switch (vkernel::descriptor(no).batch) {
    case vkernel::BatchPolicy::kCoalesce:
      return CallKind::kCoalesce;
    case vkernel::BatchPolicy::kCompletion:
      return CallKind::kCompletion;
    case vkernel::BatchPolicy::kBarrier:
      break;
  }
  return CallKind::kBarrier;
}

const char* call_span_name(CallKind kind) {
  switch (kind) {
    case CallKind::kCoalesce:
      return "core.call.coalesce";
    case CallKind::kCompletion:
      return "core.call.completion";
    case CallKind::kBarrier:
      break;
  }
  return "core.call.barrier";
}

/// Times one port call; records it when the call returns or unwinds.
class CallStamp {
 public:
  CallStamp(VariantTrace& trace, vkernel::Sys no, std::size_t syscalls)
      : trace_(trace),
        record_{Clock::now(), {}, no, kind_of(no), static_cast<std::uint32_t>(syscalls)} {}
  ~CallStamp() {
    record_.end = Clock::now();
    trace_.calls.push_back(record_);
  }
  CallStamp(const CallStamp&) = delete;
  CallStamp& operator=(const CallStamp&) = delete;

 private:
  VariantTrace& trace_;
  CallRecord record_;
};

/// The timing decorator: forwards every call to the port the MVEE handed
/// the variant, batches as batches, so the pipeline sees the same stream.
class TimedPort final : public vkernel::SyscallPort {
 public:
  TimedPort(vkernel::SyscallPort& inner, VariantTrace& trace) : inner_(inner), trace_(trace) {}

  vkernel::SyscallResult syscall(const vkernel::SyscallArgs& args) override {
    const CallStamp stamp(trace_, args.no, 1);
    return inner_.syscall(args);
  }

  std::vector<vkernel::SyscallResult> syscall_batch(const vkernel::SyscallBatch& batch) override {
    const vkernel::Sys first = batch.calls.empty() ? vkernel::Sys::kGetpid : batch.calls[0].no;
    const CallStamp stamp(trace_, first, batch.calls.size());
    return inner_.syscall_batch(batch);
  }

 private:
  vkernel::SyscallPort& inner_;
  VariantTrace& trace_;
};

void add_call(LayerStats& stats, const CallRecord& call, double duration_us) {
  stats.syscalls += call.syscalls;
  stats.port_us += duration_us;
  switch (call.kind) {
    case CallKind::kBarrier:
      stats.barrier_us.push_back(duration_us);
      break;
    case CallKind::kCoalesce:
      stats.coalesce_us.push_back(duration_us);
      break;
    case CallKind::kCompletion:
      stats.completion_us.push_back(duration_us);
      break;
  }
}

/// Spread of the k-th barrier call's entry time across variants, for every
/// k whose variant-0 entry satisfies `keep`.
template <typename Keep>
void add_skew(LayerStats& stats, const JobTrace& trace, Keep keep) {
  std::vector<std::vector<Clock::time_point>> entries;
  for (const auto& variant : trace.variants()) {
    auto& starts = entries.emplace_back();
    for (const auto& call : variant.calls) {
      if (call.kind == CallKind::kBarrier) starts.push_back(call.start);
    }
  }
  if (entries.empty()) return;
  std::size_t rounds = entries[0].size();
  for (const auto& starts : entries) rounds = std::min(rounds, starts.size());
  for (std::size_t k = 0; k < rounds; ++k) {
    if (!keep(entries[0][k])) continue;
    auto lo = entries[0][k];
    auto hi = lo;
    for (const auto& starts : entries) {
      lo = std::min(lo, starts[k]);
      hi = std::max(hi, starts[k]);
    }
    stats.skew_us.push_back(us_between(lo, hi));
  }
}

}  // namespace

core::VariantBody JobTrace::wrap(core::VariantBody body) {
  return [this, body = std::move(body)](unsigned variant, vkernel::SyscallPort& port,
                                        vkernel::Process& process,
                                        const core::VariantConfig& config) {
    VariantTrace& trace = variants_.at(variant);
    trace.body_start = Clock::now();
    struct ExitStamp {
      VariantTrace& trace;
      ~ExitStamp() { trace.body_end = Clock::now(); }
    } exit_stamp{trace};
    TimedPort timed(port, trace);
    body(variant, timed, process, config);
  };
}

Clock::time_point JobTrace::all_started() const {
  Clock::time_point latest{};
  for (const auto& variant : variants_) latest = std::max(latest, variant.body_start);
  return latest;
}

Clock::time_point JobTrace::all_exited() const {
  Clock::time_point latest{};
  for (const auto& variant : variants_) latest = std::max(latest, variant.body_end);
  return latest;
}

std::uint64_t SpanLog::add(const char* name, std::uint64_t parent, std::uint64_t request,
                           Clock::time_point start, Clock::time_point end, std::uint32_t detail) {
  const std::lock_guard lock(mutex_);
  const std::uint64_t id = next_id_++;
  if (rows_.size() < capacity_) {
    rows_.push_back({name, id, parent, request == 0 ? id : request, start, end, detail});
  } else {
    ++dropped_;
  }
  return id;
}

std::size_t SpanLog::size() const {
  const std::lock_guard lock(mutex_);
  return rows_.size();
}

std::uint64_t SpanLog::dropped() const {
  const std::lock_guard lock(mutex_);
  return dropped_;
}

bool SpanLog::write_csv(const std::string& path, Clock::time_point epoch) const {
  const std::lock_guard lock(mutex_);
  std::ofstream out(path);
  out << "name,id,parent,request,start_us,end_us,detail\n";
  for (const auto& row : rows_) {
    out << row.name << ',' << row.id << ',' << row.parent << ',' << row.request << ','
        << std::fixed << std::setprecision(3) << us_between(epoch, row.start) << ',' << us_between(epoch, row.end) << ',' << row.detail
        << '\n';
  }
  return static_cast<bool>(out);
}

void absorb_job(LayerStats& stats, const JobTrace& trace, SpanLog& spans, std::uint64_t parent,
                std::uint64_t request) {
  const auto& variants = trace.variants();
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const auto& variant = variants[v];
    const std::uint64_t body = spans.add("core.variant", parent, request, variant.body_start,
                                         variant.body_end, static_cast<std::uint32_t>(v));
    double port_us = 0.0;
    for (const auto& call : variant.calls) {
      const double duration = us_between(call.start, call.end);
      port_us += duration;
      add_call(stats, call, duration);
      spans.add(call_span_name(call.kind), body, request, call.start, call.end,
                static_cast<std::uint32_t>(call.no));
    }
    const double wall_us = us_between(variant.body_start, variant.body_end);
    stats.variant_us += wall_us;
    stats.self_us.push_back(wall_us - port_us);
  }
  add_skew(stats, trace, [](Clock::time_point) { return true; });

  const Clock::time_point started = trace.all_started();
  stats.launch_us.push_back(us_between(trace.launch_call, started));
  spans.add("core.launch", parent, request, trace.launch_call, started);
  const Clock::time_point stop_from =
      trace.stop_call != Clock::time_point{} ? trace.stop_call : trace.all_exited();
  stats.stop_us.push_back(us_between(stop_from, trace.stopped));
  spans.add("core.stop", parent, request, stop_from, trace.stopped);
}

void absorb_window(LayerStats& stats, const JobTrace& trace, SpanLog& spans,
                   const std::vector<std::uint64_t>& request_spans, Clock::time_point from,
                   Clock::time_point to, vkernel::Sys boundary) {
  const auto inside = [&](Clock::time_point t) { return t >= from && t < to; };
  const auto& variants = trace.variants();
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const auto& calls = variants[v].calls;
    stats.variant_us += us_between(from, to);
    std::size_t served = 0;        // boundary calls seen == requests begun
    std::size_t segment_begin = 0;  // first call of the open request segment
    for (std::size_t i = 0; i < calls.size(); ++i) {
      const auto& call = calls[i];
      if (inside(call.start)) add_call(stats, call, us_between(call.start, call.end));
      if (call.no != boundary) continue;
      // A boundary closes the previous request's segment [end of its
      // accept, start of this one) and opens the next.
      if (served > 0 && served <= request_spans.size()) {
        const auto& opened = calls[segment_begin - 1];
        if (inside(opened.end) && inside(call.start)) {
          const std::uint64_t request = request_spans[served - 1];
          const std::uint64_t handler =
              spans.add("httpd.request", request, request, opened.end, call.start,
                        static_cast<std::uint32_t>(v));
          double port_us = 0.0;
          for (std::size_t j = segment_begin; j < i; ++j) {
            port_us += us_between(calls[j].start, calls[j].end);
            spans.add(call_span_name(calls[j].kind), handler, request, calls[j].start,
                      calls[j].end, static_cast<std::uint32_t>(calls[j].no));
          }
          stats.self_us.push_back(us_between(opened.end, call.start) - port_us);
        }
      }
      ++served;
      segment_begin = i + 1;
    }
  }
  add_skew(stats, trace, inside);
}

}  // namespace perfbench
