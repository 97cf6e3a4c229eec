#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "fleet/fleet.h"
#include "fleet/jobs.h"
#include "fleet/session_factory.h"
#include "guest/runners.h"
#include "httpd/client.h"
#include "httpd/mini_httpd.h"
#include "site.h"
#include "util/rng.h"
#include "variants/registry.h"
#include "vkernel/kernel.h"

namespace perfbench {

namespace {

// --- Fixed workload parameters (README.md explains each) --------------------
constexpr unsigned kVariants = 2;
constexpr unsigned kPool = 2;
constexpr int kSetupReps = 31;
constexpr unsigned kChurnRounds = 100;
constexpr unsigned kChurnOutstanding = 4;
constexpr std::size_t kQueueCapacity = 32;
constexpr std::size_t kWarmupGets = 300;
constexpr double kWarmupSeconds = 0.5;
constexpr double kMainRate = 200.0;
constexpr std::array<double, 3> kLadder = {300.0, 450.0, 600.0};
constexpr double kAttackShare = 0.02;
constexpr double kFtpShare = 0.25;
constexpr unsigned kBrowseMin = 2;
constexpr unsigned kBrowseMax = 6;
constexpr double kP99LimitUs = 20000.0;
constexpr double kFailLimit = 0.01;
constexpr double kQueueGrowthLimit = 1.0;
constexpr std::size_t kMinP99Samples = 1000;
constexpr std::size_t kSessionDraws = 300;
constexpr double kResidualToleranceUs = 50000.0;
constexpr auto kScrapeInterval = std::chrono::milliseconds(10);

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

Clock::time_point after(Clock::time_point from, double seconds) {
  return from + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

fleet::SessionSpec session_spec() {
  fleet::SessionSpec spec;
  spec.n_variants = kVariants;
  spec.variations = {"uid-xor"};
  return spec;
}

httpd::ServerConfig http_config() {
  httpd::ServerConfig config;
  config.uid_ops_mode = guest::UidOpsMode::kSyscallChecked;
  return config;
}

/// normal_browse's page rotation, starting at a seed-drawn page.
std::vector<std::string> page_rotation(std::uint64_t seed) {
  const auto plays = fleet::jobs::normal_browse(5);
  util::Rng rng(seed);
  const std::size_t offset = rng.below(plays.size());
  std::vector<std::string> pages;
  for (std::size_t i = 0; i < plays.size(); ++i) {
    pages.push_back(plays[(offset + i) % plays.size()].path);
  }
  return pages;
}

void add_count(Report& report, const std::string& name, double value) {
  report.add(name, value, "count");
}

void wait_bound(vkernel::SocketHub& hub, std::uint16_t port, const core::Monitor* monitor) {
  const auto deadline = Clock::now() + std::chrono::seconds(2);
  while (!hub.is_bound(port)) {
    if ((monitor != nullptr && monitor->triggered()) || Clock::now() > deadline) {
      throw GateError("server did not bind its port");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
}

// --- Closed-loop GETs ---------------------------------------------------------

struct GetLoop {
  std::vector<double> latency_us;
  std::vector<Clock::time_point> done_at;  // when each response was checked
  Clock::time_point start{};
  Clock::time_point end{};
};

/// One client sending GETs over `pages` back to back, checking each response
/// byte for byte, until `limit` requests or `until`. With `spans`, every GET
/// becomes a root span whose id is appended to `request_spans`.
GetLoop run_gets(vkernel::SocketHub& hub, std::uint16_t port, const std::vector<std::string>& pages,
                 std::size_t& next, const std::map<std::string, std::string>& expected,
                 std::size_t limit, Clock::time_point until, SpanLog* spans,
                 std::vector<std::uint64_t>* request_spans) {
  GetLoop loop;
  loop.start = Clock::now();
  Clock::time_point now = loop.start;
  while (loop.latency_us.size() < limit && now < until) {
    const std::string& path = pages[next++ % pages.size()];
    const auto sent = Clock::now();
    const auto response = httpd::http_get(hub, port, path);
    now = Clock::now();
    OutputCheck check;
    check_http(response, path, expected, check);
    if (!check.ok) throw GateError("benign GET failed the output gate: " + check.detail);
    loop.latency_us.push_back(us_between(sent, now));
    loop.done_at.push_back(now);
    if (spans != nullptr) request_spans->push_back(spans->add("request", 0, 0, sent, now));
  }
  loop.end = now;
  return loop;
}

/// Configuration 1: the same GET stream against an unmodified (kPlain)
/// mini-httpd run as one plain process.
std::vector<double> plain_http_floor(const std::vector<std::string>& pages, double seconds) {
  vfs::FileSystem fs;
  vkernel::SocketHub hub;
  vkernel::KernelContext ctx(fs, hub);
  auto config = http_config();
  config.uid_ops_mode = guest::UidOpsMode::kPlain;
  (void)httpd::install_default_site(fs, config);
  const auto expected = expected_http_bodies(config);
  httpd::MiniHttpd server;
  std::thread thread([&] { (void)guest::run_plain(ctx, server); });
  GetLoop loop;
  try {
    wait_bound(hub, config.listen_port, nullptr);
    std::size_t next = 0;
    (void)run_gets(hub, config.listen_port, pages, next, expected, kWarmupGets,
                   Clock::time_point::max(), nullptr, nullptr);
    loop = run_gets(hub, config.listen_port, pages, next, expected, SIZE_MAX,
                    after(Clock::now(), seconds), nullptr, nullptr);
  } catch (...) {
    hub.shutdown();
    thread.join();
    throw;
  }
  hub.shutdown();
  thread.join();
  return loop.latency_us;
}

/// The churn guest as one plain process, one job after another.
std::vector<double> plain_churn_floor(double seconds) {
  vfs::FileSystem fs;
  vkernel::SocketHub hub;
  vkernel::KernelContext ctx(fs, hub);
  UidChurnGuest guest(kChurnRounds);
  std::vector<double> latency_us;
  const auto until = after(Clock::now(), seconds);
  for (auto now = Clock::now(); now < until;) {
    const auto started = now;
    const auto result = guest::run_plain(ctx, guest);
    now = Clock::now();
    if (!result.completed || result.exit_code != 0) {
      throw GateError("plain uid_churn exited " + std::to_string(result.exit_code));
    }
    latency_us.push_back(us_between(started, now));
  }
  return latency_us;
}

/// Standalone SessionFactory::make_session() cost with the workloads' spec.
std::vector<double> session_draws() {
  fleet::SessionFactory factory(session_spec(), kDiversitySeed + 1,
                                variants::builtin_registry());
  std::vector<double> draw_us;
  for (std::size_t i = 0; i < kSessionDraws; ++i) {
    const auto started = Clock::now();
    auto session = factory.make_session();
    draw_us.push_back(us_between(started, Clock::now()));
    if (!session.has_value()) throw GateError("session draw failed: " + session.error());
  }
  return draw_us;
}

/// req_p50_us over every request of the window, and req_p99_us as the
/// median of the p99s of k consecutive slices of it (k = min(10, n / 1000),
/// so each slice holds at least 1000 samples): a host stall inside one slice
/// does not set the run's tail. The all-sample p99 is printed beside it.
void add_request_latency(Report& report, const std::vector<double>& latency_us) {
  report.add_percentile("req_p50_us", latency_us, 0.5);
  report.add_percentile("req_p90_us", latency_us, 0.9, 100);
  const std::size_t slices = std::min<std::size_t>(10, latency_us.size() / kMinP99Samples);
  if (slices == 0) {
    report.note("req_p99_us: not reported (fewer than 1000 samples)");
    return;
  }
  const std::size_t per_slice = latency_us.size() / slices;
  std::vector<double> tails;
  for (std::size_t k = 0; k < slices; ++k) {
    const auto first = latency_us.begin() + static_cast<std::ptrdiff_t>(k * per_slice);
    tails.push_back(percentile({first, first + static_cast<std::ptrdiff_t>(per_slice)}, 0.99));
  }
  report.add("req_p99_us", median(tails), "us", latency_us.size());
  report.add_percentile("req_p99_all_us", latency_us, 0.99, kMinP99Samples);
}

/// Events per second over the whole one-second slices of [from, to): the
/// mean of the middle half of the per-slice counts, so a host stall inside a
/// few seconds of the window does not set the rate.
double per_second_rate(const std::vector<Clock::time_point>& events, Clock::time_point from,
                       Clock::time_point to) {
  const auto seconds = static_cast<std::size_t>(seconds_between(from, to));
  if (seconds == 0) return 0.0;
  std::vector<double> counts(seconds, 0.0);
  for (const auto& event : events) {
    if (event < from) continue;
    const auto slot = static_cast<std::size_t>(seconds_between(from, event));
    if (slot < seconds) counts[slot] += 1.0;
  }
  std::sort(counts.begin(), counts.end());
  const std::size_t quarter = seconds / 4;
  double sum = 0.0;
  for (std::size_t i = quarter; i < seconds - quarter; ++i) sum += counts[i];
  return sum / static_cast<double>(seconds - 2 * quarter);
}

void add_core_metrics(Report& report, const LayerStats& layers, double requests) {
  report.add("core.calls_per_req", static_cast<double>(layers.syscalls) / kVariants / requests,
             "count");
  report.add_percentile("core.barrier_call_p50_us", layers.barrier_us, 0.5);
  report.add_percentile("core.barrier_call_p99_us", layers.barrier_us, 0.99, kMinP99Samples);
  report.add_percentile("core.coalesce_call_p50_us", layers.coalesce_us, 0.5);
  report.add_percentile("core.completion_call_p50_us", layers.completion_us, 0.5);
  report.add_percentile("core.skew_p50_us", layers.skew_us, 0.5);
  report.add_percentile("core.skew_p99_us", layers.skew_us, 0.99, kMinP99Samples);
  report.add("core.in_syscall_frac", layers.variant_us > 0 ? layers.port_us / layers.variant_us : 0,
             "frac");
  report.add_percentile("core.launch_p50_us", layers.launch_us, 0.5);
  report.add_percentile("core.stop_p50_us", layers.stop_us, 0.5);
  report.add_percentile("guest.self_p50_us", layers.self_us, 0.5);
}

// --- httpd_table3 -------------------------------------------------------------

/// One long-lived 2-variant mini-httpd and what launched it.
struct LiveServer {
  fleet::Session session;
  httpd::MiniHttpd program;
  std::unique_ptr<JobTrace> trace;  // set when launched under the decorator
};

core::RunReport stop_server(LiveServer& server) {
  auto& system = *server.session.system;
  if (!server.trace) return system.stop();
  server.trace->stop_call = Clock::now();
  auto report = system.stop();
  server.trace->stopped = Clock::now();
  return report;
}

/// Draw a session, install the site, launch, and wait until the port is
/// bound: the set-up a user pays before the first request.
std::unique_ptr<LiveServer> start_server(fleet::SessionFactory& factory,
                                         const httpd::ServerConfig& config, bool traced) {
  auto made = factory.make_session();
  if (!made.has_value()) throw GateError("session draw failed: " + made.error());
  auto server = std::make_unique<LiveServer>();
  server->session = std::move(made.value());
  auto& system = *server->session.system;
  (void)httpd::install_default_site(system.fs(), config);
  if (traced) {
    server->trace = std::make_unique<JobTrace>(kVariants);
    server->trace->launch_call = Clock::now();
    system.launch(server->trace->wrap(guest::as_variant_body(server->program)));
  } else {
    guest::launch_nvariant(system, server->program);
  }
  try {
    wait_bound(system.hub(), config.listen_port, &system.monitor());
  } catch (...) {
    (void)stop_server(*server);
    throw;
  }
  return server;
}

struct ServerSetup {
  std::unique_ptr<LiveServer> server;  // the last set-up, left running
  std::vector<double> setup_s;
  core::RunReport idle;  // report of a set-up stopped without requests
  LayerStats layers;     // launch/stop times (traced set-ups)
};

ServerSetup set_up_server(fleet::SessionFactory& factory, const httpd::ServerConfig& config,
                          bool traced, int reps) {
  ServerSetup setup;
  for (int rep = 0; rep < reps; ++rep) {
    const auto started = Clock::now();
    auto server = start_server(factory, config, traced);
    setup.setup_s.push_back(seconds_between(started, Clock::now()));
    if (traced) {
      setup.layers.launch_us.push_back(
          us_between(server->trace->launch_call, server->trace->all_started()));
    }
    if (rep + 1 == reps) {
      setup.server = std::move(server);
      break;
    }
    setup.idle = stop_server(*server);
    if (!clean(setup.idle)) throw GateError("idle server did not exit cleanly");
    if (traced) {
      setup.layers.stop_us.push_back(
          us_between(server->trace->stop_call, server->trace->stopped));
    }
  }
  return setup;
}

// --- Fleet driving ------------------------------------------------------------

enum class JobKind : std::uint8_t { kHttp, kFtp, kHttpAttack, kFtpAttack, kChurn };

bool is_attack(JobKind kind) { return kind == JobKind::kHttpAttack || kind == JobKind::kFtpAttack; }

/// Wakes the collector when a request is submitted or a job body ends.
class Notifier {
 public:
  void signal() {
    {
      const std::lock_guard lock(mutex_);
      ++seq_;
    }
    cv_.notify_all();
  }
  [[nodiscard]] std::uint64_t seq() const {
    const std::lock_guard lock(mutex_);
    return seq_;
  }
  void wait_past(std::uint64_t seen, std::chrono::microseconds timeout) {
    std::unique_lock lock(mutex_);
    cv_.wait_for(lock, timeout, [&] { return seq_ != seen; });
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t seq_ = 0;
};

/// Written by the worker running the job; read once its future resolved.
struct JobStamp {
  Clock::time_point body_start{};
  Clock::time_point body_end{};
  std::atomic<bool> ended{false};
  OutputCheck check;
  std::unique_ptr<JobTrace> trace;
};

/// The request programs a fleet workload draws from, built once.
struct Programs {
  httpd::ServerConfig http = http_config();
  httpd::FtpdConfig ftp;
  std::map<std::string, std::string> bodies = expected_http_bodies(http);
  std::vector<std::string> ftp_replies = expected_ftp_replies(ftp);
  std::vector<std::vector<fleet::jobs::HttpPlay>> browse;  // index: request count
  std::vector<fleet::jobs::HttpPlay> smash = fleet::jobs::uid_smash_attack();
  std::vector<std::string> ftp_normal = fleet::jobs::ftp_normal_session();
  std::vector<std::string> ftp_attack = fleet::jobs::ftp_site_attack();
  fleet::FleetJob library_churn = fleet::jobs::uid_churn(kChurnRounds);

  Programs() {
    for (unsigned k = 0; k <= kBrowseMax; ++k) browse.push_back(fleet::jobs::normal_browse(k));
  }
};

enum class Verdict : std::uint8_t { kOk, kShed, kDropped, kErrored, kAlarmed };

/// A resolved request, reduced to what the metrics and checks need.
struct Done {
  JobKind kind = JobKind::kHttp;
  int phase = 0;
  bool traced = false;
  Verdict verdict = Verdict::kOk;
  bool quarantined = false;
  Clock::time_point due{}, submit_start{}, submit_end{}, body_start{}, body_end{}, resolved{};
  std::uint64_t rounds = 0, batches = 0, async = 0;

  [[nodiscard]] bool ran() const { return verdict != Verdict::kShed && verdict != Verdict::kDropped; }
  [[nodiscard]] double latency_us() const { return us_between(due, resolved); }
};

/// Submits requests to a fleet, resolves them on a collector thread (which
/// applies the output gate and folds traced jobs into the layer stats), and
/// scrapes telemetry().snapshot() at a fixed interval.
class FleetClient {
 public:
  using OnResolved = std::function<void(const Done&)>;

  FleetClient(fleet::VariantFleet& fleet, const Programs& programs, SpanLog& spans,
              OnResolved on_resolved = {})
      : fleet_(fleet), programs_(programs), spans_(spans), on_resolved_(std::move(on_resolved)) {
    collector_ = std::thread([this] { collect_loop(); });
    scraper_ = std::thread([this] { scrape_loop(); });
  }
  ~FleetClient() { finish(); }
  FleetClient(const FleetClient&) = delete;
  FleetClient& operator=(const FleetClient&) = delete;

  /// Submit one request that was due at `due`. Thread-safe.
  void submit(JobKind kind, unsigned browse, int phase, bool traced, Clock::time_point due) {
    auto stamp = std::make_shared<JobStamp>();
    if (traced) stamp->trace = std::make_unique<JobTrace>(kVariants);
    Pending request{kind, phase, traced, due, {}, {}, stamp, {}};
    auto job = make_job(kind, browse, stamp);
    request.submit_start = Clock::now();
    request.future = fleet_.submit(std::move(job));
    request.submit_end = Clock::now();
    {
      const std::lock_guard lock(inbox_mutex_);
      inbox_.push_back(std::move(request));
      ++submitted_;
    }
    notify_.signal();
  }

  /// Wait for every submitted request to resolve; stop both threads.
  void finish() {
    if (!collector_.joinable()) return;
    stopping_.store(true);
    notify_.signal();
    collector_.join();
    scraper_.join();
  }

  // Valid after finish().
  [[nodiscard]] const std::vector<Done>& done() const { return done_; }
  [[nodiscard]] const LayerStats& layers() const { return layers_; }
  [[nodiscard]] const std::string& gate_failure() const { return gate_failure_; }
  [[nodiscard]] std::uint64_t submitted() const { return submitted_; }
  [[nodiscard]] const std::vector<double>& snapshot_us() const { return snapshot_us_; }
  /// (time, queue depth) samples taken with each scrape.
  [[nodiscard]] const std::vector<std::pair<Clock::time_point, std::size_t>>& depths() const {
    return depths_;
  }
  [[nodiscard]] const std::vector<double>& residual_us() const { return residual_us_; }

 private:
  struct Pending {
    JobKind kind;
    int phase;
    bool traced;
    Clock::time_point due, submit_start, submit_end;
    std::shared_ptr<JobStamp> stamp;
    std::future<fleet::JobOutcome> future;
  };

  fleet::FleetJob make_job(JobKind kind, unsigned browse, std::shared_ptr<JobStamp> stamp) {
    return [this, kind, browse, stamp](core::NVariantSystem& system) {
      struct EndStamp {
        JobStamp& stamp;
        Notifier& notify;
        ~EndStamp() {
          stamp.body_end = Clock::now();
          stamp.ended.store(true, std::memory_order_release);
          notify.signal();
        }
      } end{*stamp, notify_};
      stamp->body_start = Clock::now();
      JobTrace* trace = stamp->trace.get();
      const Programs& p = programs_;
      switch (kind) {
        case JobKind::kHttp:
          return http_stream(system, p.http, p.browse.at(browse), {&p.bodies, nullptr},
                             stamp->check, trace);
        case JobKind::kHttpAttack:
          return http_stream(system, p.http, p.smash, {}, stamp->check, trace);
        case JobKind::kFtp:
          return ftp_session(system, p.ftp, p.ftp_normal, {nullptr, &p.ftp_replies},
                             stamp->check, trace);
        case JobKind::kFtpAttack:
          return ftp_session(system, p.ftp, p.ftp_attack, {}, stamp->check, trace);
        case JobKind::kChurn:
          break;
      }
      return trace != nullptr ? churn(system, kChurnRounds, trace) : p.library_churn(system);
    };
  }

  void collect_loop() {
    std::vector<Pending> pending;
    for (;;) {
      const std::uint64_t seen = notify_.seq();
      bool inbox_empty = false;
      {
        const std::lock_guard lock(inbox_mutex_);
        for (auto& request : inbox_) pending.push_back(std::move(request));
        inbox_.clear();
      }
      // Stamp every resolved request first, then process them, so one
      // request's bookkeeping does not delay another's stamp.
      std::vector<std::pair<Pending, Clock::time_point>> ready;
      for (;;) {
        Pending* ending = nullptr;  // body ended, future not set yet
        for (std::size_t i = 0; i < pending.size();) {
          if (pending[i].future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
            ready.emplace_back(std::move(pending[i]), Clock::now());
            pending[i] = std::move(pending.back());
            pending.pop_back();
            continue;
          }
          if (pending[i].stamp->ended.load(std::memory_order_acquire)) ending = &pending[i];
          ++i;
        }
        if (ending == nullptr) break;
        // It resolves within microseconds (milliseconds for a respawn):
        // block on it so its stamp is taken at the wake-up.
        ending->future.wait();
      }
      for (auto& [request, resolved] : ready) resolve(request, resolved);
      {
        const std::lock_guard lock(inbox_mutex_);
        inbox_empty = inbox_.empty();
      }
      if (stopping_.load() && inbox_empty && pending.empty()) break;
      notify_.wait_past(seen, std::chrono::milliseconds(2));
    }
    scraper_stop_.store(true);
  }

  void gate(const std::string& why) {
    if (gate_failure_.empty()) gate_failure_ = why;
  }

  void resolve(Pending& request, Clock::time_point resolved) {
    const fleet::JobOutcome outcome = request.future.get();
    const JobStamp& stamp = *request.stamp;
    Done done;
    done.kind = request.kind;
    done.phase = request.phase;
    done.traced = request.traced;
    done.due = request.due;
    done.submit_start = request.submit_start;
    done.submit_end = request.submit_end;
    done.body_start = stamp.body_start;
    done.body_end = stamp.body_end;
    done.resolved = resolved;
    done.quarantined = outcome.session_quarantined;
    done.rounds = outcome.report.syscall_rounds;
    done.batches = outcome.report.syscall_batches;
    done.async = outcome.report.async_completions;
    if (outcome.error == fleet::VariantFleet::kShedError) {
      done.verdict = Verdict::kShed;
    } else if (outcome.error == fleet::VariantFleet::kDeadlineDropError ||
               outcome.error == fleet::VariantFleet::kAbandonedError) {
      done.verdict = Verdict::kDropped;
    } else if (!outcome.error.empty()) {
      done.verdict = Verdict::kErrored;
    } else if (outcome.report.attack_detected) {
      done.verdict = Verdict::kAlarmed;
    }

    // The output gate.
    if (is_attack(done.kind)) {
      if (done.verdict != Verdict::kShed &&
          !(done.verdict == Verdict::kAlarmed && done.quarantined)) {
        gate("attack job ended without alarm and quarantine (" + outcome.error + ")");
      }
    } else if (done.verdict == Verdict::kAlarmed) {
      gate("false alarm on benign traffic");
    } else if (done.verdict == Verdict::kErrored) {
      gate("benign job raised: " + outcome.error);
    } else if (done.verdict == Verdict::kOk && !stamp.check.ok) {
      gate("benign job failed the output gate: " + stamp.check.detail);
    } else if (done.verdict == Verdict::kOk && !clean(outcome.report)) {
      gate("benign job's variants did not exit cleanly");
    }

    if (done.traced && done.ran()) {
      const std::uint64_t root = spans_.add("request", 0, 0, done.due, done.resolved,
                                            static_cast<std::uint32_t>(done.kind));
      spans_.add("gen.late", root, root, done.due, done.submit_start);
      spans_.add("fleet.submit", root, root, done.submit_start, done.submit_end);
      spans_.add("fleet.queue_wait", root, root, done.submit_end, done.body_start);
      const std::uint64_t service =
          spans_.add("fleet.service", root, root, done.body_start, done.body_end);
      spans_.add("fleet.resolve", root, root, done.body_end, done.resolved);
      if (stamp.trace) absorb_job(layers_, *stamp.trace, spans_, service, root);
      if (!is_attack(done.kind) && done.verdict == Verdict::kOk) {
        // Accounting: late + submit + queue wait + service must explain the
        // latency up to the fleet's resolution work and the collector's stamp.
        const double residual = us_between(done.body_end, done.resolved);
        residual_us_.push_back(residual);
        if (residual < 0.0 || residual > kResidualToleranceUs) {
          gate("latency stages do not add up: residual " + std::to_string(residual) + " us");
        }
      }
    }
    done_.push_back(done);
    if (on_resolved_) on_resolved_(done_.back());
  }

  void scrape_loop() {
    auto next = Clock::now();
    while (!scraper_stop_.load()) {
      next += kScrapeInterval;
      std::this_thread::sleep_until(next);
      const auto started = Clock::now();
      const auto snapshot = fleet_.telemetry().snapshot();
      const auto taken = Clock::now();
      (void)snapshot;
      snapshot_us_.push_back(us_between(started, taken));
      depths_.emplace_back(taken, fleet_.queue_depth());
    }
  }

  fleet::VariantFleet& fleet_;
  const Programs& programs_;
  SpanLog& spans_;
  OnResolved on_resolved_;
  Notifier notify_;

  std::mutex inbox_mutex_;
  std::vector<Pending> inbox_;
  std::uint64_t submitted_ = 0;  // guarded by inbox_mutex_ while threads run

  // Collector-thread state, read after finish().
  std::vector<Done> done_;
  LayerStats layers_;
  std::string gate_failure_;
  std::vector<double> residual_us_;

  // Scraper-thread state, read after finish().
  std::vector<double> snapshot_us_;
  std::vector<std::pair<Clock::time_point, std::size_t>> depths_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> scraper_stop_{false};
  std::thread collector_;
  std::thread scraper_;
};

/// The benchmark's request programs must drive the MVEE exactly as the
/// library jobs they mirror do.
void check_programs_match_library() {
  fleet::SessionFactory factory(session_spec(), kDiversitySeed, variants::builtin_registry());
  const auto mismatch = check_against_library([&] {
    auto made = factory.make_session();
    if (!made.has_value()) throw GateError("session draw failed: " + made.error());
    return std::move(made.value().system);
  });
  if (!mismatch.empty()) throw GateError("benchmark jobs drifted from the library:\n" + mismatch);
}

fleet::FleetConfig fleet_config(fleet::AdmissionPolicy admission) {
  fleet::FleetConfig config;
  config.spec = session_spec();
  config.pool_size = kPool;
  config.queue_capacity = kQueueCapacity;
  config.admission = admission;
  config.seed = kDiversitySeed;
  return config;
}

/// Fleet construction with its initial session draws, up to the first
/// request admitted; median of several. The last fleet stays up, its first
/// job resolved, so the measured traffic starts on a warm fleet.
std::unique_ptr<fleet::VariantFleet> set_up_fleet(const fleet::FleetConfig& config,
                                                  const fleet::FleetJob& first_job, int reps,
                                                  std::vector<double>& setup_s) {
  std::unique_ptr<fleet::VariantFleet> service;
  for (int rep = 0; rep < reps; ++rep) {
    const auto started = Clock::now();
    service = std::make_unique<fleet::VariantFleet>(config);
    auto future = service->submit(first_job);
    setup_s.push_back(seconds_between(started, Clock::now()));
    const auto outcome = future.get();
    if (!outcome.ok() || !clean(outcome.report)) throw GateError("set-up job failed");
  }
  return service;
}

/// The accounting identities between the client's own counts and the
/// fleet's counters (deltas since `base`).
void check_accounting(const FleetClient& client, const fleet::FleetSnapshot& base,
                      const fleet::FleetSnapshot& end, Report& report) {
  std::uint64_t ok = 0, shed = 0, dropped = 0, errored = 0, alarmed = 0;
  std::uint64_t rounds = 0, batches = 0, async = 0;
  for (const auto& done : client.done()) {
    switch (done.verdict) {
      case Verdict::kOk: ++ok; break;
      case Verdict::kShed: ++shed; break;
      case Verdict::kDropped: ++dropped; break;
      case Verdict::kErrored: ++errored; break;
      case Verdict::kAlarmed: ++alarmed; break;
    }
    rounds += done.rounds;
    batches += done.batches;
    async += done.async;
  }
  const auto delta = [](std::uint64_t to, std::uint64_t from) { return to - from; };
  std::string broken;
  const auto expect = [&](const char* what, std::uint64_t ours, std::uint64_t fleets) {
    if (ours != fleets) {
      broken += std::string(what) + " " + std::to_string(ours) + " != " +
                std::to_string(fleets) + "; ";
    }
  };
  expect("submitted = completed+alarmed+errored+shed+dropped", client.submitted(),
         ok + alarmed + errored + shed + dropped);
  expect("admitted vs jobs_submitted", client.submitted() - shed,
         delta(end.jobs_submitted, base.jobs_submitted));
  expect("completed", ok, delta(end.jobs_completed, base.jobs_completed));
  expect("alarmed", alarmed, delta(end.jobs_alarmed, base.jobs_alarmed));
  expect("errored", errored, delta(end.job_errors, base.job_errors));
  expect("shed", shed, delta(end.jobs_shed, base.jobs_shed));
  expect("dropped", dropped,
         delta(end.jobs_deadline_dropped + end.jobs_abandoned,
               base.jobs_deadline_dropped + base.jobs_abandoned));
  expect("quarantined", alarmed + errored,
         delta(end.sessions_quarantined, base.sessions_quarantined));
  expect("syscall_rounds", rounds, delta(end.syscall_rounds, base.syscall_rounds));
  expect("syscall_batches", batches, delta(end.syscall_batches, base.syscall_batches));
  expect("async_completions", async, delta(end.async_completions, base.async_completions));
  if (!broken.empty()) throw GateError("accounting identity violated: " + broken);
  report.note("accounting: submitted " + std::to_string(client.submitted()) + " = completed " +
              std::to_string(ok) + " + alarmed " + std::to_string(alarmed) + " + errored " +
              std::to_string(errored) + " + shed " + std::to_string(shed) + " + dropped " +
              std::to_string(dropped) + "; every count matches FleetSnapshot");
}

void add_fleet_counts(Report& report, const fleet::FleetSnapshot& base,
                      const fleet::FleetSnapshot& end) {
  add_count(report, "fleet.shed", static_cast<double>(end.jobs_shed - base.jobs_shed));
  add_count(report, "fleet.quarantined",
            static_cast<double>(end.sessions_quarantined - base.sessions_quarantined));
  add_count(report, "fleet.respawned",
            static_cast<double>(end.sessions_respawned - base.sessions_respawned));
  add_count(report, "fleet.stolen", static_cast<double>(end.jobs_stolen - base.jobs_stolen));
  add_count(report, "fleet.queue_high_watermark", static_cast<double>(end.queue_high_watermark));
}

/// Requests of `phase` (and of the traced half, when `traced_only`).
template <typename Keep>
std::vector<const Done*> select(const std::vector<Done>& all, Keep keep) {
  std::vector<const Done*> out;
  for (const auto& done : all) {
    if (keep(done)) out.push_back(&done);
  }
  return out;
}

std::vector<double> benign_ok_latencies(const std::vector<const Done*>& requests) {
  std::vector<double> latency;
  for (const Done* done : requests) {
    if (!is_attack(done->kind) && done->verdict == Verdict::kOk) {
      latency.push_back(done->latency_us());
    }
  }
  return latency;
}

/// The per-layer metrics both fleet workloads take from their traced half.
void add_fleet_layer_metrics(Report& report, const FleetClient& client,
                             const std::vector<const Done*>& traced, double traced_seconds) {
  std::vector<double> submit_us, queue_us, service_us, late_us;
  double busy_us = 0.0;
  std::uint64_t started = 0, useful = 0, rounds = 0, batches = 0, async = 0;
  for (const Done* done : traced) {
    submit_us.push_back(us_between(done->submit_start, done->submit_end));
    late_us.push_back(us_between(done->due, done->submit_start));
    if (!done->ran()) continue;
    ++started;
    rounds += done->rounds;
    batches += done->batches;
    async += done->async;
    const double service = us_between(done->body_start, done->body_end);
    busy_us += service;
    if (!is_attack(done->kind) && done->verdict == Verdict::kOk) {
      ++useful;
      queue_us.push_back(us_between(done->submit_end, done->body_start));
      service_us.push_back(service);
    }
  }
  const double jobs = std::max<double>(1.0, static_cast<double>(started));
  add_core_metrics(report, client.layers(), jobs);
  report.add("core.rounds_per_req", static_cast<double>(rounds) / jobs, "count");
  report.add("core.batches_per_req", static_cast<double>(batches) / jobs, "count");
  report.add("core.async_per_req", static_cast<double>(async) / jobs, "count");
  report.add_percentile("fleet.submit_p99_us", submit_us, 0.99, kMinP99Samples);
  report.add_percentile("fleet.queue_wait_p50_us", queue_us, 0.5);
  report.add_percentile("fleet.queue_wait_p99_us", queue_us, 0.99, kMinP99Samples);
  report.add_percentile("fleet.service_p50_us", service_us, 0.5);
  report.add_percentile("fleet.service_p99_us", service_us, 0.99, kMinP99Samples);
  report.add("fleet.lane_busy_frac", busy_us / (kPool * traced_seconds * 1e6), "frac");
  report.add("fleet.useful_frac", static_cast<double>(useful) / jobs, "frac");
  report.add_percentile("fleet.snapshot_p50_us", client.snapshot_us(), 0.5);
  report.add_percentile("fleet.snapshot_p99_us", client.snapshot_us(), 0.99, kMinP99Samples);
  report.add_percentile("gen.late_p99_us", late_us, 0.99, kMinP99Samples);
  const auto& residual = client.residual_us();
  report.note("latency stages: late+submit+queue_wait+service leave a residual (fleet "
              "resolution + collector stamp) of p50 " +
              std::to_string(percentile(residual, 0.5)) + " us, max " +
              std::to_string(percentile(residual, 1.0)) + " us over " +
              std::to_string(residual.size()) + " requests (tolerance " +
              std::to_string(kResidualToleranceUs) + " us each)");
}

void finish_client(FleetClient& client) {
  client.finish();
  if (!client.gate_failure().empty()) throw GateError(client.gate_failure());
}

// --- fleet_open_attack ---------------------------------------------------------

struct Arrival {
  double at_s = 0.0;  // due, seconds after the schedule's origin
  JobKind kind = JobKind::kHttp;
  unsigned browse = 0;
  int phase = 0;
};

/// Seeded Poisson arrivals at `rate` over [from_s, to_s): ~2% attacks (half
/// UID smash, half SITE overrun); benign traffic is 75% browse streams of
/// 2-6 GETs and 25% scripted FTP sessions.
void schedule(util::Rng& rng, double from_s, double to_s, double rate, int phase,
              std::vector<Arrival>& out) {
  for (double t = from_s + rng.exponential(1.0 / rate); t < to_s;
       t += rng.exponential(1.0 / rate)) {
    Arrival arrival;
    arrival.at_s = t;
    arrival.phase = phase;
    if (rng.chance(kAttackShare)) {
      arrival.kind = rng.chance(0.5) ? JobKind::kHttpAttack : JobKind::kFtpAttack;
    } else if (rng.chance(kFtpShare)) {
      arrival.kind = JobKind::kFtp;
    } else {
      arrival.kind = JobKind::kHttp;
      arrival.browse = kBrowseMin + static_cast<unsigned>(rng.below(kBrowseMax - kBrowseMin + 1));
    }
    out.push_back(arrival);
  }
}

/// Phase ids of the open-loop schedule.
constexpr int kWarmupPhase = 0;
constexpr int kMainPhase = 1;        // untraced main phase (also the traced run's first half)
constexpr int kTracedPhase = 2;      // traced run's second half
constexpr int kFirstRungPhase = 10;  // ladder rung r is phase 10 + r

}  // namespace

RunResult run_httpd_table3(const RunOptions& options, SpanLog& spans) {
  RunResult result;
  Report& report = result.report;
  const auto start = Clock::now();
  const auto deadline = after(start, options.seconds);
  fleet::SessionFactory factory(session_spec(), kDiversitySeed, variants::builtin_registry());
  const auto config = http_config();
  const auto expected = expected_http_bodies(config);
  const auto pages = page_rotation(options.seed);
  const std::uint16_t port = config.listen_port;

  if (!options.trace) {
    auto setup = set_up_server(factory, config, false, kSetupReps);
    auto& hub = setup.server->session.system->hub();
    std::size_t next = 0;
    (void)run_gets(hub, port, pages, next, expected, kWarmupGets, Clock::time_point::max(),
                   nullptr, nullptr);
    const double cpu0 = process_cpu_s();
    const auto loop =
        run_gets(hub, port, pages, next, expected, SIZE_MAX, deadline, nullptr, nullptr);
    const double cpu1 = process_cpu_s();
    const auto run = stop_server(*setup.server);
    if (!clean(run)) throw GateError("server did not exit cleanly after the run");
    const double n = static_cast<double>(loop.latency_us.size());
    const double served = n + kWarmupGets;
    report.add("setup_s", median(setup.setup_s), "s", setup.setup_s.size());
    add_request_latency(report, loop.latency_us);
    report.add("goodput_rps", per_second_rate(loop.done_at, loop.start, loop.end), "1/s");
    report.add("fail_frac", 0.0, "frac");
    report.add("cpu_ms_per_req", (cpu1 - cpu0) * 1e3 / n, "ms");
    report.add("peak_rss_mb", peak_rss_mb(), "MiB");
    report.add("core.rounds_per_req",
               static_cast<double>(run.syscall_rounds - setup.idle.syscall_rounds) / served,
               "count");
    result.attempted = loop.latency_us.size();
    return result;
  }

  // Traced: configuration-1 floor, then an untraced and a traced server.
  const double budget = options.seconds;
  const auto plain = plain_http_floor(pages, 0.2 * budget);
  report.add_percentile("vkernel.plain_req_p50_us", plain, 0.5);
  report.add_percentile("fleet.session_draw_p50_us", session_draws(), 0.5);

  auto untraced = set_up_server(factory, config, false, 1);
  std::size_t next = 0;
  auto& hub_a = untraced.server->session.system->hub();
  (void)run_gets(hub_a, port, pages, next, expected, kWarmupGets, Clock::time_point::max(),
                 nullptr, nullptr);
  const auto loop_a = run_gets(hub_a, port, pages, next, expected, SIZE_MAX,
                               after(Clock::now(), 0.3 * budget), nullptr, nullptr);
  if (!clean(stop_server(*untraced.server))) throw GateError("untraced server exited uncleanly");

  auto traced = set_up_server(factory, config, true, kSetupReps);
  auto& hub_b = traced.server->session.system->hub();
  std::vector<std::uint64_t> request_spans;
  next = 0;
  (void)run_gets(hub_b, port, pages, next, expected, kWarmupGets, Clock::time_point::max(),
                 &spans, &request_spans);
  const auto loop_b = run_gets(hub_b, port, pages, next, expected, SIZE_MAX,
                               std::max(deadline, after(Clock::now(), 0.2 * budget)), &spans,
                               &request_spans);
  const auto run = stop_server(*traced.server);
  if (!clean(run)) throw GateError("traced server exited uncleanly");

  LayerStats layers = std::move(traced.layers);
  absorb_window(layers, *traced.server->trace, spans, request_spans, loop_b.start, loop_b.end,
                vkernel::Sys::kAccept);
  const double n = static_cast<double>(loop_b.latency_us.size());
  const double served = n + kWarmupGets;
  add_core_metrics(report, layers, n);
  report.add("core.rounds_per_req",
             static_cast<double>(run.syscall_rounds - traced.idle.syscall_rounds) / served,
             "count");
  report.add("core.batches_per_req",
             static_cast<double>(run.syscall_batches - traced.idle.syscall_batches) / served,
             "count");
  report.add("core.async_per_req",
             static_cast<double>(run.async_completions - traced.idle.async_completions) / served,
             "count");
  const fleet::FleetSnapshot none;
  add_fleet_counts(report, none, none);
  report.note("fleet counts are 0: httpd_table3 has no fleet");
  const double p50_a = median(loop_a.latency_us);
  const double p50_b = median(loop_b.latency_us);
  report.add("trace.overhead_frac", p50_b / p50_a - 1.0, "frac");
  report.note("untraced req_p50_us " + std::to_string(p50_a) + " (n=" +
              std::to_string(loop_a.latency_us.size()) + "), traced " + std::to_string(p50_b) +
              " (n=" + std::to_string(loop_b.latency_us.size()) + ")");
  result.attempted = loop_b.latency_us.size();
  return result;
}

RunResult run_fleet_open_attack(const RunOptions& options, SpanLog& spans) {
  RunResult result;
  Report& report = result.report;
  const Programs programs;
  const double budget = options.seconds;
  check_programs_match_library();

  if (options.trace) {
    report.add_percentile("vkernel.plain_req_p50_us",
                          plain_http_floor(page_rotation(options.seed), 0.15 * budget), 0.5);
    report.add_percentile("fleet.session_draw_p50_us", session_draws(), 0.5);
  }

  // The schedule: warm-up and main phase at the main rate, then the ladder
  // (untraced), or an untraced and a traced half (traced).
  util::Rng rng(options.seed);
  std::vector<Arrival> arrivals;
  double t = 0.0;
  schedule(rng, t, kWarmupSeconds, kMainRate, kWarmupPhase, arrivals);
  t = kWarmupSeconds;
  double main_s = 0.0;
  double rung_s = 0.0;
  if (!options.trace) {
    // Each rung is long enough for ~1000 benign arrivals at 300/s.
    main_s = 0.57 * budget;
    rung_s = 0.38 * budget / kLadder.size();
    schedule(rng, t, t + main_s, kMainRate, kMainPhase, arrivals);
    t += main_s;
    for (std::size_t r = 0; r < kLadder.size(); ++r) {
      schedule(rng, t, t + rung_s, kLadder[r], kFirstRungPhase + static_cast<int>(r), arrivals);
      t += rung_s;
    }
  } else {
    main_s = 0.3 * budget;
    schedule(rng, t, t + main_s, kMainRate, kMainPhase, arrivals);
    t += main_s;
    schedule(rng, t, t + 0.35 * budget, kMainRate, kTracedPhase, arrivals);
    t += 0.35 * budget;
  }

  std::vector<double> setup_s;
  const auto config = fleet_config(fleet::AdmissionPolicy::kShed);
  auto service = set_up_fleet(
      config,
      [&programs](core::NVariantSystem& system) {
        OutputCheck check;
        return http_stream(system, programs.http, programs.browse[kBrowseMin], {}, check, nullptr);
      },
      options.trace ? 1 : kSetupReps, setup_s);
  const auto base = service->telemetry().snapshot();

  FleetClient client(*service, programs, spans);
  const auto origin = Clock::now();
  double cpu_main0 = 0.0, cpu_main1 = 0.0;
  int current_phase = kWarmupPhase;
  for (const auto& arrival : arrivals) {
    const auto due = after(origin, arrival.at_s);
    std::this_thread::sleep_until(due);
    if (arrival.phase != current_phase) {
      if (arrival.phase == kMainPhase) cpu_main0 = process_cpu_s();
      if (current_phase == kMainPhase) cpu_main1 = process_cpu_s();
      current_phase = arrival.phase;
    }
    client.submit(arrival.kind, arrival.browse, arrival.phase,
                  arrival.phase == kTracedPhase, due);
  }
  if (current_phase == kMainPhase) cpu_main1 = process_cpu_s();
  finish_client(client);
  const auto end = service->telemetry().snapshot();
  service.reset();
  check_accounting(client, base, end, report);

  const auto in_phase = [&](int phase) {
    return select(client.done(), [phase](const Done& d) { return d.phase == phase; });
  };
  const auto main = in_phase(kMainPhase);
  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> detect_us;
  std::uint64_t attacks = 0, attacks_shed = 0;
  for (const Done* done : main) {
    if (is_attack(done->kind)) {
      ++attacks;
      if (done->verdict == Verdict::kShed) {
        ++attacks_shed;
      } else {
        detect_us.push_back(done->latency_us());
      }
      continue;
    }
    ++attempted;
    if (done->verdict != Verdict::kOk) ++failed;
  }
  const auto main_latency = benign_ok_latencies(main);
  result.attempted = attempted;
  result.failed = failed;

  if (options.trace) {
    const auto traced = in_phase(kTracedPhase);
    add_fleet_layer_metrics(report, client, traced, 0.35 * budget);
    add_fleet_counts(report, base, end);
    const double p50_a = median(main_latency);
    const double p50_b = median(benign_ok_latencies(traced));
    report.add("trace.overhead_frac", p50_b / p50_a - 1.0, "frac");
    report.note("untraced req_p50_us " + std::to_string(p50_a) + ", traced " +
                std::to_string(p50_b));
    return result;
  }

  report.add("setup_s", median(setup_s), "s", setup_s.size());
  add_request_latency(report, main_latency);
  std::vector<Clock::time_point> completions;
  for (const auto& done : client.done()) {
    if (!is_attack(done.kind) && done.verdict == Verdict::kOk) completions.push_back(done.resolved);
  }
  const auto main_from = after(origin, kWarmupSeconds);
  report.add("goodput_rps",
             per_second_rate(completions, main_from, after(main_from, main_s)), "1/s");
  report.add("fail_frac", static_cast<double>(failed) / std::max<double>(1.0, attempted), "frac");
  report.add("cpu_ms_per_req", (cpu_main1 - cpu_main0) * 1e3 / std::max<double>(1.0, attempted),
             "ms");
  report.add("peak_rss_mb", peak_rss_mb(), "MiB");
  report.add_percentile("detect_p50_us", detect_us, 0.5);
  report.add("attacks", static_cast<double>(attacks), "count");
  report.add("attacks_shed", static_cast<double>(attacks_shed), "count");
  add_fleet_counts(report, base, end);

  // The ladder: the highest fixed rate that meets every limit, with every
  // lower rate (the main phase included) meeting them too.
  const auto& depths = client.depths();
  const double main_fail = static_cast<double>(failed) / std::max<double>(1.0, attempted);
  bool holding = main_fail <= kFailLimit && percentile(main_latency, 0.99) <= kP99LimitUs;
  double sustained = holding ? kMainRate : 0.0;
  for (std::size_t r = 0; r < kLadder.size(); ++r) {
    const auto rung = in_phase(kFirstRungPhase + static_cast<int>(r));
    std::vector<double> latency;  // a failed request misses the limit
    std::uint64_t benign = 0, bad = 0;
    for (const Done* done : rung) {
      if (is_attack(done->kind)) continue;
      ++benign;
      if (done->verdict == Verdict::kOk) {
        latency.push_back(done->latency_us());
      } else {
        ++bad;
        latency.push_back(std::numeric_limits<double>::infinity());
      }
    }
    // Queue growth: mean scraped depth in the rung's second half minus its
    // first half.
    const double from_s = kWarmupSeconds + main_s + static_cast<double>(r) * rung_s;
    const auto mid = after(origin, from_s + rung_s / 2);
    double sum[2] = {0.0, 0.0};
    std::size_t count[2] = {0, 0};
    for (const auto& [when, depth] : depths) {
      if (when < after(origin, from_s) || when >= after(origin, from_s + rung_s)) continue;
      const int half = when < mid ? 0 : 1;
      sum[half] += static_cast<double>(depth);
      ++count[half];
    }
    const double growth = (count[1] > 0 ? sum[1] / count[1] : 0.0) -
                          (count[0] > 0 ? sum[0] / count[0] : 0.0);
    const double p99 = percentile(latency, 0.99);
    const double fail = static_cast<double>(bad) / std::max<double>(1.0, benign);
    const bool meets = fail <= kFailLimit && p99 <= kP99LimitUs && growth <= kQueueGrowthLimit;
    holding = holding && meets;
    if (holding) sustained = kLadder[r];
    report.note("ladder " + std::to_string(static_cast<int>(kLadder[r])) + "/s: benign " +
                std::to_string(benign) + ", fail_frac " + std::to_string(fail) + ", p99 " +
                (std::isfinite(p99) ? std::to_string(p99) + " us" : std::string("inf")) +
                ", queue growth " + std::to_string(growth) + (meets ? " -> meets" : " -> misses"));
  }
  report.add("sustained_rps", sustained, "1/s");
  return result;
}

RunResult run_churn_saturated(const RunOptions& options, SpanLog& spans) {
  RunResult result;
  Report& report = result.report;
  const Programs programs;
  const double budget = options.seconds;
  check_programs_match_library();

  if (options.trace) {
    report.add_percentile("vkernel.plain_req_p50_us", plain_churn_floor(0.15 * budget), 0.5);
    report.add_percentile("fleet.session_draw_p50_us", session_draws(), 0.5);
  }

  std::vector<double> setup_s;
  auto service = set_up_fleet(fleet_config(fleet::AdmissionPolicy::kBlock), programs.library_churn,
                            options.trace ? 1 : kSetupReps, setup_s);
  const auto base = service->telemetry().snapshot();

  // Phase boundaries on the wall clock: warm-up, main (untraced), and for the
  // traced run a traced second half.
  const auto origin = Clock::now();
  const auto main_from = after(origin, kWarmupSeconds);
  const double main_s = options.trace ? 0.3 * budget : 0.9 * budget;
  const auto main_to = after(main_from, main_s);
  const double traced_s = options.trace ? 0.35 * budget : 0.0;
  const auto end_at = after(main_to, traced_s);
  const auto phase_at = [&](Clock::time_point now) {
    return now < main_from ? kWarmupPhase : now < main_to ? kMainPhase : kTracedPhase;
  };

  std::atomic<std::uint64_t> outstanding{0};
  FleetClient* client_ptr = nullptr;
  FleetClient client(*service, programs, spans, [&](const Done&) {
    // Closed loop: every resolution submits the next job until the end.
    const auto now = Clock::now();
    if (now < end_at) {
      const int phase = phase_at(now);
      client_ptr->submit(JobKind::kChurn, 0, phase, phase == kTracedPhase, now);
    } else {
      outstanding.fetch_sub(1);
    }
  });
  client_ptr = &client;
  for (unsigned i = 0; i < kChurnOutstanding; ++i) {
    outstanding.fetch_add(1);
    client.submit(JobKind::kChurn, 0, kWarmupPhase, false, Clock::now());
  }
  std::this_thread::sleep_until(main_from);
  const double cpu0 = process_cpu_s();
  std::this_thread::sleep_until(main_to);
  const double cpu1 = process_cpu_s();
  std::this_thread::sleep_until(end_at);
  while (outstanding.load() > 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  finish_client(client);
  const auto end = service->telemetry().snapshot();
  service.reset();
  check_accounting(client, base, end, report);

  // Requests are attributed to the phase they were submitted in; goodput
  // counts the jobs that resolved inside the main window.
  const auto main = select(client.done(), [](const Done& d) { return d.phase == kMainPhase; });
  std::uint64_t failed = 0, resolved_in_main = 0;
  std::vector<Clock::time_point> completions;
  for (const auto& done : client.done()) {
    if (done.verdict != Verdict::kOk) continue;
    completions.push_back(done.resolved);
    if (done.resolved >= main_from && done.resolved < main_to) ++resolved_in_main;
  }
  for (const Done* done : main) failed += done->verdict == Verdict::kOk ? 0 : 1;
  const auto main_latency = benign_ok_latencies(main);
  result.attempted = main.size();
  result.failed = failed;

  if (options.trace) {
    const auto traced =
        select(client.done(), [](const Done& d) { return d.phase == kTracedPhase; });
    add_fleet_layer_metrics(report, client, traced, traced_s);
    add_fleet_counts(report, base, end);
    const double p50_a = median(main_latency);
    const double p50_b = median(benign_ok_latencies(traced));
    report.add("trace.overhead_frac", p50_b / p50_a - 1.0, "frac");
    report.note("untraced req_p50_us " + std::to_string(p50_a) + ", traced " +
                std::to_string(p50_b));
    return result;
  }

  report.add("setup_s", median(setup_s), "s", setup_s.size());
  add_request_latency(report, main_latency);
  report.add("goodput_rps", per_second_rate(completions, main_from, main_to), "1/s");
  report.add("fail_frac", static_cast<double>(failed) / std::max<double>(1.0, main.size()),
             "frac");
  report.add("cpu_ms_per_req", (cpu1 - cpu0) * 1e3 / std::max<double>(1.0, resolved_in_main),
             "ms");
  report.add("peak_rss_mb", peak_rss_mb(), "MiB");
  add_fleet_counts(report, base, end);
  return result;
}

}  // namespace perfbench
