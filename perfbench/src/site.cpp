#include "site.h"

#include <chrono>
#include <thread>

#include "guest/runners.h"
#include "httpd/client.h"
#include "httpd/mini_httpd.h"
#include "vfs/filesystem.h"

namespace perfbench {

namespace {

/// fleet/jobs.cpp's bind wait: poll every 1 ms until the server binds, the
/// monitor trips, or 2 s pass.
void wait_for_bind(core::NVariantSystem& system, std::uint16_t port) {
  const auto deadline = Clock::now() + std::chrono::seconds(2);
  while (!system.hub().is_bound(port) && !system.monitor().triggered() &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void launch(core::NVariantSystem& system, guest::GuestProgram& program, JobTrace* trace) {
  if (trace == nullptr) {
    guest::launch_nvariant(system, program);
    return;
  }
  trace->launch_call = Clock::now();
  system.launch(trace->wrap(guest::as_variant_body(program)));
}

core::RunReport stop(core::NVariantSystem& system, JobTrace* trace) {
  if (trace == nullptr) return system.stop();
  trace->stop_call = Clock::now();
  auto report = system.stop();
  trace->stopped = Clock::now();
  return report;
}

std::string trim_crlf(std::string line) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) line.pop_back();
  return line;
}

std::string describe(const core::RunReport& report) {
  std::string text = "rounds=" + std::to_string(report.syscall_rounds) +
                     " batches=" + std::to_string(report.syscall_batches) +
                     " async=" + std::to_string(report.async_completions) + " exits=";
  for (const int code : report.exit_codes) text += std::to_string(code) + ";";
  return text + (report.attack_detected ? " alarm" : "");
}

}  // namespace

std::map<std::string, std::string> expected_http_bodies(const httpd::ServerConfig& config) {
  vfs::FileSystem fs;
  (void)httpd::install_default_site(fs, config);
  const auto root = os::Credentials::root();
  const auto file = [&](const std::string& path) {
    auto content = fs.read_file(config.document_root + path, root);
    return content ? *content : std::string();
  };
  return {
      {"/", file("/index.html")},
      {"/page1.html", file("/page1.html")},
      {"/page2.html", file("/page2.html")},
      {"/secret/key.txt", file("/secret/key.txt")},
      {"/whoami", "user\n"},
  };
}

std::vector<std::string> expected_ftp_replies(const httpd::FtpdConfig& config) {
  vfs::FileSystem fs;
  httpd::install_ftpd_site(fs, config);
  auto notes = fs.read_file("/home/alice/notes.txt", os::Credentials::root());
  // ftp_normal_session(): USER alice, PASS, RETR notes, WHOAMI, QUIT.
  return {"220 mini-ftpd ready", "331 need password", "230 logged in",
          trim_crlf("150 " + (notes ? *notes : std::string())), "211 user", "221 bye"};
}

void check_http(const httpd::HttpResponse& response, const std::string& path,
                const std::map<std::string, std::string>& expected, OutputCheck& check) {
  const auto want = expected.find(path);
  if (want == expected.end()) {
    check.fail("no expected body for " + path);
  } else if (response.status != 200) {
    check.fail("GET " + path + " -> status " + std::to_string(response.status));
  } else if (response.body != want->second) {
    check.fail("GET " + path + " -> wrong body (" + std::to_string(response.body.size()) +
               " bytes)");
  }
}

core::RunReport http_stream(core::NVariantSystem& system, const httpd::ServerConfig& config,
                            const std::vector<fleet::jobs::HttpPlay>& plays,
                            const Expectations& expect, OutputCheck& check, JobTrace* trace) {
  httpd::install_default_site(system.fs(), config);
  httpd::MiniHttpd server;
  launch(system, server, trace);
  // The variant threads reference `server`: stop() before every exit.
  try {
    wait_for_bind(system, config.listen_port);
    std::size_t answered = 0;
    for (const auto& play : plays) {
      if (system.monitor().triggered()) break;
      const auto response = httpd::http_get(system.hub(), config.listen_port, play.path,
                                            play.headers);
      ++answered;
      if (expect.http != nullptr) check_http(response, play.path, *expect.http, check);
    }
    if (expect.http != nullptr && answered != plays.size()) {
      check.fail("stream cut short after " + std::to_string(answered) + " requests");
    }
  } catch (...) {
    (void)stop(system, trace);
    throw;
  }
  return stop(system, trace);
}

core::RunReport ftp_session(core::NVariantSystem& system, const httpd::FtpdConfig& config,
                            const std::vector<std::string>& commands, const Expectations& expect,
                            OutputCheck& check, JobTrace* trace) {
  httpd::install_ftpd_site(system.fs(), config);
  httpd::MiniFtpd server(config);
  launch(system, server, trace);
  try {
    wait_for_bind(system, config.listen_port);
    std::vector<std::string> replies;
    auto conn = system.hub().connect(config.listen_port);
    if (conn) {
      auto greeting = conn->recv_until("\r\n");
      if (greeting) replies.push_back(trim_crlf(*greeting));
      for (const auto& command : commands) {
        if (system.monitor().triggered()) break;
        if (!conn->send(command + "\r\n")) break;
        auto reply = conn->recv_until("\r\n");
        if (!reply || reply->empty()) break;
        replies.push_back(trim_crlf(*reply));
      }
      conn->close();
    }
    if (expect.ftp != nullptr && replies != *expect.ftp) {
      std::size_t i = 0;
      while (i < replies.size() && i < expect.ftp->size() && replies[i] == (*expect.ftp)[i]) ++i;
      check.fail("FTP reply " + std::to_string(i) + " is \"" +
                 (i < replies.size() ? replies[i] : std::string("<none>")) + "\"");
    }
  } catch (...) {
    (void)stop(system, trace);
    throw;
  }
  return stop(system, trace);
}

void UidChurnGuest::run(guest::GuestContext& ctx) {
  for (unsigned i = 0; i < rounds_; ++i) {
    const os::uid_t worker = ctx.uid_const(1000 + (i % 7));
    if (ctx.seteuid(worker) != os::Errno::kOk) ctx.exit(1);
    const os::uid_t euid = ctx.geteuid();
    vkernel::SyscallBatch checks;
    vkernel::SyscallArgs uid_value;
    uid_value.no = vkernel::Sys::kUidValue;
    uid_value.ints = {euid};
    checks.calls.push_back(std::move(uid_value));
    vkernel::SyscallArgs not_root;
    not_root.no = vkernel::Sys::kCcCmp;
    not_root.ints = {static_cast<std::uint64_t>(vkernel::CcOp::kNeq), euid, ctx.uid_const(0)};
    checks.calls.push_back(std::move(not_root));
    const auto verdicts = ctx.raw_syscall_batch(checks);
    if (verdicts.size() != 2 || verdicts[1].value == 0) ctx.exit(2);
    if (ctx.seteuid(ctx.uid_const(0)) != os::Errno::kOk) ctx.exit(3);
  }
  ctx.exit(0);
}

core::RunReport churn(core::NVariantSystem& system, unsigned rounds, JobTrace* trace) {
  UidChurnGuest guest(rounds);
  if (trace == nullptr) return guest::run_nvariant(system, guest);
  trace->launch_call = Clock::now();
  auto report = system.run(trace->wrap(guest::as_variant_body(guest)));
  trace->stopped = Clock::now();
  return report;
}

bool clean(const core::RunReport& report) {
  if (!report.completed || report.attack_detected || report.exit_codes.empty()) return false;
  for (const int code : report.exit_codes) {
    if (code != 0) return false;
  }
  return true;
}

std::string check_against_library(
    const std::function<std::unique_ptr<core::NVariantSystem>()>& make_system) {
  std::string differences;
  const auto compare = [&](const char* what, const core::RunReport& ours,
                           const core::RunReport& library) {
    if (describe(ours) != describe(library)) {
      differences += std::string(what) + ": benchmark " + describe(ours) + " vs library " +
                     describe(library) + "\n";
    }
  };
  const Expectations none;
  OutputCheck ignored;
  httpd::ServerConfig http;
  const auto plays = fleet::jobs::normal_browse(5);
  compare("httpd_request_stream", http_stream(*make_system(), http, plays, none, ignored, nullptr),
          fleet::jobs::httpd_request_stream(http, plays)(*make_system()));
  const auto attack = fleet::jobs::uid_smash_attack();
  compare("httpd uid_smash_attack",
          http_stream(*make_system(), http, attack, none, ignored, nullptr),
          fleet::jobs::httpd_request_stream(http, attack)(*make_system()));
  httpd::FtpdConfig ftp;
  const auto session = fleet::jobs::ftp_normal_session();
  compare("ftpd_command_stream", ftp_session(*make_system(), ftp, session, none, ignored, nullptr),
          fleet::jobs::ftpd_command_stream(ftp, session)(*make_system()));
  const auto site = fleet::jobs::ftp_site_attack();
  compare("ftpd ftp_site_attack", ftp_session(*make_system(), ftp, site, none, ignored, nullptr),
          fleet::jobs::ftpd_command_stream(ftp, site)(*make_system()));
  compare("uid_churn", churn(*make_system(), 100, nullptr),
          fleet::jobs::uid_churn(100)(*make_system()));
  return differences;
}

}  // namespace perfbench
