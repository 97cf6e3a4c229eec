// The benchmark's request programs and its output gate.
//
// The jobs here make the same public calls in the same order as
// fleet::jobs::httpd_request_stream, ftpd_command_stream and uid_churn, but
// keep every response so the gate can check it, and optionally run the
// variant bodies under the timing decorator (probe.h). Owning them keeps the
// workload fixed while the library under it changes; check_against_library()
// proves at start-up that they still drive the MVEE exactly as the library
// jobs do.
#ifndef PERFBENCH_SITE_H
#define PERFBENCH_SITE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <map>
#include <string>
#include <vector>

#include "core/nvariant_system.h"
#include "fleet/jobs.h"
#include "guest/guest_program.h"
#include "httpd/config.h"
#include "httpd/http.h"
#include "httpd/mini_ftpd.h"
#include "probe.h"

namespace perfbench {

/// Response bodies of the default site, read back from a file system that
/// install_default_site populated (request path -> body). "/whoami" answers
/// "user\n": the server runs requests as its unprivileged worker.
[[nodiscard]] std::map<std::string, std::string> expected_http_bodies(
    const httpd::ServerConfig& config);

/// Reply lines fleet::jobs::ftp_normal_session() must receive, greeting
/// first, each without its CRLF.
[[nodiscard]] std::vector<std::string> expected_ftp_replies(const httpd::FtpdConfig& config);

/// The gate's verdict on one request program's responses.
struct OutputCheck {
  bool ok = true;
  std::string detail;  // first mismatch
  void fail(std::string why) {
    if (ok) detail = std::move(why);
    ok = false;
  }
};

/// Check one HTTP response byte for byte: status 200 and the site's body.
void check_http(const httpd::HttpResponse& response, const std::string& path,
                const std::map<std::string, std::string>& expected, OutputCheck& check);

/// What a request program checks its responses against (null: no check, as
/// for attack traffic).
struct Expectations {
  const std::map<std::string, std::string>* http = nullptr;
  const std::vector<std::string>* ftp = nullptr;
};

/// install_default_site, launch mini-httpd, wait for bind (1 ms poll, as the
/// library job does), GET each play, stop.
core::RunReport http_stream(core::NVariantSystem& system, const httpd::ServerConfig& config,
                            const std::vector<fleet::jobs::HttpPlay>& plays,
                            const Expectations& expect, OutputCheck& check, JobTrace* trace);

/// install_ftpd_site, launch mini-ftpd, wait for bind, one control session
/// (greeting, then one reply per command), stop.
core::RunReport ftp_session(core::NVariantSystem& system, const httpd::FtpdConfig& config,
                            const std::vector<std::string>& commands, const Expectations& expect,
                            OutputCheck& check, JobTrace* trace);

/// The guest of fleet::jobs::uid_churn, call for call (the library keeps
/// its class private): `rounds` drop / coalesced uid_value+cc_neq / restore
/// cycles, then exit(0). Any failed check exits non-zero.
class UidChurnGuest final : public guest::GuestProgram {
 public:
  explicit UidChurnGuest(unsigned rounds) : rounds_(rounds) {}
  [[nodiscard]] std::string_view name() const override { return "uid-churn"; }
  void run(guest::GuestContext& ctx) override;

 private:
  unsigned rounds_;
};

/// run() the churn guest on `system`, under the decorator when `trace`.
core::RunReport churn(core::NVariantSystem& system, unsigned rounds, JobTrace* trace);

/// True when `report` is a clean run: every variant exited 0, no alarm.
[[nodiscard]] bool clean(const core::RunReport& report);

/// Run each benchmark program and its library counterpart on fresh systems
/// from `make_system` and compare rendezvous rounds, batches, async
/// completions and exit codes. Returns an empty string when they agree,
/// else what differs.
[[nodiscard]] std::string check_against_library(
    const std::function<std::unique_ptr<core::NVariantSystem>()>& make_system);

}  // namespace perfbench

#endif  // PERFBENCH_SITE_H
