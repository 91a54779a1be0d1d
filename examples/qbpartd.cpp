// qbpartd: a long-running batch partitioning job server.
//
//   # pipe mode: NDJSON requests on stdin, responses on stdout
//   ./qbpart_submit --problem sample.qp --print | ./qbpartd --workers 4
//
//   # socket mode: local TCP, one connection per client
//   ./qbpartd --tcp 7193 --workers 4 --stats-interval 10 &
//   ./qbpart_submit --tcp 7193 --problem sample.qp
//
// Protocol: one JSON object per line (see src/service/protocol.hpp for the
// full schema).  Each job names a solver method (qbp | multilevel | gfm |
// gkl | sa), a portfolio start count, a seed, an optional deadline and a
// priority.  Results are deterministic: the same job spec and seed yield a
// bit-identical assignment no matter how loaded the server is or how many
// --workers it runs.
//
// SIGINT/SIGTERM drain gracefully: accepted jobs are finished and answered,
// new submits are rejected, then the process exits 0.
#include <csignal>
#include <cstdio>

#include <unistd.h>

#include <string>

#include "core/validate.hpp"
#include "service/server.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/prof.hpp"

namespace {

// Self-pipe: the only async-signal-safe way to wake a poll() loop.
int g_wake_write_fd = -1;

void on_signal(int /*signum*/) {
  const char byte = 1;
  // Result ignored deliberately: a full pipe still wakes the poller.
  [[maybe_unused]] const auto n = ::write(g_wake_write_fd, &byte, 1);
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t workers = 1;
  std::int64_t queue_capacity = 64;
  std::int64_t tcp_port = -1;
  double stats_interval = 0.0;
  bool pipe_mode = false;
  bool verbose = false;
  bool validate = false;
  bool profile = false;
  std::string check_mode = "throw";
  std::string cache_mode = "on";
  std::int64_t cache_capacity = 64;
  std::string wire = "auto";

  qbp::CliParser cli("qbpartd",
                     "batch partitioning job server: NDJSON jobs in, "
                     "deterministic results out");
  cli.add_int("workers", workers, "concurrent jobs");
  cli.add_int("queue", queue_capacity,
              "queue bound; a full queue rejects new submits");
  cli.add_int("tcp", tcp_port, "listen on 127.0.0.1:PORT (0 = ephemeral)");
  cli.add_flag("pipe", pipe_mode,
               "serve stdin -> stdout (default when --tcp absent)");
  cli.add_double("stats-interval", stats_interval,
                 "emit a metrics JSON line on stderr every N seconds");
  cli.add_flag("verbose", verbose, "per-job lifecycle logs on stderr");
  cli.add_flag("validate", validate,
               "shadow-validate every job's results by default (jobs can "
               "override with the per-job 'validate' flag)");
  cli.add_string("check-mode", check_mode,
                 "contract-violation behavior: throw (fail the job; "
                 "default), abort (fail fast), count (log and continue)");
  cli.add_flag("profile", profile,
               "time solver phases; stats gain phase_seconds.* histograms");
  cli.add_string("cache", cache_mode,
                 "solution cache: on (exact hits + ECO warm starts; "
                 "default) or off (every job solves cold, bit-identical "
                 "to the pre-cache server)");
  cli.add_int("cache-capacity", cache_capacity,
              "solution cache bound in entries (LRU eviction)");
  cli.add_string("wire", wire,
                 "edge framing: auto (sniff each connection's first byte; "
                 "default), ndjson (text only, pre-binary behavior), or "
                 "binary (wire frames only; see docs/PROTOCOL.md)");
  if (const auto exit_code = cli.run(argc, argv)) return *exit_code;
  if (workers < 1 || queue_capacity < 1) {
    std::fprintf(stderr, "--workers and --queue must be >= 1\n");
    return 1;
  }
  if (tcp_port > 65535) {
    std::fprintf(stderr, "--tcp out of range\n");
    return 1;
  }
  qbp::check::FailMode fail_mode = qbp::check::FailMode::kThrow;
  if (check_mode == "abort") {
    fail_mode = qbp::check::FailMode::kAbort;
  } else if (check_mode == "count") {
    fail_mode = qbp::check::FailMode::kLogAndCount;
  } else if (check_mode != "throw") {
    std::fprintf(stderr, "--check-mode must be throw|abort|count\n");
    return 1;
  }
  if (cache_mode != "on" && cache_mode != "off") {
    std::fprintf(stderr, "--cache must be on|off\n");
    return 1;
  }
  if (cache_capacity < 0) {
    std::fprintf(stderr, "--cache-capacity must be >= 0\n");
    return 1;
  }
  qbp::service::WireMode wire_mode = qbp::service::WireMode::kAuto;
  if (wire == "ndjson") {
    wire_mode = qbp::service::WireMode::kNdjson;
  } else if (wire == "binary") {
    wire_mode = qbp::service::WireMode::kBinary;
  } else if (wire != "auto") {
    std::fprintf(stderr, "--wire must be auto|ndjson|binary\n");
    return 1;
  }
  qbp::set_validation_enabled(validate);
  qbp::prof::set_enabled(profile);
  qbp::log::set_level(verbose ? qbp::log::Level::kInfo
                              : qbp::log::Level::kWarn);

  int wake[2] = {-1, -1};
  if (::pipe(wake) != 0) {
    std::fprintf(stderr, "qbpartd: cannot create wake pipe\n");
    return 1;
  }
  g_wake_write_fd = wake[1];
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  qbp::service::ServerOptions options;
  options.workers = static_cast<std::int32_t>(workers);
  options.queue_capacity = static_cast<std::size_t>(queue_capacity);
  options.stats_interval_s = stats_interval;
  options.cache_capacity = cache_mode == "off"
                               ? 0
                               : static_cast<std::size_t>(cache_capacity);
  options.fail_mode = fail_mode;
  qbp::service::Server server(options);

  int exit_code = 0;
  if (tcp_port >= 0 && !pipe_mode) {
    exit_code = qbp::service::serve_tcp(
        server, static_cast<std::uint16_t>(tcp_port), wake[0], wire_mode);
  } else {
    exit_code = qbp::service::serve_fd(server, STDIN_FILENO, STDOUT_FILENO,
                                       wake[0], wire_mode);
  }
  ::close(wake[0]);
  ::close(wake[1]);
  return exit_code;
}
