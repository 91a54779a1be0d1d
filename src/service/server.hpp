// qbpartd's core: a long-running job server over the NDJSON protocol,
// with an optional binary framing on the same connections (handle_frame /
// WireMode; layouts in docs/PROTOCOL.md).
//
// Architecture (one Server instance, any number of client connections):
//
//   reader(s) --> handle_line --> bounded JobQueue --> worker pool
//                     |                                   |
//                     |  immediate responses              |  result lines
//                     v  (reject/stats/errors)            v
//                 response sink  <-------------------- respond()
//
//   + deadline watchdog: one thread holding a min-heap of job deadlines;
//     fires the job's stop source (StopCause::kDeadline) whether the job is
//     still queued or already running -- both paths funnel into the
//     cooperative should_stop hooks of the engine layer;
//   + metrics: every lifecycle edge increments the registry; a `stats`
//     request (and an optional periodic stderr line) renders the snapshot.
//
// Responses are serialized through one internal mutex, so sinks need no
// locking of their own and lines never interleave.  Each job remembers the
// sink of the connection that submitted it: in TCP mode results route back
// to the right client, in pipe mode everything shares the stdout sink.
//
// Lifecycle: construct -> (start() if not auto) -> handle_line()* ->
// begin_drain() -> drain().  begin_drain closes the queue (new submits are
// rejected with "server draining"); drain blocks until every accepted job
// has been answered and the workers exited.  The SIGINT/SIGTERM path of
// qbpartd is exactly this sequence, so a loaded server finishes what it
// accepted and exits 0.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/cache.hpp"
#include "service/job.hpp"
#include "service/metrics.hpp"
#include "service/queue.hpp"
#include "util/annotations.hpp"
#include "util/check.hpp"

namespace qbp::service {

/// Edge framing for the serve loops (docs/PROTOCOL.md).  kAuto sniffs the
/// first byte of each connection: the binary frame magic starts with a
/// byte that can never open an NDJSON line, so detection is unambiguous.
/// kNdjson pins the pre-binary behaviour exactly (frames are treated as
/// text and answered with NDJSON parse errors); kBinary requires frames.
enum class WireMode { kAuto, kNdjson, kBinary };

struct ServerOptions {
  /// Concurrent jobs (each job may additionally fan out portfolio threads
  /// of its own, bounded by the job's solver spec).
  std::int32_t workers = 1;
  /// Queue bound; a full queue rejects new submits (backpressure).
  std::size_t queue_capacity = 64;
  /// Emit one metrics JSON line on stderr every interval; 0 disables.
  double stats_interval_s = 0.0;
  /// Launch workers in the constructor.  Tests set this false and call
  /// start() after staging submissions, making pop order deterministic.
  bool autostart = true;
  /// Solution-cache capacity in entries (DESIGN.md §13); 0 disables both
  /// the exact-hit path and ECO warm starts, making every job bit-identical
  /// to the pre-cache server.
  std::size_t cache_capacity = 64;
  /// Contract-violation fail mode installed (process-wide) at construction.
  /// The daemon default is throw: a violation -- hostile input reaching a
  /// construction boundary, or a shadow-audit mismatch -- fails the one
  /// offending job with a descriptive error and the server survives.
  /// kAbort restores fail-fast; kLogAndCount audits without failing jobs.
  /// Every violation in any mode bumps the `contract_violations` counter.
  check::FailMode fail_mode = check::FailMode::kThrow;
};

class Server {
 public:
  using Sink = Job::Sink;

  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Launch the worker pool (idempotent).
  void start();

  /// Dispatch one protocol line; immediate responses (reject, stats, parse
  /// errors, shutdown acknowledgement) are delivered to `respond` before
  /// returning, job results arrive on it later from a worker thread.  The
  /// sink is copied into accepted jobs and must stay callable until drain()
  /// returns.  Thread-safe.
  void handle_line(std::string_view line, const Sink& respond);

  /// Dispatch one binary frame (already split from the byte stream by
  /// util/wire FrameBuffer).  The same contract as handle_line, except
  /// every response delivered to `respond` is a complete binary frame and
  /// the sink must write it verbatim (no newline framing).  Thread-safe.
  void handle_frame(std::uint8_t type, std::string_view payload,
                    const Sink& respond);

  /// Stop accepting submits; queued and running jobs keep going.
  void begin_drain();

  /// begin_drain() + block until every accepted job has been answered and
  /// the worker threads exited.
  void drain();

  /// A {"type":"shutdown"} request arrived; the serve loop polls this.
  [[nodiscard]] bool shutdown_requested() const noexcept {
    return shutdown_.load();
  }

  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] SolutionCache& cache() noexcept { return cache_; }
  [[nodiscard]] json::Value stats_json();
  [[nodiscard]] const ServerOptions& options() const noexcept { return options_; }

 private:
  struct ActiveJob {
    std::shared_ptr<std::stop_source> stop;
    std::shared_ptr<std::atomic<int>> cause;
  };
  struct DeadlineEntry {
    Job::Clock::time_point when;
    std::string id;
    std::weak_ptr<std::stop_source> stop;
    std::weak_ptr<std::atomic<int>> cause;
  };

  /// `binary` selects the rendering of immediate responses (NDJSON line vs
  /// wire frame) and is stamped into the job for its eventual result.
  void handle_submit(Request request, const Sink& respond, bool binary);
  void handle_cancel(const Request& request, const Sink& respond, bool binary);
  void worker_loop(std::int32_t worker_index);
  void finish_job(const Job& job, JobResult result);
  void watchdog_loop();
  void stats_loop();
  void emit(const Sink& sink, const std::string& line);
  /// emit() plus the wire.bytes_out accounting for binary responses.
  void emit_frame(const Sink& sink, const std::string& frame);

  ServerOptions options_;
  MetricsRegistry metrics_;
  JobQueue queue_;
  SolutionCache cache_;
  std::chrono::steady_clock::time_point started_at_;

  sync::Mutex respond_mutex_;  // serializes every response line
  sync::Mutex active_mutex_;
  std::unordered_map<std::string, ActiveJob> active_
      QBP_GUARDED_BY(active_mutex_);
  std::int64_t next_seq_ QBP_GUARDED_BY(active_mutex_) = 0;

  sync::Mutex deadline_mutex_;
  sync::CondVar deadline_cv_;
  // Min-heap by `when` (std::push_heap/pop_heap with a `>` comparator).
  std::vector<DeadlineEntry> deadlines_ QBP_GUARDED_BY(deadline_mutex_);
  bool watchdog_exit_ QBP_GUARDED_BY(deadline_mutex_) = false;

  // Worker/watchdog/stats threads block on condition variables; each job
  // runs on its worker thread (plus its portfolio's start threads).
  std::vector<std::thread> workers_;  // qbp-lint: allow(raw-thread)
  std::thread watchdog_;              // qbp-lint: allow(raw-thread)
  std::thread stats_thread_;          // qbp-lint: allow(raw-thread)
  sync::CondVar stats_cv_;
  sync::Mutex stats_mutex_;
  bool stats_exit_ QBP_GUARDED_BY(stats_mutex_) = false;

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> drained_{false};
  std::atomic<bool> shutdown_{false};

  // Cached instruments (registry lookups are mutex-guarded).
  Counter& requests_total_;
  Counter& requests_malformed_;
  Counter& jobs_submitted_;
  Counter& jobs_completed_;
  Counter& jobs_ok_;
  Counter& jobs_infeasible_;
  Counter& jobs_rejected_;
  Counter& jobs_cancelled_;
  Counter& jobs_deadline_exceeded_;
  Counter& jobs_error_;
  Gauge& queue_depth_;
  Gauge& workers_busy_;
  // Cumulative presolve reduction totals across all completed jobs, plus
  // the per-job presolve wall clock.
  Counter& presolve_r0_;
  Counter& presolve_r1_;
  Counter& presolve_r2_;
  Counter& presolve_rn_;
  Counter& presolve_removed_;
  Histogram& presolve_seconds_;
  // Solution-cache snapshot (mirrored from SolutionCache::stats() when a
  // stats line renders) and cumulative ECO totals across completed jobs.
  Gauge& cache_hits_;
  Gauge& cache_misses_;
  Gauge& cache_evictions_;
  Gauge& cache_inserts_;
  Gauge& cache_entries_;
  Gauge& cache_bytes_;
  Counter& eco_exact_hits_;
  Counter& eco_warm_starts_;
  Counter& eco_repairs_;
  Histogram& queue_wait_seconds_;
  Histogram& solve_seconds_;
  Histogram& objective_;
  Counter& contract_violations_;
  // Binary wire framing (docs/PROTOCOL.md): frames dispatched, raw bytes
  // in both directions (headers included), and the per-frame decode cost
  // of the zero-copy submit path.
  Counter& wire_frames_;
  Counter& wire_bytes_in_;
  Counter& wire_bytes_out_;
  Histogram& wire_decode_seconds_;
};

/// Pipe / socket serve loops (POSIX).  Both read requests until EOF, a
/// shutdown request, or a byte on `wake_fd` (the signal handler's
/// self-pipe; pass -1 for none), then drain the server and return 0.
/// `mode` picks the edge framing per connection (WireMode above); a
/// malformed binary frame answers with one error frame and fails only that
/// connection, never the daemon.
/// serve_fd reads from `in_fd` and writes every response to `out_fd`.
[[nodiscard]] int serve_fd(Server& server, int in_fd, int out_fd, int wake_fd,
                           WireMode mode = WireMode::kAuto);

/// Listens on 127.0.0.1:`port` (one thread per connection; responses route
/// to the submitting connection).  Returns 0 on clean drain, 1 on socket
/// setup failure.  `bound_port`, when non-null, receives the actual
/// listening port (useful with port 0) before the accept loop starts.
[[nodiscard]] int serve_tcp(Server& server, std::uint16_t port, int wake_fd,
                            WireMode mode = WireMode::kAuto,
                            std::atomic<std::uint16_t>* bound_port = nullptr);

}  // namespace qbp::service
