#include "service/server.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <list>
#include <sstream>
#include <system_error>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "service/wire.hpp"
#include "util/log.hpp"
#include "util/prof.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"
#include "util/wire.hpp"

namespace qbp::service {

namespace {

bool read_file_to_string(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return static_cast<bool>(in) || in.eof();
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(options),
      queue_(options.queue_capacity),
      cache_(options.cache_capacity),
      started_at_(std::chrono::steady_clock::now()),
      requests_total_(metrics_.counter("requests_total")),
      requests_malformed_(metrics_.counter("requests_malformed")),
      jobs_submitted_(metrics_.counter("jobs_submitted")),
      jobs_completed_(metrics_.counter("jobs_completed")),
      jobs_ok_(metrics_.counter("jobs_ok")),
      jobs_infeasible_(metrics_.counter("jobs_infeasible")),
      jobs_rejected_(metrics_.counter("jobs_rejected")),
      jobs_cancelled_(metrics_.counter("jobs_cancelled")),
      jobs_deadline_exceeded_(metrics_.counter("jobs_deadline_exceeded")),
      jobs_error_(metrics_.counter("jobs_error")),
      queue_depth_(metrics_.gauge("queue_depth")),
      workers_busy_(metrics_.gauge("workers_busy")),
      presolve_r0_(metrics_.counter("presolve.r0")),
      presolve_r1_(metrics_.counter("presolve.r1")),
      presolve_r2_(metrics_.counter("presolve.r2")),
      presolve_rn_(metrics_.counter("presolve.rn")),
      presolve_removed_(metrics_.counter("presolve.components_removed")),
      presolve_seconds_(metrics_.histogram("presolve.seconds",
                                           Histogram::latency_bounds())),
      cache_hits_(metrics_.gauge("cache.hits")),
      cache_misses_(metrics_.gauge("cache.misses")),
      cache_evictions_(metrics_.gauge("cache.evictions")),
      cache_inserts_(metrics_.gauge("cache.inserts")),
      cache_entries_(metrics_.gauge("cache.entries")),
      cache_bytes_(metrics_.gauge("cache.bytes")),
      eco_exact_hits_(metrics_.counter("eco.exact_hits")),
      eco_warm_starts_(metrics_.counter("eco.warm_starts")),
      eco_repairs_(metrics_.counter("eco.repairs")),
      queue_wait_seconds_(metrics_.histogram("queue_wait_seconds",
                                             Histogram::latency_bounds())),
      solve_seconds_(
          metrics_.histogram("solve_seconds", Histogram::latency_bounds())),
      objective_(metrics_.histogram("objective")),
      contract_violations_(metrics_.counter("contract_violations")),
      wire_frames_(metrics_.counter("wire.frames")),
      wire_bytes_in_(metrics_.counter("wire.bytes_in")),
      wire_bytes_out_(metrics_.counter("wire.bytes_out")),
      wire_decode_seconds_(metrics_.histogram("wire.decode_seconds",
                                              Histogram::latency_bounds())) {
  options_.workers = std::max<std::int32_t>(1, options_.workers);
  // Contract framework wiring: violations fail one job, not the process,
  // and every firing lands in the metrics snapshot.  Both settings are
  // process-wide; one Server instance owns them at a time (the hook is
  // uninstalled in the destructor).
  check::set_fail_mode(options_.fail_mode);
  check::set_violation_hook(
      [this](std::string_view) { contract_violations_.inc(); });
  watchdog_ = std::thread([this] { watchdog_loop(); });  // qbp-lint: allow(raw-thread)
  if (options_.stats_interval_s > 0.0) {
    stats_thread_ = std::thread([this] { stats_loop(); });  // qbp-lint: allow(raw-thread)
  }
  if (options_.autostart) start();
}

Server::~Server() {
  drain();
  // The hook captures `this`; detach it before the counter dies.
  check::set_violation_hook({});
  {
    const sync::MutexLock lock(deadline_mutex_);
    watchdog_exit_ = true;
  }
  deadline_cv_.notify_all();
  watchdog_.join();
  if (stats_thread_.joinable()) {
    {
      const sync::MutexLock lock(stats_mutex_);
      stats_exit_ = true;
    }
    stats_cv_.notify_all();
    stats_thread_.join();
  }
}

void Server::start() {
  if (started_.exchange(true)) return;
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (std::int32_t w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

void Server::emit(const Sink& sink, const std::string& line) {
  if (!sink) return;
  const sync::MutexLock lock(respond_mutex_);
  sink(line);
}

void Server::emit_frame(const Sink& sink, const std::string& frame) {
  wire_bytes_out_.inc(static_cast<std::int64_t>(frame.size()));
  emit(sink, frame);
}

void Server::handle_line(std::string_view line, const Sink& respond) {
  requests_total_.inc();
  Request request;
  if (const auto parsed = parse_request(line, request); !parsed.ok) {
    requests_malformed_.inc();
    emit(respond, format_error(parsed.message));
    return;
  }
  switch (request.type) {
    case RequestType::kSubmit:
      handle_submit(std::move(request), respond, /*binary=*/false);
      return;
    case RequestType::kCancel:
      handle_cancel(request, respond, /*binary=*/false);
      return;
    case RequestType::kStats:
      emit(respond, stats_json().dump());
      return;
    case RequestType::kShutdown: {
      shutdown_.store(true);
      json::Value ack = json::Value::object();
      ack.set("type", "shutdown");
      ack.set("status", "draining");
      emit(respond, ack.dump());
      return;
    }
  }
}

void Server::handle_frame(std::uint8_t type, std::string_view payload,
                          const Sink& respond) {
  requests_total_.inc();
  wire_frames_.inc();
  wire_bytes_in_.inc(
      static_cast<std::int64_t>(payload.size() + wire::kHeaderSize));
  const auto malformed = [&](const std::string& reason) {
    requests_malformed_.inc();
    std::string frame;
    encode_error_frame(reason, frame);
    emit_frame(respond, frame);
  };
  switch (static_cast<WireMsg>(type)) {
    case WireMsg::kSubmit: {
      const Timer decode_timer;
      Request request;
      std::string error;
      if (!decode_submit(payload, request, error)) {
        malformed(error);
        return;
      }
      wire_decode_seconds_.observe(decode_timer.seconds());
      handle_submit(std::move(request), respond, /*binary=*/true);
      return;
    }
    case WireMsg::kCancel: {
      Request request;
      std::string error;
      if (!decode_cancel(payload, request, error)) {
        malformed(error);
        return;
      }
      handle_cancel(request, respond, /*binary=*/true);
      return;
    }
    case WireMsg::kStats: {
      // The stats snapshot stays a JSON document inside a frame: it is a
      // cold debug surface, and one schema for both framings keeps every
      // dashboard working (docs/PROTOCOL.md).
      std::string frame;
      encode_stats_reply_frame(stats_json().dump(), frame);
      emit_frame(respond, frame);
      return;
    }
    case WireMsg::kShutdown: {
      shutdown_.store(true);
      std::string frame;
      encode_shutdown_ack_frame("draining", frame);
      emit_frame(respond, frame);
      return;
    }
    default:
      malformed("unknown frame type " + std::to_string(type));
  }
}

void Server::handle_submit(Request request, const Sink& respond, bool binary) {
  const auto reject = [&](const std::string& id, const std::string& reason) {
    jobs_rejected_.inc();
    if (binary) {
      std::string frame;
      encode_reject_frame(id, reason, frame);
      emit_frame(respond, frame);
    } else {
      emit(respond, format_reject(id, reason));
    }
  };

  if (!request.problem_file.empty() &&
      !read_file_to_string(request.problem_file, request.problem_text)) {
    reject(request.id,
           "cannot read problem_file '" + request.problem_file + "'");
    return;
  }

  Job job;
  job.priority = request.priority;
  job.solver = request.solver;
  job.use_cache = request.cache;
  job.warm_start = request.warm_start;
  job.problem_text = std::move(request.problem_text);
  job.problem = std::move(request.problem);
  job.binary_respond = binary;
  job.submitted_at = Job::Clock::now();
  if (request.deadline_ms > 0.0) {
    job.has_deadline = true;
    job.deadline =
        job.submitted_at +
        std::chrono::duration_cast<Job::Clock::duration>(
            std::chrono::duration<double, std::milli>(request.deadline_ms));
  }
  job.stop = std::make_shared<std::stop_source>();
  job.stop_cause =
      std::make_shared<std::atomic<int>>(static_cast<int>(StopCause::kNone));
  job.respond = respond;

  {
    const sync::MutexLock lock(active_mutex_);
    job.seq = next_seq_++;
    job.id = request.id.empty() ? "job-" + std::to_string(job.seq)
                                : std::move(request.id);
    if (active_.count(job.id) != 0) {
      reject(job.id, "duplicate id: a job with this id is still queued or "
                     "running");
      return;
    }
    active_.emplace(job.id, ActiveJob{job.stop, job.stop_cause});
  }

  const std::string id = job.id;
  const bool has_deadline = job.has_deadline;
  const auto deadline = job.deadline;
  const std::weak_ptr<std::stop_source> weak_stop = job.stop;
  const std::weak_ptr<std::atomic<int>> weak_cause = job.stop_cause;

  switch (queue_.push(std::move(job))) {
    case JobQueue::PushOutcome::kAccepted:
      break;
    case JobQueue::PushOutcome::kFull: {
      {
        const sync::MutexLock lock(active_mutex_);
        active_.erase(id);
      }
      reject(id, "queue full (capacity " + std::to_string(queue_.capacity()) +
                     ")");
      return;
    }
    case JobQueue::PushOutcome::kClosed: {
      {
        const sync::MutexLock lock(active_mutex_);
        active_.erase(id);
      }
      reject(id, "server draining");
      return;
    }
  }

  jobs_submitted_.inc();
  queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
  if (has_deadline) {
    {
      const sync::MutexLock lock(deadline_mutex_);
      deadlines_.push_back({deadline, id, weak_stop, weak_cause});
      std::push_heap(deadlines_.begin(), deadlines_.end(),
                     [](const DeadlineEntry& a, const DeadlineEntry& b) {
                       return a.when > b.when;
                     });
    }
    deadline_cv_.notify_one();
  }
  log::info("job ", id, ": accepted (queue depth ", queue_.size(), ")");
}

void Server::handle_cancel(const Request& request, const Sink& respond,
                           bool binary) {
  // Still queued: remove it and answer on the job's own sink.
  Job job;
  if (queue_.cancel(request.id, job)) {
    queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
    JobResult result;
    result.id = job.id;
    result.status = "cancelled";
    result.queue_wait_s =
        std::chrono::duration<double>(Job::Clock::now() - job.submitted_at)
            .count();
    finish_job(job, std::move(result));
    return;
  }
  // Running: fire the stop source; the worker reports the final status.
  {
    const sync::MutexLock lock(active_mutex_);
    const auto found = active_.find(request.id);
    if (found != active_.end()) {
      int expected = static_cast<int>(StopCause::kNone);
      found->second.cause->compare_exchange_strong(
          expected, static_cast<int>(StopCause::kCancel));
      found->second.stop->request_stop();
      if (binary) {
        std::string frame;
        encode_cancel_ack_frame(request.id, "signalled", frame);
        emit_frame(respond, frame);
      } else {
        json::Value ack = json::Value::object();
        ack.set("type", "cancel");
        ack.set("id", request.id);
        ack.set("status", "signalled");
        emit(respond, ack.dump());
      }
      return;
    }
  }
  if (binary) {
    std::string frame;
    encode_reject_frame(request.id, "unknown job id", frame);
    emit_frame(respond, frame);
  } else {
    emit(respond, format_reject(request.id, "unknown job id"));
  }
}

void Server::worker_loop(std::int32_t worker_index) {
  Job job;
  while (queue_.pop(job)) {
    queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
    workers_busy_.add(1);
    std::string prefix = "w";
    prefix += std::to_string(worker_index);
    prefix += " job=";
    prefix += job.id;
    prefix += ' ';
    log::set_thread_prefix(std::move(prefix));

    const auto popped_at = Job::Clock::now();
    const double queue_wait =
        std::chrono::duration<double>(popped_at - job.submitted_at).count();

    JobResult result;
    if (job.has_deadline && popped_at >= job.deadline) {
      // Expired while queued (or submitted already expired): answer without
      // burning solver time.
      job.fire_stop(StopCause::kDeadline);
      result.id = job.id;
      result.status = "deadline_exceeded";
    } else if (prof::enabled()) {
      // Bracket the solve with two profiler snapshots and feed the per-phase
      // deltas into the stats surface.  Snapshots are process-wide, so with
      // several busy workers a job's delta includes its neighbors' phases --
      // exact with --workers 1, an aggregate load profile otherwise.
      const prof::PhaseReport before = prof::snapshot();
      result = run_job(job, &cache_);
      for (const prof::PhaseStat& stat :
           prof::snapshot().since(before).phases) {
        metrics_
            .histogram("phase_seconds." + stat.name,
                       Histogram::latency_bounds())
            .observe(stat.seconds);
      }
    } else {
      result = run_job(job, &cache_);
    }
    result.queue_wait_s = queue_wait;
    finish_job(job, std::move(result));

    workers_busy_.add(-1);
    log::set_thread_prefix({});
  }
}

void Server::finish_job(const Job& job, JobResult result) {
  jobs_completed_.inc();
  if (result.status == "ok") {
    jobs_ok_.inc();
  } else if (result.status == "infeasible") {
    jobs_infeasible_.inc();
  } else if (result.status == "cancelled") {
    jobs_cancelled_.inc();
  } else if (result.status == "deadline_exceeded") {
    jobs_deadline_exceeded_.inc();
  } else {
    jobs_error_.inc();
  }
  queue_wait_seconds_.observe(result.queue_wait_s);
  if (result.solve_s > 0.0) solve_seconds_.observe(result.solve_s);
  if (result.feasible) objective_.observe(result.objective);
  presolve_r0_.inc(result.presolve_r0);
  presolve_r1_.inc(result.presolve_r1);
  presolve_r2_.inc(result.presolve_r2);
  presolve_rn_.inc(result.presolve_rn);
  presolve_removed_.inc(result.presolve_removed);
  if (result.presolve_s > 0.0) presolve_seconds_.observe(result.presolve_s);
  if (result.cache_hit) eco_exact_hits_.inc();
  if (result.warm_start) {
    eco_warm_starts_.inc();
    eco_repairs_.inc(result.eco_repairs);
  }

  {
    const sync::MutexLock lock(active_mutex_);
    active_.erase(job.id);
  }
  // Render in the framing the submitting connection spoke; either way the
  // sink receives one complete response to write verbatim (plus newline
  // for NDJSON, added by the connection's sink).
  if (job.binary_respond) {
    std::string frame;
    encode_result_frame(result, frame);
    emit_frame(job.respond, frame);
  } else {
    emit(job.respond, result_to_json(result).dump());
  }
}

void Server::watchdog_loop() {
  const sync::MutexLock lock(deadline_mutex_);
  const auto later = [](const DeadlineEntry& a, const DeadlineEntry& b) {
    return a.when > b.when;
  };
  for (;;) {
    if (watchdog_exit_) return;
    if (deadlines_.empty()) {
      deadline_cv_.wait(deadline_mutex_);
      continue;
    }
    const auto next_deadline = deadlines_.front().when;
    if (Job::Clock::now() < next_deadline) {
      deadline_cv_.wait_until(deadline_mutex_, next_deadline);
      continue;
    }
    std::pop_heap(deadlines_.begin(), deadlines_.end(), later);
    DeadlineEntry entry = std::move(deadlines_.back());
    deadlines_.pop_back();
    const auto stop = entry.stop.lock();
    const auto cause = entry.cause.lock();
    if (stop != nullptr && cause != nullptr) {
      int expected = static_cast<int>(StopCause::kNone);
      cause->compare_exchange_strong(expected,
                                     static_cast<int>(StopCause::kDeadline));
      stop->request_stop();
      log::info("job ", entry.id, ": deadline fired");
    }
  }
}

void Server::stats_loop() {
  const auto interval = std::chrono::duration<double>(options_.stats_interval_s);
  const sync::MutexLock lock(stats_mutex_);
  while (!stats_exit_) {
    stats_cv_.wait_for(stats_mutex_, interval);
    if (stats_exit_) return;
    const std::string line = stats_json().dump();
    std::fprintf(stderr, "%s\n", line.c_str());
    std::fflush(stderr);
  }
}

json::Value Server::stats_json() {
  json::Value out = json::Value::object();
  out.set("type", "stats");
  out.set("uptime_s",
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started_at_)
              .count());
  out.set("workers", options_.workers);
  out.set("queue_capacity", static_cast<std::int64_t>(queue_.capacity()));
  const CacheStats cache_stats = cache_.stats();
  cache_hits_.set(cache_stats.hits);
  cache_misses_.set(cache_stats.misses);
  cache_evictions_.set(cache_stats.evictions);
  cache_inserts_.set(cache_stats.inserts);
  cache_entries_.set(cache_stats.entries);
  cache_bytes_.set(cache_stats.bytes);
  const json::Value instruments = metrics_.to_json();
  for (std::size_t k = 0; k < instruments.size(); ++k) {
    out.set(instruments.key_at(k), instruments.at(k));
  }
  return out;
}

void Server::begin_drain() {
  draining_.store(true);
  queue_.close();
}

void Server::drain() {
  if (drained_.exchange(true)) return;
  start();  // accepted jobs must be answered even if workers never launched
  begin_drain();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  log::info("server drained: ", jobs_completed_.value(), " jobs answered");
}

// ------------------------------------------------------------- serve loops

namespace {

/// Write `message` (plus a trailing newline for NDJSON framing) with one
/// vectored call per attempt -- no per-response concatenation copy.
/// `use_send` routes through sendmsg(MSG_NOSIGNAL) so a vanished TCP
/// client cannot SIGPIPE the daemon.
void write_response(int fd, std::string_view message, bool append_newline,
                    bool use_send) {
  char newline = '\n';
  const std::size_t total = message.size() + (append_newline ? 1 : 0);
  std::size_t sent = 0;
  while (sent < total) {
    iovec iov[2];
    int count = 0;
    if (sent < message.size()) {
      iov[count].iov_base = const_cast<char*>(message.data()) + sent;
      iov[count].iov_len = message.size() - sent;
      ++count;
    }
    if (append_newline) {
      iov[count].iov_base = &newline;
      iov[count].iov_len = 1;
      ++count;
    }
    ssize_t written = 0;
    if (use_send) {
      msghdr header{};
      header.msg_iov = iov;
      header.msg_iovlen = static_cast<std::size_t>(count);
      written = ::sendmsg(fd, &header, MSG_NOSIGNAL);
    } else {
      written = ::writev(fd, iov, count);
    }
    if (written < 0) {
      if (errno == EINTR) continue;
      return;  // client went away; results are dropped, not fatal
    }
    sent += static_cast<std::size_t>(written);
  }
}

/// Split buffered bytes into lines and dispatch each; returns false when a
/// shutdown request was seen.
bool dispatch_lines(Server& server, std::string& pending,
                    const Server::Sink& sink) {
  std::size_t newline = 0;
  while ((newline = pending.find('\n')) != std::string::npos) {
    const std::string line = pending.substr(0, newline);
    pending.erase(0, newline + 1);
    if (!trim(line).empty()) server.handle_line(line, sink);
    if (server.shutdown_requested()) return false;
  }
  return true;
}

/// Per-connection framing state: the auto-detect decision, the NDJSON line
/// buffer, and the binary receive arena.  Shared (via shared_ptr) between
/// the connection's read loop and its response sink, because accepted jobs
/// keep the sink alive after the read loop exits.
class WireConnection {
 public:
  WireConnection(Server& server, WireMode mode) : server_(server) {
    if (mode == WireMode::kNdjson) framing_ = Framing::kNdjson;
    if (mode == WireMode::kBinary) framing_ = Framing::kBinary;
  }

  /// Buffer `size` freshly read bytes and dispatch every complete message.
  /// Returns false when this connection should stop reading: shutdown
  /// request, or a malformed frame (answered with one error frame --
  /// failing the connection, never the daemon).
  bool feed(const char* data, std::size_t size, const Server::Sink& sink) {
    if (framing_ == Framing::kUnknown && size > 0) {
      // First byte decides: the frame magic opens with a byte that can
      // never start an NDJSON line, so the sniff is unambiguous.  The
      // decision is made before any request is dispatched, so sinks read
      // a settled value (the queue hand-off orders it for workers).
      framing_ = static_cast<unsigned char>(data[0]) == wire::kMagic[0]
                     ? Framing::kBinary
                     : Framing::kNdjson;
    }
    if (framing_ == Framing::kBinary) {
      frames_.append(data, size);
      return drain_frames(sink);
    }
    pending_.append(data, size);
    return dispatch_lines(server_, pending_, sink);
  }

  /// EOF: a final NDJSON line without a trailing newline still counts.  A
  /// truncated binary frame is dropped silently, like a partial line from
  /// a client that never finished writing it.
  void finish(const Server::Sink& sink) {
    if (framing_ != Framing::kBinary && !failed_ &&
        !server_.shutdown_requested() && !trim(pending_).empty()) {
      server_.handle_line(pending_, sink);
    }
  }

  [[nodiscard]] bool is_binary() const {
    return framing_ == Framing::kBinary;
  }

 private:
  enum class Framing { kUnknown, kNdjson, kBinary };

  bool drain_frames(const Server::Sink& sink) {
    for (;;) {
      wire::FrameView frame;
      std::string error;
      switch (frames_.next(frame, error)) {
        case wire::FrameStatus::kIncomplete:
          return true;
        case wire::FrameStatus::kBad: {
          std::string reply;
          encode_error_frame(error, reply);
          sink(reply);
          failed_ = true;
          return false;
        }
        case wire::FrameStatus::kFrame: {
          server_.handle_frame(frame.type, frame.payload, sink);
          frames_.consume(frame.frame_size);
          if (server_.shutdown_requested()) return false;
          break;
        }
      }
    }
  }

  Server& server_;
  Framing framing_ = Framing::kUnknown;
  std::string pending_;      // NDJSON line accumulator
  wire::FrameBuffer frames_; // binary receive arena, reused across requests
  bool failed_ = false;
};

}  // namespace

int serve_fd(Server& server, int in_fd, int out_fd, int wake_fd,
             WireMode mode) {
  const auto conn = std::make_shared<WireConnection>(server, mode);
  const Server::Sink sink = [out_fd, conn](const std::string& message) {
    write_response(out_fd, message, /*append_newline=*/!conn->is_binary(),
                   /*use_send=*/false);
  };

  bool interrupted = false;
  for (;;) {
    pollfd fds[2] = {{in_fd, POLLIN, 0}, {wake_fd, POLLIN, 0}};
    const int watched = wake_fd >= 0 ? 2 : 1;
    const int ready = ::poll(fds, static_cast<nfds_t>(watched), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (wake_fd >= 0 && fds[1].revents != 0) {
      interrupted = true;
      break;
    }
    if (fds[0].revents == 0) continue;
    char buffer[4096];
    const ssize_t count = ::read(in_fd, buffer, sizeof buffer);
    if (count <= 0) break;  // EOF or read error: drain and exit
    if (!conn->feed(buffer, static_cast<std::size_t>(count), sink)) break;
  }
  if (!interrupted) conn->finish(sink);
  server.drain();
  return 0;
}

int serve_tcp(Server& server, std::uint16_t port, int wake_fd, WireMode mode,
              std::atomic<std::uint16_t>* bound_port) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    log::error("qbpartd: socket() failed: ", std::strerror(errno));
    return 1;
  }
  const int reuse = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof reuse);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&address),
             sizeof address) < 0 ||
      ::listen(listen_fd, 16) < 0) {
    log::error("qbpartd: cannot listen on 127.0.0.1:", port, ": ",
               std::strerror(errno));
    ::close(listen_fd);
    return 1;
  }
  // Report the actual port (0 requests an ephemeral one) as a parseable
  // stderr line before serving.
  socklen_t address_len = sizeof address;
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&address), &address_len);
  if (bound_port != nullptr) bound_port->store(ntohs(address.sin_port));
  std::fprintf(stderr, "{\"type\":\"listening\",\"port\":%u}\n",
               static_cast<unsigned>(ntohs(address.sin_port)));
  std::fflush(stderr);

  std::atomic<bool> closing{false};
  // One reader thread per connection, owned by this accept loop alone.  A
  // reader that has finished is joined on the loop's next pass: an exited
  // but unjoined thread keeps its stack mapped until shutdown.  std::list
  // keeps each `done` flag at a stable address for its thread.
  struct Reader {
    std::atomic<bool> done{false};
    std::thread thread;  // qbp-lint: allow(raw-thread) blocks on poll(2)
  };
  std::list<Reader> readers;
  const auto join_finished = [&readers] {
    for (auto it = readers.begin(); it != readers.end();) {
      if (!it->done.load()) {
        ++it;
        continue;
      }
      it->thread.join();
      it = readers.erase(it);
    }
  };

  const auto connection_loop = [&server, &closing, mode](int conn_fd) {
    // shared_ptr: accepted jobs copy the sink, which may outlive this
    // reader thread; the connection's framing state must survive with it.
    const auto conn = std::make_shared<WireConnection>(server, mode);
    const Server::Sink sink = [conn_fd, conn](const std::string& message) {
      write_response(conn_fd, message,
                     /*append_newline=*/!conn->is_binary(),
                     /*use_send=*/true);
    };
    while (!closing.load()) {
      pollfd pfd{conn_fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 200);
      if (ready < 0 && errno != EINTR) break;
      if (ready <= 0 || pfd.revents == 0) continue;
      char buffer[4096];
      const ssize_t count = ::read(conn_fd, buffer, sizeof buffer);
      if (count <= 0) break;  // TCP: a line needs its newline, as before
      if (!conn->feed(buffer, static_cast<std::size_t>(count), sink)) break;
    }
    ::close(conn_fd);
  };

  for (;;) {
    pollfd fds[2] = {{listen_fd, POLLIN, 0}, {wake_fd, POLLIN, 0}};
    const int watched = wake_fd >= 0 ? 2 : 1;
    const int ready = ::poll(fds, static_cast<nfds_t>(watched), 200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    join_finished();
    if (server.shutdown_requested()) break;
    if (wake_fd >= 0 && fds[1].revents != 0) break;
    if (fds[0].revents == 0) continue;
    const int conn_fd = ::accept(listen_fd, nullptr, nullptr);
    if (conn_fd < 0) continue;
    Reader& reader = readers.emplace_back();
    try {
      reader.thread = std::thread([&connection_loop, &reader, conn_fd] {  // qbp-lint: allow(raw-thread)
        connection_loop(conn_fd);
        reader.done.store(true);
      });
    } catch (const std::system_error& e) {
      // Out of threads or address space: fail this connection, keep serving.
      log::error("qbpartd: cannot start a reader thread: ", e.what());
      ::close(conn_fd);
      readers.pop_back();
    }
  }

  closing.store(true);
  ::close(listen_fd);
  for (Reader& reader : readers) reader.thread.join();
  server.drain();
  return 0;
}

}  // namespace qbp::service
