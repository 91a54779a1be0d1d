// One accepted partitioning job: the parsed submit request plus the
// server-side state that travels with it through the queue and the worker
// pool -- arrival sequence number, deadline clock, the job's stop handle
// (fired by the deadline watchdog or a cancel request), and where its
// result goes: the submitting connection's sink, in the framing the submit
// arrived in.
//
// Job execution (`run_job`) is a pure function of (problem, solver spec,
// stop token): it parses the problem via core/problem_io, builds the
// engine solver named by the spec, and runs it through one
// engine::SolvePipeline (presolve, a deterministic portfolio of starts,
// lift, validate).  Determinism: same spec + seed => bit-identical
// assignment for any thread/worker count (the Portfolio contract), so a
// load-shedding retry against a different server instance reproduces the
// original answer exactly.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stop_token>
#include <string>

#include "service/protocol.hpp"

namespace qbp::service {

/// Why a job's stop source fired; decides the reported status.
enum class StopCause : int { kNone = 0, kDeadline = 1, kCancel = 2 };

/// One job's stop: the source its solve polls and why it first fired.
/// The job, the server's active-id table (cancel) and the deadline
/// watchdog share one handle, and each stops the job through fire().
class StopHandle {
 public:
  /// Record `cause` unless an earlier fire recorded one (first writer
  /// wins), then request the stop.
  void fire(StopCause cause) noexcept {
    StopCause none = StopCause::kNone;
    cause_.compare_exchange_strong(none, cause);
    source_.request_stop();
  }
  [[nodiscard]] StopCause cause() const noexcept { return cause_.load(); }
  [[nodiscard]] std::stop_token token() const noexcept {
    return source_.get_token();
  }

 private:
  std::stop_source source_;
  std::atomic<StopCause> cause_{StopCause::kNone};
};

/// Receives one complete reply: an NDJSON line (no trailing newline) or a
/// binary wire frame, to be written verbatim.  The server calls a sink from
/// any thread without a lock of its own (a connection's reader answers its
/// notes while workers deliver its results), so every Sink must be safe to
/// call from several threads at once: the serve loops' connection sinks
/// serialize their writes per connection, and an in-process collector
/// locks.
using Sink = std::function<void(const std::string&)>;

/// Where a request's replies go: the sink of the connection it arrived on
/// and the framing it arrived in, fixed where the request was decoded.
/// `closed` fires when that connection can take no more replies (a TCP
/// reply missed its deadline); a queued job of a closed connection is
/// answered "cancelled" unsolved.  The default token never fires.
struct ReplyTo {
  Sink sink;
  bool binary = false;
  std::stop_token closed;
};

struct Job {
  using Clock = std::chrono::steady_clock;

  std::string id;
  std::int64_t seq = 0;       // arrival order; FIFO tie-break within priority
  std::int32_t priority = 0;  // higher first
  SolverSpec solver;
  std::string problem_text;
  /// Pre-parsed problem from a binary kProblemStruct submit
  /// (service/wire.hpp); when set, run_job skips the text parse entirely.
  /// Value-identical to parsing problem_text, so cache fingerprints and
  /// results are bit-identical across framings.
  std::shared_ptr<const PartitionProblem> problem;
  /// Request-level cache opt-outs (protocol "cache"/"warm_start" fields).
  bool use_cache = true;
  bool warm_start = true;

  Clock::time_point submitted_at{};
  Clock::time_point deadline{Clock::time_point::max()};
  bool has_deadline = false;

  /// Null for a job run outside a server, which nothing can stop.
  std::shared_ptr<StopHandle> stop;
  ReplyTo reply_to;

  [[nodiscard]] StopCause cause() const noexcept {
    return stop == nullptr ? StopCause::kNone : stop->cause();
  }
  [[nodiscard]] std::stop_token stop_token() const noexcept {
    return stop == nullptr ? std::stop_token() : stop->token();
  }
};

class SolutionCache;  // service/cache.hpp

/// Solve `job` to completion (or until its stop token fires) and return the
/// normalized result.  Never throws across this boundary: problem parse
/// failures and unknown solver names come back as status "error".
/// `queue_wait_s` is stamped by the caller (the worker knows when the job
/// left the queue).
///
/// With a cache (and the job opted in), the flow is: exact fingerprint hit
/// -> return the stored result bit-identical (`cache_hit`); structurally
/// compatible neighbor within the edit budget -> ECO warm re-solve
/// (service/eco.hpp), shadow-validated from scratch against the *submitted*
/// problem (`warm_start`); otherwise -- or when the warm result fails
/// validation -- a cold solve, whose "ok" result is inserted for next time.
[[nodiscard]] JobResult run_job(const Job& job, SolutionCache* cache);

/// Cache-free overload: identical to pre-cache behaviour.
[[nodiscard]] JobResult run_job(const Job& job);

}  // namespace qbp::service
