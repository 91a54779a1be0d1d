// Shared pieces of the perfbench program: run options, the output check
// every workload routes its answers through, the in-memory span tracer,
// percentile helpers and the metric sets rendered into the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/problem.hpp"
#include "util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Where the traced run writes its spans ("" = do not write).
  std::string trace_out;
};

/// Hardware threads of this host (at least 1).
[[nodiscard]] std::int32_t host_threads();

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mib();

/// Cores, CPU model and kernel of this host, for the detail line.
[[nodiscard]] qbp::json::Value host_json();

// --- output check ----------------------------------------------------------

/// Re-validate one answer on the problem it was submitted for: the
/// assignment must be complete (one partition in range per component, C3),
/// satisfy capacities (C1) and timing (C2), and `reported_objective` must
/// equal problem.objective() recomputed from scratch.  Returns "" when the
/// answer passes, otherwise what is wrong with it.
[[nodiscard]] std::string check_answer(const qbp::PartitionProblem& problem,
                                       std::span<const std::int32_t> assignment,
                                       double reported_objective);

/// Attempted / failed operation counts plus the first few failure reasons.
class Tally {
 public:
  void pass() { ++attempted_; }
  void fail(std::string reason);
  /// pass() when `reason` is empty, fail(reason) otherwise.
  void record(std::string reason);
  /// Add another tally's counts and reasons (prefixed with `context`).
  void absorb(const Tally& other, std::string_view context);

  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& reasons() const {
    return reasons_;
  }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

/// Feed the output check a correct answer, a corrupted objective, an
/// infeasible (C1) assignment and a truncated one on a small generated
/// instance.  Returns "" when it accepts the first and rejects the rest.
[[nodiscard]] std::string self_test_check();

// --- tracing -----------------------------------------------------------------

/// In-memory span recorder.  Disabled tracers record nothing; a Scope on a
/// disabled tracer costs one branch.  Spans nest per thread: a scope opened
/// while another is open on the same thread records it as its parent.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string request;  // request id, "" for none
    std::int64_t id = 0;
    std::int64_t parent = 0;  // 0 = root
    double start_us = 0.0;    // since the tracer was created
    double end_us = 0.0;
  };

  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }

  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name, std::string_view request = {});
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;  // null when tracing is off
    Span span_;
  };

  /// Record a span whose interval was measured elsewhere (e.g. a request's
  /// due time to its reply, observed by two different threads).
  void record(std::string_view name, std::string_view request,
              Clock::time_point start, Clock::time_point end);

  /// Durations in microseconds of every span named `name`, in record order.
  [[nodiscard]] std::vector<double> durations_us(std::string_view name) const;

  /// Write every span as one JSON array to `path`; false on I/O failure.
  [[nodiscard]] bool write(const std::string& path) const;

  [[nodiscard]] std::size_t size() const;

 private:
  [[nodiscard]] double to_us(Clock::time_point t) const;
  void push(Span span);

  bool enabled_ = false;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
  std::int64_t next_id_ = 1;  // guarded by mutex_
};

// --- statistics ------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double sum(std::span<const double> values);

/// The highest of p99.9 / p99 / p95 / p90 / p75 / p50 that leaves at least
/// ten samples beyond it; the maximum when fewer than 20 samples exist.
struct Tail {
  double pct = 0.0;
  double value = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail_of(const std::vector<double>& values);

// --- metrics ---------------------------------------------------------------

using Values = std::map<std::string, double>;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The metric sets of BENCHMARK.json, in print order.  Every workload fills
/// every end-to-end metric; per-layer metrics of a layer the workload
/// bypasses print as 0.
[[nodiscard]] std::span<const MetricSpec> end_to_end_metrics();
[[nodiscard]] std::span<const MetricSpec> per_layer_metrics();

/// {"name": {"value": v, "unit": u}, ...} over `specs`; `missing` receives
/// the names `values` lacks (they print as 0).
[[nodiscard]] qbp::json::Value render_metrics(std::span<const MetricSpec> specs,
                                              const Values& values,
                                              std::vector<std::string>& missing);

/// Everything a workload run hands back to main().
struct RunOutput {
  Tally tally;
  Values end_to_end;
  Values per_layer;
  /// Free-form detail (phase counts, tail percentiles) printed as the line
  /// before the result line.
  qbp::json::Value detail = qbp::json::Value::object();
};

/// Median of `setup` run `reps` times (each run timed as a whole).
template <class Setup>
[[nodiscard]] double median_setup_seconds(int reps, Setup&& setup) {
  std::vector<double> times;
  for (int k = 0; k < reps; ++k) {
    const auto start = Clock::now();
    setup(k == reps - 1);
    times.push_back(seconds_since(start));
  }
  return median(times);
}

// --- workloads -------------------------------------------------------------

void run_solve(const Options& options, Tracer& tracer, RunOutput& out);
void run_serve_eco(const Options& options, Tracer& tracer, RunOutput& out);
void run_serve_cold(const Options& options, Tracer& tracer, RunOutput& out);

}  // namespace perfbench
