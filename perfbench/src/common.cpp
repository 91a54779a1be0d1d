#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cpuid.h>
#include <cstring>
#include <sstream>
#include <thread>

#include <sys/resource.h>
#include <sys/utsname.h>

#include "bench_support/circuits.hpp"
#include "core/initial.hpp"

namespace perfbench {

std::int32_t host_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::int32_t>(hw);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// CPU brand string straight from CPUID (no file reads).
std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    if (__get_cpuid(0x80000002U + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                    &regs[4 * leaf + 2], &regs[4 * leaf + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[sizeof regs + 1] = {};
  std::memcpy(brand, regs, sizeof regs);
  std::string model(brand);
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

}  // namespace

qbp::json::Value host_json() {
  qbp::json::Value host = qbp::json::Value::object();
  host.set("cores", host_threads());
  host.set("cpu", cpu_model());
  utsname name{};
  host.set("kernel", uname(&name) == 0 ? std::string(name.release)
                                       : std::string("unknown"));
  return host;
}

// --- output check ----------------------------------------------------------

std::string check_answer(const qbp::PartitionProblem& problem,
                         std::span<const std::int32_t> assignment,
                         double reported_objective) {
  const std::int32_t n = problem.num_components();
  const std::int32_t m = problem.num_partitions();
  if (static_cast<std::int64_t>(assignment.size()) != n) {
    return "assignment has " + std::to_string(assignment.size()) +
           " entries for " + std::to_string(n) + " components";
  }
  for (std::int32_t j = 0; j < n; ++j) {
    const std::int32_t part = assignment[static_cast<std::size_t>(j)];
    if (part < 0 || part >= m) {
      return "component " + std::to_string(j) + " in partition " +
             std::to_string(part) + ", outside [0, " + std::to_string(m) + ")";
    }
  }
  const qbp::Assignment answer(
      std::vector<std::int32_t>(assignment.begin(), assignment.end()), m);
  if (!problem.satisfies_capacity(answer)) return "capacity (C1) violated";
  if (!problem.satisfies_timing(answer)) return "timing (C2) violated";
  const double recomputed = problem.objective(answer);
  const double scale = std::max(1.0, std::abs(recomputed));
  if (!(std::abs(recomputed - reported_objective) <= 1e-9 * scale)) {
    std::ostringstream why;
    why.precision(17);
    why << "reported objective " << reported_objective << " != recomputed "
        << recomputed;
    return why.str();
  }
  return {};
}

void Tally::fail(std::string reason) {
  ++attempted_;
  ++failed_;
  if (reasons_.size() < 8) reasons_.push_back(std::move(reason));
}

void Tally::record(std::string reason) {
  if (reason.empty()) {
    pass();
  } else {
    fail(std::move(reason));
  }
}

void Tally::absorb(const Tally& other, std::string_view context) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const std::string& reason : other.reasons_) {
    if (reasons_.size() < 8) reasons_.push_back(std::string(context) + reason);
  }
}

std::string self_test_check() {
  const qbp::PartitionProblem problem = qbp::make_scaling_problem(200, 3);
  const qbp::InitialResult start = qbp::make_initial(
      problem, qbp::InitialStrategy::kQbpZeroWireCost, 3);
  if (!start.feasible) return "self-test instance has no feasible start";
  const std::span<const std::int32_t> good = start.assignment.raw();
  const double objective = problem.objective(start.assignment);

  if (const std::string why = check_answer(problem, good, objective);
      !why.empty()) {
    return "a correct answer was rejected: " + why;
  }
  if (check_answer(problem, good, objective * 1.01 + 1.0).empty()) {
    return "a corrupted objective was accepted";
  }
  // Everything in partition 0 overfills it: capacity (C1) must fail.
  const std::vector<std::int32_t> crowded(good.size(), 0);
  if (check_answer(problem, crowded, problem.objective(qbp::Assignment(
                                         crowded, problem.num_partitions())))
          .empty()) {
    return "an infeasible assignment was accepted";
  }
  const std::vector<std::int32_t> truncated(good.begin(), good.end() - 1);
  if (check_answer(problem, truncated, objective).empty()) {
    return "an incomplete assignment was accepted";
  }
  return {};
}

// --- tracing -----------------------------------------------------------------

namespace {
thread_local std::int64_t t_open_span = 0;
}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

double Tracer::to_us(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

void Tracer::push(Span span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

Tracer::Scope::Scope(Tracer& tracer, std::string_view name,
                     std::string_view request) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  span_.name = name;
  span_.request = request;
  {
    const std::lock_guard<std::mutex> lock(tracer.mutex_);
    span_.id = tracer.next_id_++;
  }
  span_.parent = t_open_span;
  t_open_span = span_.id;
  span_.start_us = tracer.to_us(Clock::now());
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_us = tracer_->to_us(Clock::now());
  t_open_span = span_.parent;
  tracer_->push(std::move(span_));
}

void Tracer::record(std::string_view name, std::string_view request,
                    Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.request = request;
  span.parent = t_open_span;
  span.start_us = to_us(start);
  span.end_us = to_us(end);
  const std::lock_guard<std::mutex> lock(mutex_);
  span.id = next_id_++;
  spans_.push_back(std::move(span));
}

std::vector<double> Tracer::durations_us(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.end_us - span.start_us);
  }
  return out;
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool Tracer::write(const std::string& path) const {
  qbp::json::Value all = qbp::json::Value::array();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const Span& span : spans_) {
      qbp::json::Value one = qbp::json::Value::object();
      one.set("name", span.name);
      one.set("id", span.id);
      one.set("parent", span.parent);
      one.set("request", span.request);
      one.set("start_us", span.start_us);
      one.set("end_us", span.end_us);
      all.push_back(std::move(one));
    }
  }
  return qbp::json::write_json_file(path, all);
}

// --- statistics ------------------------------------------------------------

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double sum(std::span<const double> values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

Tail tail_of(const std::vector<double>& values) {
  Tail tail;
  tail.samples = values.size();
  if (values.size() < 20) {
    tail.pct = 100.0;
    tail.value = values.empty() ? 0.0
                                : *std::max_element(values.begin(), values.end());
    return tail;
  }
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(values.size()) * (100.0 - pct) / 100.0 >= 10.0) {
      tail.pct = pct;
      tail.value = percentile(values, pct);
      return tail;
    }
  }
  return tail;  // unreachable: p50 of >= 20 samples leaves >= 10 beyond
}

// --- metrics ---------------------------------------------------------------

namespace {

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"objective", "cost"},
    {"jobs_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"peak_rss_mib", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    // Workload-level figures that need the traced run or are 0 by design.
    {"flat_s", "s"},
    {"vcycle_s", "s"},
    {"slo_jobs_per_s", "1/s"},
    {"failed_frac", "ratio"},
    {"latency_tail_pct", "pct"},
    {"latency_samples", "count"},
    {"trace.overhead_ms", "ms"},
    // solve: flat Burkard, GAP, the work pool (N=3200 at nproc threads).
    {"core.burkard.solve_s", "s"},
    {"core.burkard.iterations", "count"},
    {"core.burkard.ms_per_iter", "ms"},
    {"prof.burkard.step3_eta_s", "s"},
    {"prof.burkard.step4_gap_s", "s"},
    {"prof.burkard.step5_h_s", "s"},
    {"prof.burkard.step6_gap_s", "s"},
    {"prof.gap.construct_s", "s"},
    {"prof.gap.improve_swap_s", "s"},
    {"prof.gap.repair_s", "s"},
    {"util.parallel.flat_nproc_s", "s"},
    {"util.parallel.utilization", "ratio"},
    // solve: the V-cycle.
    {"core.multilevel.coarsen_s", "s"},
    {"core.multilevel.levels", "count"},
    {"core.multilevel.coarsest_size", "count"},
    {"prof.multilevel.coarse_solve_s", "s"},
    {"prof.multilevel.refine.polish_s", "s"},
    {"prof.multilevel.refine.repair_s", "s"},
    {"prof.polish.sweep_s", "s"},
    {"prof.delta.row_build_s", "s"},
    {"prof.delta.row_build_count", "count"},
    // solve: the paper's baselines.
    {"baselines.gfm_s", "s"},
    {"baselines.gkl_s", "s"},
    // serve-eco: edge and parse layers.
    {"service.protocol.parse_request_us", "us"},
    {"core.problem_io.read_problem_us", "us"},
    {"core.fingerprint.problem_fingerprint_us", "us"},
    {"service.cache.find_exact_us", "us"},
    {"service.protocol.result_to_json_us", "us"},
    // serve-eco: cache reads and the warm path.
    {"service.cache.make_digest_us", "us"},
    {"service.cache.find_nearest_us", "us"},
    {"service.job.run_job_ms.warm", "ms"},
    {"service.cache.warm_accept_ratio", "ratio"},
    {"loadgen.late_ms_p99", "ms"},
    // serve-cold: the cold path.
    {"service.wire.decode_submit_us", "us"},
    {"core.presolve.presolve_ms", "ms"},
    {"core.presolve.removed_frac", "ratio"},
    {"engine.pipeline.run_s", "s"},
    {"service.cache.insert_us", "us"},
    {"service.cache.evictions", "count"},
    {"service.server.queue_wait_ms_p50", "ms"},
    {"service.server.queue_wait_ms_p99", "ms"},
};

}  // namespace

std::span<const MetricSpec> end_to_end_metrics() { return kEndToEnd; }
std::span<const MetricSpec> per_layer_metrics() { return kPerLayer; }

qbp::json::Value render_metrics(std::span<const MetricSpec> specs,
                                const Values& values,
                                std::vector<std::string>& missing) {
  qbp::json::Value out = qbp::json::Value::object();
  for (const MetricSpec& spec : specs) {
    const auto found = values.find(spec.name);
    if (found == values.end()) missing.emplace_back(spec.name);
    qbp::json::Value one = qbp::json::Value::object();
    one.set("value", found == values.end() ? 0.0 : found->second);
    one.set("unit", spec.unit);
    out.set(spec.name, std::move(one));
  }
  return out;
}

}  // namespace perfbench
