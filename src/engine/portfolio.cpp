#include "engine/portfolio.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "core/validate.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "util/prof.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace qbp::engine {

namespace {

/// Start i's StartPoint: a pure function of (master seed, i, injected
/// initial).  A fresh master Rng is forked per index -- fork() reads but
/// never advances the master state -- so any thread can derive any start
/// independently.  Start 0 uses the injected initial assignment when the
/// options carry one of the right shape (the warm-start injection point);
/// its seed is derived exactly as for a random start.
StartPoint make_start(const PartitionProblem& problem,
                      const PortfolioOptions& options, std::int32_t index) {
  Rng master(options.seed);
  Rng stream = master.fork(static_cast<std::uint64_t>(index));
  StartPoint start;
  start.seed = stream();
  if (index == 0 && options.initial.has_value() &&
      options.initial->num_components() == problem.num_components() &&
      options.initial->num_partitions() == problem.num_partitions() &&
      options.initial->is_complete()) {
    start.assignment = *options.initial;
    return start;
  }
  start.assignment =
      Assignment(problem.num_components(), problem.num_partitions());
  for (std::int32_t j = 0; j < problem.num_components(); ++j) {
    start.assignment.set(
        j, static_cast<PartitionId>(stream.next_below(
               static_cast<std::uint64_t>(problem.num_partitions()))));
  }
  return start;
}

/// Shadow-audit one completed start: recompute the reported numbers from
/// scratch and cross-check the delta machinery, then route any mismatch
/// through the contract framework (fail-mode aware).  Throws
/// qbp::ContractViolation in throw mode; the worker catches it and turns
/// the start into an errored slot.
void audit_result(const PartitionProblem& problem, const Solver& solver,
                  std::int32_t index, SolverResult& slot) {
  ValidateOptions audit;
  audit.penalty = solver.penalized_with();
  ReportedOutcome outcome;
  outcome.best = &slot.best;
  outcome.best_penalized = slot.best_penalized;
  if (slot.found_feasible) {
    outcome.best_feasible = &slot.best_feasible;
    outcome.best_feasible_objective = slot.best_feasible_objective;
  }
  ValidationReport report = validate_outcome(problem, outcome, audit);
  if (slot.best.is_complete()) {
    report.merge(validate_deltas(problem, slot.best, audit));
  }
  std::string context = "shadow validation failed for start ";
  context += std::to_string(index);
  context += " (";
  context += slot.solver;
  context += ")";
  enforce(report, context);
  slot.validated = true;
}

}  // namespace

std::int32_t portfolio_workers(std::int32_t threads, std::int32_t starts) {
  if (threads <= 0) {
    threads = static_cast<std::int32_t>(std::thread::hardware_concurrency());
  }
  return std::clamp(threads, 1, std::max(1, starts));
}

PortfolioResult Portfolio::run(const PartitionProblem& problem,
                               const Solver& solver,
                               std::int32_t starts) const {
  QBP_CHECK_GE(starts, 0);
  std::vector<const Solver*> list(static_cast<std::size_t>(starts), &solver);
  return run(problem, list);
}

PortfolioResult Portfolio::run(
    const PartitionProblem& problem,
    std::span<const Solver* const> start_solvers) const {
  const Timer timer;
  const auto num_starts = static_cast<std::int32_t>(start_solvers.size());

  PortfolioResult result;
  if (num_starts == 0) {
    result.seconds = timer.seconds();
    return result;
  }

  const std::int32_t threads = portfolio_workers(options_.threads, num_starts);

  // Nested-parallelism arbitration: when starts carry an inner_threads
  // budget, grow the shared util/parallel pool once up front (instead of
  // every start racing to spawn helpers mid-solve) and let the pool's
  // fair-share tokens split helpers among the starts running concurrently.
  // Scheduling only -- per-start results are bit-identical regardless.
  std::int32_t inner = 1;
  for (const Solver* start_solver : start_solvers) {
    inner = std::max(inner, par::resolve_threads(start_solver->inner_threads()));
  }
  if (inner > 1) {
    const std::int64_t helpers =
        static_cast<std::int64_t>(threads) * inner - 1;
    par::Pool::instance().warm(static_cast<std::int32_t>(
        std::min<std::int64_t>(helpers, par::kMaxHelpers)));
    log::debug("portfolio: ", threads, " start workers x ", inner,
               " inner threads fair-share ", par::fair_share_base(),
               " pool slots");
  }

  const bool cancel_enabled = !std::isnan(options_.cancel_objective);
  const bool validate_on = options_.validate.value_or(validation_enabled());

  std::vector<SolverResult> slots(static_cast<std::size_t>(num_starts));
  std::vector<std::uint8_t> ran(static_cast<std::size_t>(num_starts), 0);
  std::atomic<std::int32_t> next{0};
  std::stop_source cancel;

  // Job-level cancellation: relay the external token (if any) onto the
  // internal cancel source, so one mechanism stops both pending and
  // in-flight starts.  The callback fires immediately if the token already
  // did.
  std::optional<std::stop_callback<std::function<void()>>> relay;
  if (options_.stop.stop_possible()) {
    relay.emplace(options_.stop,
                  std::function<void()>([&cancel] { cancel.request_stop(); }));
  }

  const auto worker = [&] {
    for (;;) {
      const std::int32_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= num_starts) break;
      SolverResult& slot = slots[static_cast<std::size_t>(i)];
      if (cancel.stop_requested()) {
        // Skipped before launch: record the solver it would have run.
        slot.solver = std::string(start_solvers[i]->name());
        slot.cancelled = true;
        continue;
      }
      std::string prefix = "s";
      prefix += std::to_string(i);
      prefix += ' ';
      log::set_thread_prefix(std::move(prefix));
      const StartPoint start = make_start(problem, options_, i);
      // Error containment: an uncaught exception in a jthread worker is
      // std::terminate, so a throwing solve (or a shadow-audit violation in
      // throw mode) must land in the slot, not escape.  The errored start
      // is excluded from selection; the rest of the portfolio proceeds.
      try {
        QBP_PROF_SCOPE("portfolio.start");
        slot = start_solvers[i]->solve(problem, start, cancel.get_token());
        if (validate_on) audit_result(problem, *start_solvers[i], i, slot);
      } catch (const std::exception& e) {
        slot.error = e.what();
        if (slot.solver.empty()) {
          slot.solver = std::string(start_solvers[i]->name());
        }
        log::error("portfolio start ", i, " failed: ", slot.error);
      }
      ran[static_cast<std::size_t>(i)] = 1;
      if (cancel_enabled && slot.error.empty() && slot.found_feasible &&
          slot.best_feasible_objective <= options_.cancel_objective) {
        cancel.request_stop();
      }
    }
    log::set_thread_prefix({});
  };

  {
    // Portfolio starts run whole solver instances and must join before the
    // deterministic selection scan; the shared work pool serves the *inner*
    // parallelism of each start instead.
    std::vector<std::jthread> pool;  // qbp-lint: allow(raw-thread)
    pool.reserve(static_cast<std::size_t>(threads));
    for (std::int32_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  }  // jthreads join here

  // Deterministic selection: first index that beats everything before it
  // under the strict better_result() order, scanning slots in index order.
  for (std::int32_t i = 0; i < num_starts; ++i) {
    const SolverResult& slot = slots[static_cast<std::size_t>(i)];
    if (!ran[static_cast<std::size_t>(i)]) {
      ++result.starts_skipped;
      continue;
    }
    ++result.starts_run;
    if (slot.cancelled) ++result.starts_cancelled;
    if (slot.validated) ++result.starts_validated;
    result.seconds_total += slot.seconds;
    if (!slot.error.empty()) {
      ++result.starts_errored;
      continue;  // never selectable
    }
    if (result.best_start < 0 ||
        better_result(slot, slots[static_cast<std::size_t>(result.best_start)])) {
      result.best_start = i;
    }
  }
  if (result.best_start >= 0) {
    result.best = slots[static_cast<std::size_t>(result.best_start)];
    result.seconds_best_start = result.best.seconds;
  }
  if (options_.keep_start_results) {
    result.starts = std::move(slots);
  }
  result.threads_used = threads;
  result.seconds = timer.seconds();

  log::info("portfolio: ", result.starts_run, "/", num_starts, " starts on ",
            threads, " threads, best start ", result.best_start, ", wall ",
            result.seconds, " s, total work ", result.seconds_total, " s");
  return result;
}

}  // namespace qbp::engine
