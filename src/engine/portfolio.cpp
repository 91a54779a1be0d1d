#include "engine/portfolio.hpp"

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>

#include "core/validate.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/prof.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace qbp::engine {

Rng start_stream(std::uint64_t master_seed, std::int32_t index) {
  return Rng(master_seed).fork(static_cast<std::uint64_t>(index));
}

void audit_result(const PartitionProblem& problem, double penalty,
                  SolverResult& result, std::string_view context) {
  ValidateOptions audit;
  audit.penalty = penalty;
  ValidationReport report = validate_outcome(problem, result, audit);
  if (result.best.is_complete()) {
    report.merge(validate_deltas(problem, result.best, audit));
  }
  enforce(report, context);
  result.validated = true;
}

namespace {

/// Start i's StartPoint, drawn from start_stream(seed, i): fork() reads
/// but never advances the master state, so any thread can derive any start
/// independently.
StartPoint make_start(const PartitionProblem& problem,
                      const PortfolioOptions& options, std::int32_t index) {
  Rng stream = start_stream(options.seed, index);
  StartPoint start;
  start.seed = stream();
  start.assignment =
      Assignment(problem.num_components(), problem.num_partitions());
  for (std::int32_t j = 0; j < problem.num_components(); ++j) {
    start.assignment.set(
        j, static_cast<PartitionId>(stream.next_below(
               static_cast<std::uint64_t>(problem.num_partitions()))));
  }
  return start;
}

}  // namespace

PortfolioResult Portfolio::run(const PartitionProblem& problem,
                               const Solver& solver,
                               std::int32_t num_starts) const {
  QBP_CHECK_GE(num_starts, 0);
  const Timer timer;

  PortfolioResult result;
  if (num_starts == 0) {
    result.seconds = timer.seconds();
    return result;
  }

  std::int32_t threads = options_.threads;
  if (threads <= 0) {
    threads = static_cast<std::int32_t>(std::thread::hardware_concurrency());
  }
  threads = std::clamp(threads, 1, num_starts);
  const bool validate_on = options_.validate.value_or(validation_enabled());

  std::vector<SolverResult> slots(static_cast<std::size_t>(num_starts));
  std::vector<std::uint8_t> ran(static_cast<std::size_t>(num_starts), 0);
  std::atomic<std::int32_t> next{0};

  const auto worker = [&] {
    for (;;) {
      const std::int32_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= num_starts) break;
      SolverResult& slot = slots[static_cast<std::size_t>(i)];
      if (options_.stop.stop_requested()) {
        // Skipped before launch: record the solver it would have run.
        slot.solver = std::string(solver.name());
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
        slot = solver.solve(problem, start, options_.stop);
        if (validate_on) {
          std::string context = "shadow validation failed for start ";
          context += std::to_string(i);
          context += " (";
          context += slot.solver;
          context += ")";
          audit_result(problem, solver.penalized_with(), slot, context);
        }
      } catch (const std::exception& e) {
        slot.error = e.what();
        if (slot.solver.empty()) slot.solver = std::string(solver.name());
        log::error("portfolio start ", i, " failed: ", slot.error);
      }
      ran[static_cast<std::size_t>(i)] = 1;
    }
    log::set_thread_prefix({});
  };

  {
    // Portfolio starts run whole solver instances, each on one thread, and
    // must join before the deterministic selection scan.
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
