#include "core/validate.hpp"

#include <atomic>
#include <sstream>
#include <utility>

#include "core/delta_evaluator.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace qbp {

namespace {

std::atomic<bool> g_validation_enabled{
#ifdef QBPART_VALIDATE_DEFAULT_ON
    true
#else
    false
#endif
};

/// Structural sanity of one reported assignment: right size, complete (C3),
/// every partition id in range.  Returns false when follow-up numeric
/// checks would be meaningless.
bool check_structure(const PartitionProblem& problem,
                     const Assignment& assignment, std::string_view label,
                     ValidationReport& report) {
  if (assignment.num_components() != problem.num_components()) {
    std::ostringstream out;
    out << label << " has " << assignment.num_components()
        << " components, problem has " << problem.num_components();
    report.issues.push_back(out.str());
    return false;
  }
  bool structurally_sound = true;
  for (std::int32_t j = 0; j < assignment.num_components(); ++j) {
    const PartitionId p = assignment[j];
    if (p == Assignment::kUnassigned) {
      std::ostringstream out;
      out << label << " leaves component " << j << " unassigned (violates C3)";
      report.issues.push_back(out.str());
      structurally_sound = false;
    } else if (p < 0 || p >= problem.num_partitions()) {
      std::ostringstream out;
      out << label << " places component " << j << " in partition " << p
          << " outside [0, " << problem.num_partitions() << ")";
      report.issues.push_back(out.str());
      structurally_sound = false;
    }
  }
  return structurally_sound;
}

}  // namespace

bool validation_enabled() noexcept {
  return g_validation_enabled.load(std::memory_order_relaxed);
}

void set_validation_enabled(bool enabled) noexcept {
  g_validation_enabled.store(enabled, std::memory_order_relaxed);
}

std::string ValidationReport::to_string() const {
  std::string joined;
  for (const std::string& issue : issues) {
    if (!joined.empty()) joined += "; ";
    joined += issue;
  }
  return joined;
}

void ValidationReport::merge(ValidationReport other) {
  for (std::string& issue : other.issues) {
    issues.push_back(std::move(issue));
  }
}

ValidationReport validate_outcome(const PartitionProblem& problem,
                                  const Outcome& reported,
                                  const ValidateOptions& options) {
  ValidationReport report;
  if (check_structure(problem, reported.best, "best", report)) {
    const double recomputed =
        problem.penalized_value(reported.best, options.penalty);
    if (!check::within_relative(recomputed, reported.best_penalized,
                                options.tolerance)) {
      std::ostringstream out;
      out << "reported penalized value " << reported.best_penalized
          << " != recomputed " << recomputed << " (penalty "
          << options.penalty << ")";
      report.issues.push_back(out.str());
    }
  }

  if (reported.found_feasible &&
      check_structure(problem, reported.best_feasible, "best_feasible",
                      report)) {
    if (!problem.satisfies_capacity(reported.best_feasible)) {
      report.issues.emplace_back(
          "best_feasible violates a capacity constraint (C1)");
    }
    if (!problem.satisfies_timing(reported.best_feasible)) {
      report.issues.emplace_back(
          "best_feasible violates a timing constraint (C2)");
    }
    const double recomputed = problem.objective(reported.best_feasible);
    if (!check::within_relative(recomputed, reported.best_feasible_objective,
                                options.tolerance)) {
      std::ostringstream out;
      out << "reported feasible objective " << reported.best_feasible_objective
          << " != recomputed " << recomputed;
      report.issues.push_back(out.str());
    }
  }
  return report;
}

ValidationReport validate_deltas(const PartitionProblem& problem,
                                 const Assignment& assignment,
                                 const ValidateOptions& options) {
  ValidationReport report;
  if (!check_structure(problem, assignment, "delta-check assignment", report)) {
    return report;
  }
  const std::int32_t n = problem.num_components();
  const std::int32_t m = problem.num_partitions();
  if (n == 0 || m < 2 || options.delta_samples <= 0) return report;

  Rng rng(options.seed);
  DeltaEvaluator evaluator(problem, options.penalty);
  const double base = problem.penalized_value(assignment, options.penalty);
  Assignment scratch = assignment;

  for (std::int32_t k = 0; k < options.delta_samples; ++k) {
    const auto j = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    const auto target = static_cast<PartitionId>(
        rng.next_below(static_cast<std::uint64_t>(m)));

    // Three independently computed values for the same move: the cached
    // evaluator row, the one-off delta, and the ground truth of mutating a
    // copy and re-evaluating from scratch.
    const std::span<const double> row = evaluator.move_deltas(assignment, j);
    const double cached = row[static_cast<std::size_t>(target)];
    const double one_off = evaluator.move_delta(assignment, j, target);
    scratch.set(j, target);
    const double full =
        problem.penalized_value(scratch, options.penalty) - base;
    scratch.set(j, assignment[j]);

    if (!check::within_relative(cached, full, options.tolerance) ||
        !check::within_relative(one_off, full, options.tolerance)) {
      std::ostringstream out;
      out << "move delta mismatch for component " << j << " -> partition "
          << target << ": cached " << cached << ", one-off " << one_off
          << ", full recompute " << full;
      report.issues.push_back(out.str());
    }
  }

  for (std::int32_t k = 0; k < options.delta_samples / 2; ++k) {
    const auto j1 = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    const auto j2 = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    if (j1 == j2) continue;

    // The same three-way check for a swap: the delta read off the cached
    // rows, the one-off delta, and the full recompute.
    const double cached = evaluator.cached_swap_delta(assignment, j1, j2);
    const double one_off = evaluator.swap_delta(assignment, j1, j2);
    scratch.set(j1, assignment[j2]);
    scratch.set(j2, assignment[j1]);
    const double full =
        problem.penalized_value(scratch, options.penalty) - base;
    scratch.set(j1, assignment[j1]);
    scratch.set(j2, assignment[j2]);

    if (!check::within_relative(cached, full, options.tolerance) ||
        !check::within_relative(one_off, full, options.tolerance)) {
      std::ostringstream out;
      out << "swap delta mismatch for components (" << j1 << ", " << j2
          << "): cached " << cached << ", one-off " << one_off
          << ", full recompute " << full;
      report.issues.push_back(out.str());
    }
  }
  return report;
}

void enforce(const ValidationReport& report, std::string_view context) {
  QBP_CHECK(report.ok()) << context << ": " << report.to_string();
}

}  // namespace qbp
