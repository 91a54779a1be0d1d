// Shadow validator (core/validate.hpp): corrupted solver outcomes must be
// detected by the from-scratch recomputation, and enforce() must honor each
// contract fail mode -- abort (death test), throw (ContractViolation), and
// log-and-count (violation_count).  The final tests drive the validator
// through engine::Portfolio the way qbpartd does, via the per-job
// PortfolioOptions::validate override.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/outcome.hpp"
#include "core/validate.hpp"
#include "engine/adapters.hpp"
#include "engine/portfolio.hpp"
#include "test_support.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace qbp {
namespace {

using test::FailModeGuard;

/// An honestly-reported record for `assignment`: the builder every solver
/// path uses, fed the truth about feasibility.
Outcome honest_outcome(const PartitionProblem& problem,
                       const Assignment& assignment,
                       double penalty = kPaperPenalty) {
  return outcome_of(problem, assignment, penalty,
                    problem.is_feasible(assignment));
}

TEST(Validate, HonestOutcomeAndDeltasPassClean) {
  const PartitionProblem problem = test::make_tiny_problem(
      {.num_components = 10, .num_partitions = 3, .seed = 7});
  const Assignment assignment =
      test::round_robin(problem.num_components(), problem.num_partitions());

  const auto outcome_report =
      validate_outcome(problem, honest_outcome(problem, assignment));
  EXPECT_TRUE(outcome_report.ok()) << outcome_report.to_string();

  const auto delta_report = validate_deltas(problem, assignment);
  EXPECT_TRUE(delta_report.ok()) << delta_report.to_string();
}

TEST(Validate, CapacityOverflowInClaimedFeasibleIsDetected) {
  // Capacity 1.5 per partition: any partition holding two unit-size
  // components overflows.  Claim the all-in-one assignment feasible.
  const PartitionProblem problem = test::make_paper_example(/*capacity=*/1.5);
  Assignment crowded(problem.num_components(), problem.num_partitions());
  for (std::int32_t j = 0; j < problem.num_components(); ++j) {
    crowded.set(j, 0);
  }
  // The lie under test: the record claims the crowded placement feasible.
  const Outcome reported =
      outcome_of(problem, crowded, kPaperPenalty, /*feasible=*/true);

  const auto report = validate_outcome(problem, reported);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("capacity"), std::string::npos)
      << report.to_string();
}

TEST(Validate, UnassignedComponentIsDetected) {
  // A solver that "double-assigns" one component has necessarily left
  // another slot untouched; the dense representation surfaces that as an
  // unassigned (C3-violating) component.
  const PartitionProblem problem = test::make_paper_example();
  Assignment incomplete(problem.num_components(), problem.num_partitions());
  incomplete.set(0, 0);
  incomplete.set(1, 1);  // component 2 never assigned

  Outcome reported;
  reported.best = incomplete;
  reported.best_penalized = 0.0;

  const auto report = validate_outcome(problem, reported);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("unassigned"), std::string::npos)
      << report.to_string();
}

TEST(Validate, StaleReportedNumbersAreDetected) {
  // A stale incremental cache shows up as reported values that drifted from
  // what the assignment actually evaluates to.
  const PartitionProblem problem = test::make_tiny_problem(
      {.num_components = 8, .num_partitions = 2, .seed = 3});
  const Assignment assignment =
      test::round_robin(problem.num_components(), problem.num_partitions());

  Outcome reported = honest_outcome(problem, assignment);
  reported.best_penalized += 0.5;  // drifted bookkeeping

  const auto report = validate_outcome(problem, reported);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("penalized"), std::string::npos)
      << report.to_string();
}

TEST(Validate, WrongPenaltyMakesReportedNumbersIncoherent) {
  // Numbers computed under one penalty but audited under another must not
  // slip through (this is why Solver::penalized_with() exists).
  const PartitionProblem problem = test::make_paper_example();
  // a and b on diagonally opposite corners of the 2 x 2 grid: Manhattan
  // distance 2 breaks their adjacency bound, so the penalized value
  // actually depends on the penalty.
  Assignment assignment(problem.num_components(), problem.num_partitions());
  assignment.set(0, 0);
  assignment.set(1, 3);
  assignment.set(2, 0);
  ASSERT_FALSE(problem.satisfies_timing(assignment));

  const Outcome reported =
      honest_outcome(problem, assignment, /*penalty=*/kPaperPenalty);
  ValidateOptions audit;
  audit.penalty = kPaperPenalty * 4.0;
  const auto report = validate_outcome(problem, reported, audit);
  EXPECT_FALSE(report.ok());
}

TEST(Validate, EnforceThrowModeRaisesContractViolation) {
  const FailModeGuard guard(check::FailMode::kThrow);
  ValidationReport bad;
  bad.issues.emplace_back("synthetic issue");
  const std::uint64_t before = check::violation_count();
  EXPECT_THROW(enforce(bad, "throw-mode test"), ContractViolation);
  EXPECT_EQ(check::violation_count(), before + 1);

  try {
    enforce(bad, "throw-mode test");
    FAIL() << "enforce() must throw in kThrow mode";
  } catch (const ContractViolation& violation) {
    const std::string what = violation.what();
    EXPECT_NE(what.find("throw-mode test"), std::string::npos) << what;
    EXPECT_NE(what.find("synthetic issue"), std::string::npos) << what;
  }
}

TEST(Validate, EnforceLogAndCountModeCountsWithoutThrowing) {
  const FailModeGuard guard(check::FailMode::kLogAndCount);
  ValidationReport bad;
  bad.issues.emplace_back("synthetic issue");
  const std::uint64_t before = check::violation_count();
  EXPECT_NO_THROW(enforce(bad, "count-mode test"));
  EXPECT_EQ(check::violation_count(), before + 1);

  ValidationReport good;
  EXPECT_NO_THROW(enforce(good, "count-mode test"));
  EXPECT_EQ(check::violation_count(), before + 1);  // ok reports are free
}

TEST(ValidateDeathTest, EnforceAbortModeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ValidationReport bad;
  bad.issues.emplace_back("synthetic abort issue");
  // kAbort is the process default; assert rather than assume.
  ASSERT_EQ(check::fail_mode(), check::FailMode::kAbort);
  EXPECT_DEATH(enforce(bad, "abort-mode test"), "synthetic abort issue");
}

TEST(Validate, ProcessDefaultToggleRoundTrips) {
  const bool original = validation_enabled();
  set_validation_enabled(!original);
  EXPECT_EQ(validation_enabled(), !original);
  set_validation_enabled(original);
  EXPECT_EQ(validation_enabled(), original);
}

TEST(Validate, PortfolioAuditsEveryStartWhenRequested) {
  const PartitionProblem problem = test::make_tiny_problem(
      {.num_components = 12, .num_partitions = 3, .seed = 21});
  BurkardOptions solver_options;
  solver_options.iterations = 12;
  const engine::BurkardSolver solver(solver_options);

  engine::PortfolioOptions options;
  options.threads = 2;
  options.validate = true;  // the per-job override qbpartd forwards
  const auto result = engine::Portfolio(options).run(problem, solver, 4);

  EXPECT_EQ(result.starts_run, 4);
  EXPECT_EQ(result.starts_errored, 0);
  EXPECT_EQ(result.starts_validated, 4);
  for (const auto& start : result.starts) {
    EXPECT_TRUE(start.validated);
    EXPECT_TRUE(start.error.empty()) << start.error;
  }
}

TEST(Validate, PortfolioSkipsAuditWhenDisabledPerJob) {
  const PartitionProblem problem = test::make_tiny_problem(
      {.num_components = 12, .num_partitions = 3, .seed = 21});
  BurkardOptions solver_options;
  solver_options.iterations = 12;
  const engine::BurkardSolver solver(solver_options);

  engine::PortfolioOptions options;
  options.validate = false;  // explicit off beats any process default
  const auto result = engine::Portfolio(options).run(problem, solver, 3);

  EXPECT_EQ(result.starts_run, 3);
  EXPECT_EQ(result.starts_validated, 0);
}

}  // namespace
}  // namespace qbp
