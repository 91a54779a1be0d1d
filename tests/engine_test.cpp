// Engine layer: Solver adapters, better_result ordering, and -- the load-
// bearing property -- Portfolio determinism: same master seed + same starts
// => bit-identical chosen assignment for thread counts 1, 2 and 8.  This
// test is also the one the ThreadSanitizer CI job runs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <stop_token>
#include <string>
#include <utility>
#include <vector>

#include "core/qhat.hpp"
#include "engine/engine.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace qbp::engine {
namespace {

BurkardOptions fast_qbp_options() {
  BurkardOptions options;
  options.iterations = 12;
  return options;
}

PartitionProblem engine_problem() {
  return test::make_tiny_problem(
      {.num_components = 12, .num_partitions = 4, .seed = 42});
}

/// A default spec naming `method`.
SolverSpec spec_for(const char* method) {
  SolverSpec spec;
  spec.method = method;
  return spec;
}

TEST(MakeSolver, KnowsEveryRegisteredNameAndRejectsUnknown) {
  for (const char* name : {"qbp", "multilevel", "gfm", "gkl", "sa"}) {
    const auto solver = make_solver(spec_for(name));
    ASSERT_NE(solver, nullptr) << name;
    EXPECT_EQ(solver->name(), name);
  }
  EXPECT_EQ(make_solver(spec_for("simplex")), nullptr);
  EXPECT_EQ(make_solver(spec_for("")), nullptr);
}

TEST(MakeSolver, SpecConfiguresTheAdapter) {
  const PartitionProblem problem = engine_problem();
  Rng rng(5);
  const StartPoint start{test::random_complete(problem.num_components(),
                                               problem.num_partitions(), rng),
                         /*seed=*/7};

  // qbp: the iteration budget reaches BurkardOptions.
  SolverSpec qbp = spec_for("qbp");
  qbp.iterations = 12;
  const auto burkard = make_solver(qbp);
  const SolverResult via_spec = burkard->solve(problem, start);
  const SolverResult by_hand = BurkardSolver(fast_qbp_options()).solve(problem, start);
  EXPECT_EQ(via_spec.iterations, 12);
  EXPECT_EQ(via_spec.best, by_hand.best);
  EXPECT_EQ(via_spec.history, by_hand.history);

  // multilevel: the V-cycle shape overrides the library defaults only where
  // it is set.
  SolverSpec multilevel = spec_for("multilevel");
  multilevel.ml_levels = 2;
  multilevel.ml_refine_passes = 1;
  MultilevelOptions options;
  options.max_levels = 2;
  options.refine_passes = 1;
  const auto vcycle = make_solver(multilevel);
  const SolverResult ml_via_spec = vcycle->solve(problem, start);
  const SolverResult ml_by_hand = MultilevelSolver(options).solve(problem, start);
  EXPECT_EQ(ml_via_spec.best, ml_by_hand.best);
  EXPECT_EQ(ml_via_spec.best_penalized, ml_by_hand.best_penalized);
}

TEST(CheckSpec, EveryBoundIsRejectedWithItsMessage) {
  EXPECT_EQ(check_spec(SolverSpec{}), "");
  const auto message = [](auto spoil) {
    SolverSpec spec;
    spoil(spec);
    return check_spec(spec);
  };
  EXPECT_EQ(message([](SolverSpec& s) { s.starts = 0; }),
            "'starts' must be >= 1");
  EXPECT_EQ(message([](SolverSpec& s) { s.threads = -1; }),
            "'threads' must be >= 0");
  EXPECT_EQ(message([](SolverSpec& s) { s.iterations = 0; }),
            "'iterations' must be >= 1");
  EXPECT_EQ(message([](SolverSpec& s) { s.presolve_rn = -1; }),
            "'presolve_rn' must be >= 0");
  EXPECT_EQ(message([](SolverSpec& s) { s.ml_levels = -1; }),
            "'ml_levels' must be >= 0 (0 = solver default)");
  EXPECT_EQ(message([](SolverSpec& s) { s.ml_min_shrink = 1.0; }),
            "'ml_min_shrink' must be in [0, 1)");
  EXPECT_EQ(message([](SolverSpec& s) { s.ml_min_shrink = std::nan(""); }),
            "'ml_min_shrink' must be in [0, 1)");
  EXPECT_EQ(message([](SolverSpec& s) { s.ml_refine_passes = -2; }),
            "'ml_refine_passes' must be >= -1 (-1 = solver default)");

  // Seeds: every integer a JSON number carries unrounded, nothing above.
  const std::string seed_range = "'seed' must be an integer in [0, 2^53)";
  const std::uint64_t limit = std::uint64_t{1} << 53;
  EXPECT_EQ(message([&](SolverSpec& s) { s.seed = limit - 1; }), "");
  EXPECT_EQ(message([&](SolverSpec& s) { s.seed = limit; }), seed_range);
  EXPECT_EQ(message([&](SolverSpec& s) { s.seed = limit + 1; }), seed_range);
  EXPECT_EQ(message([](SolverSpec& s) { s.seed = ~std::uint64_t{0}; }),
            seed_range);  // a wrapped -1

  // Rules: any subset of r0,r1,r2,rn in any order; empty means none.
  for (const char* rules : {"", "r0", "rn,r2,r1,r0", "r1,r1"}) {
    EXPECT_EQ(message([&](SolverSpec& s) { s.presolve_rules = rules; }), "")
        << rules;
  }
  for (const auto& [rules, token] :
       {std::pair<std::string, std::string>{"bogus", "bogus"},
        {"r0r1", "r0r1"},
        {"r0,,r1", ""},
        {"r0, r1", " r1"}}) {
    EXPECT_EQ(message([&](SolverSpec& s) { s.presolve_rules = rules; }),
              "'presolve_rules' has unknown rule '" + token +
                  "' (want a comma-separated subset of r0,r1,r2,rn)")
        << rules;
  }
}

TEST(PipelineOptions, SpecFillsPresolveSeedThreadsAndValidate) {
  SolverSpec spec;
  spec.seed = 42;
  spec.threads = 3;
  spec.validate = true;
  spec.presolve = false;
  spec.presolve_rn = 6;
  spec.presolve_rules = "r2,rn";
  const PipelineOptions options = pipeline_options(spec);
  EXPECT_EQ(options.portfolio.seed, 42u);
  EXPECT_EQ(options.portfolio.threads, 3);
  EXPECT_EQ(options.portfolio.validate, std::optional<bool>(true));
  EXPECT_FALSE(options.presolve.enabled);
  EXPECT_EQ(options.presolve.rn_max_components, 6);
  EXPECT_FALSE(options.presolve.rule_r0);
  EXPECT_FALSE(options.presolve.rule_r1);
  EXPECT_TRUE(options.presolve.rule_r2);
  EXPECT_TRUE(options.presolve.rule_rn);
  spec.presolve_rules = "";
  const PresolveOptions none = pipeline_options(spec).presolve;
  EXPECT_FALSE(none.rule_r0 || none.rule_r1 || none.rule_r2 || none.rule_rn);
}

TEST(BetterResult, FeasibilityDominatesThenObjectiveThenPenalized) {
  SolverResult feasible_good;
  feasible_good.found_feasible = true;
  feasible_good.best_feasible_objective = 10.0;
  SolverResult feasible_bad = feasible_good;
  feasible_bad.best_feasible_objective = 20.0;
  SolverResult infeasible_low;
  infeasible_low.best_penalized = 1.0;
  SolverResult infeasible_high;
  infeasible_high.best_penalized = 5.0;

  EXPECT_TRUE(better_result(feasible_bad, infeasible_low));
  EXPECT_FALSE(better_result(infeasible_low, feasible_bad));
  EXPECT_TRUE(better_result(feasible_good, feasible_bad));
  EXPECT_TRUE(better_result(infeasible_low, infeasible_high));
  // Strictness: ties are not "better" (keeps first-wins scans stable).
  EXPECT_FALSE(better_result(feasible_good, feasible_good));
  EXPECT_FALSE(better_result(infeasible_low, infeasible_low));
}

TEST(Adapters, BurkardAdapterMatchesDirectSolve) {
  const PartitionProblem problem = engine_problem();
  Rng rng(5);
  StartPoint start{test::random_complete(problem.num_components(),
                                         problem.num_partitions(), rng),
                   /*seed=*/7};

  const BurkardSolver solver(fast_qbp_options());
  const SolverResult via_engine = solver.solve(problem, start);
  const BurkardResult direct =
      solve_qbp(problem, start.assignment, fast_qbp_options());

  EXPECT_EQ(via_engine.solver, "qbp");
  EXPECT_DOUBLE_EQ(via_engine.best_penalized, direct.best_penalized);
  EXPECT_EQ(via_engine.best, direct.best);
  EXPECT_EQ(via_engine.found_feasible, direct.found_feasible);
  if (direct.found_feasible) {
    EXPECT_DOUBLE_EQ(via_engine.best_feasible_objective,
                     direct.best_feasible_objective);
    EXPECT_EQ(via_engine.best_feasible,
              direct.best_feasible);
  }
  EXPECT_EQ(via_engine.history, direct.history);
  EXPECT_EQ(via_engine.iterations, direct.iterations_run);
  EXPECT_FALSE(via_engine.cancelled);
}

TEST(Adapters, EveryAdapterProducesConsistentNormalizedResult) {
  const PartitionProblem problem = engine_problem();
  const QhatMatrix qhat(problem, kPaperPenalty);
  Rng rng(11);
  const StartPoint start{test::random_complete(problem.num_components(),
                                               problem.num_partitions(), rng),
                         /*seed=*/3};

  for (const char* name : {"qbp", "multilevel", "gfm", "gkl", "sa"}) {
    SCOPED_TRACE(name);
    const auto solver = make_solver(spec_for(name));
    const SolverResult result = solver->solve(problem, start);

    EXPECT_EQ(result.solver, name);
    ASSERT_TRUE(result.best.is_complete());
    EXPECT_NEAR(result.best_penalized, qhat.penalized_value(result.best), 1e-9);
    if (result.found_feasible) {
      ASSERT_TRUE(result.best_feasible.is_complete());
      EXPECT_TRUE(problem.is_feasible(result.best_feasible));
      EXPECT_NEAR(result.best_feasible_objective,
                  problem.objective(result.best_feasible), 1e-9);
    }
    EXPECT_GE(result.seconds, 0.0);
    EXPECT_FALSE(result.cancelled);
  }
}

TEST(Adapters, FeasibleRegionSolversLegalizeInfeasibleStarts) {
  // The paper example is feasible; hand GFM/GKL/SA a start that violates
  // the adjacency constraints and check they still return a feasible
  // incumbent (the adapter legalizes before walking).
  const PartitionProblem problem = test::make_paper_example();
  Assignment bad(problem.num_components(), problem.num_partitions());
  bad.set(0, 0);
  bad.set(1, 3);  // a-b are diagonal: distance 2 > bound 1
  bad.set(2, 0);
  ASSERT_FALSE(problem.is_feasible(bad));

  for (const char* name : {"gfm", "gkl", "sa"}) {
    SCOPED_TRACE(name);
    const SolverResult result =
        make_solver(spec_for(name))->solve(problem, StartPoint{bad, /*seed=*/9});
    ASSERT_TRUE(result.found_feasible);
    EXPECT_TRUE(problem.is_feasible(result.best_feasible));
  }
}

TEST(Adapters, StopTokenAlreadyFiredReturnsQuicklyAndMarksCancelled) {
  const PartitionProblem problem = engine_problem();
  Rng rng(13);
  const StartPoint start{test::random_complete(problem.num_components(),
                                               problem.num_partitions(), rng),
                         /*seed=*/1};
  std::stop_source source;
  source.request_stop();

  BurkardOptions options = fast_qbp_options();
  options.iterations = 100000;  // would be slow if cancellation failed
  const BurkardSolver solver(options);
  const SolverResult result =
      solver.solve(problem, start, source.get_token());
  EXPECT_TRUE(result.cancelled);
  EXPECT_LE(result.iterations, 1);
  ASSERT_TRUE(result.best.is_complete());
}

// The satellite requirement: same master seed + same start count =>
// bit-identical chosen assignment regardless of thread count.  Run under
// ThreadSanitizer in CI (QBPART_SANITIZE=tsan) this is also the data-race
// check for the whole portfolio driver.
TEST(Portfolio, DeterministicAcrossThreadCounts) {
  const PartitionProblem problem = engine_problem();
  const BurkardSolver solver(fast_qbp_options());
  constexpr std::int32_t kStarts = 8;

  PortfolioOptions base;
  base.seed = 2026;

  std::vector<PortfolioResult> results;
  for (const std::int32_t threads : {1, 2, 8}) {
    PortfolioOptions options = base;
    options.threads = threads;
    results.push_back(Portfolio(options).run(problem, solver, kStarts));
  }

  const PortfolioResult& reference = results.front();
  ASSERT_GE(reference.best_start, 0);
  EXPECT_EQ(reference.starts_run, kStarts);
  for (std::size_t i = 1; i < results.size(); ++i) {
    SCOPED_TRACE("thread count variant " + std::to_string(i));
    EXPECT_EQ(results[i].best_start, reference.best_start);
    EXPECT_EQ(results[i].best.best,
              reference.best.best);
    EXPECT_DOUBLE_EQ(results[i].best.best_penalized,
                     reference.best.best_penalized);
    EXPECT_EQ(results[i].best.found_feasible, reference.best.found_feasible);
    ASSERT_EQ(results[i].starts.size(), reference.starts.size());
    for (std::size_t s = 0; s < reference.starts.size(); ++s) {
      EXPECT_EQ(results[i].starts[s].best,
                reference.starts[s].best)
          << "start " << s;
    }
  }
}

TEST(Portfolio, WinnerIsFirstBestSlotInIndexOrder) {
  const PartitionProblem problem = engine_problem();
  const BurkardSolver solver(fast_qbp_options());
  PortfolioOptions options;
  options.seed = 4;
  options.threads = 2;
  const PortfolioResult result = Portfolio(options).run(problem, solver, 6);

  ASSERT_GE(result.best_start, 0);
  ASSERT_EQ(result.starts.size(), 6u);
  const auto winner = static_cast<std::size_t>(result.best_start);
  // No earlier slot beats the winner; no slot at all strictly beats it.
  for (std::size_t s = 0; s < result.starts.size(); ++s) {
    EXPECT_FALSE(better_result(result.starts[s], result.starts[winner]))
        << "start " << s;
  }
  EXPECT_EQ(result.starts[winner].best,
            result.best.best);
  EXPECT_DOUBLE_EQ(result.seconds_best_start, result.starts[winner].seconds);
  EXPECT_GE(result.seconds_total, result.seconds_best_start);
}

TEST(Portfolio, HeterogeneousMixRunsEachListedSolver) {
  const PartitionProblem problem = engine_problem();
  const BurkardSolver qbp(fast_qbp_options());
  const GfmSolver gfm;
  const SaSolver sa;
  const std::vector<const Solver*> mix = {&qbp, &gfm, &sa, &gfm};

  PortfolioOptions options;
  options.seed = 99;
  options.threads = 2;
  const PortfolioResult result = Portfolio(options).run(problem, mix);

  ASSERT_EQ(result.starts.size(), mix.size());
  EXPECT_EQ(result.starts[0].solver, "qbp");
  EXPECT_EQ(result.starts[1].solver, "gfm");
  EXPECT_EQ(result.starts[2].solver, "sa");
  EXPECT_EQ(result.starts[3].solver, "gfm");
  ASSERT_GE(result.best_start, 0);
  EXPECT_EQ(result.starts_run, static_cast<std::int32_t>(mix.size()));
}

/// Runs a fast QBP solve, then fires the job-level stop source: the
/// portfolio's `stop` token goes off right after the first start.
class StopAfterSolve final : public Solver {
 public:
  explicit StopAfterSolve(std::stop_source& source) : source_(&source) {}
  [[nodiscard]] std::string_view name() const override { return "qbp"; }
  using Solver::solve;
  [[nodiscard]] SolverResult solve(const PartitionProblem& problem,
                                   const StartPoint& start,
                                   std::stop_token stop) const override {
    SolverResult result = solver_.solve(problem, start, stop);
    source_->request_stop();
    return result;
  }

 private:
  std::stop_source* source_;
  BurkardSolver solver_{fast_qbp_options()};
};

TEST(Portfolio, EarlyCancelSkipsOrCancelsRemainingStarts) {
  const PartitionProblem problem = engine_problem();
  std::stop_source source;
  const StopAfterSolve solver(source);
  PortfolioOptions options;
  options.seed = 7;
  options.threads = 1;  // serial => everything after the trigger is skipped
  options.stop = source.get_token();
  const PortfolioResult result = Portfolio(options).run(problem, solver, 5);

  // Start 0 ran to completion before the token fired, so it wins.
  EXPECT_EQ(result.best_start, 0);
  EXPECT_EQ(result.starts_run, 1);
  EXPECT_EQ(result.starts_skipped, 4);
  ASSERT_EQ(result.starts.size(), 5u);
  for (std::size_t s = 1; s < result.starts.size(); ++s) {
    const SolverResult& skipped = result.starts[s];
    EXPECT_TRUE(skipped.cancelled) << "start " << s;
    // Skipped slots never ran: the default (empty) result, name aside.
    EXPECT_EQ(skipped.best.num_components(), 0) << "start " << s;
    EXPECT_EQ(skipped.solver, "qbp") << "start " << s;
  }
}

TEST(Portfolio, SameSeedTwiceIsBitIdenticalAndDifferentSeedUsuallyDiffers) {
  const PartitionProblem problem = engine_problem();
  const GfmSolver solver;
  PortfolioOptions options;
  options.seed = 31;
  options.threads = 4;
  const PortfolioResult first = Portfolio(options).run(problem, solver, 6);
  const PortfolioResult second = Portfolio(options).run(problem, solver, 6);
  ASSERT_GE(first.best_start, 0);
  EXPECT_EQ(first.best_start, second.best_start);
  EXPECT_EQ(first.best.best, second.best.best);

  PortfolioOptions other = options;
  other.seed = 32;
  const PortfolioResult third = Portfolio(other).run(problem, solver, 6);
  // Different master seed => different start points (assignments differ for
  // at least one start; outcomes may still coincide on tiny instances).
  bool any_start_differs = false;
  for (std::size_t s = 0; s < first.starts.size(); ++s) {
    if (first.starts[s].best != third.starts[s].best) {
      any_start_differs = true;
    }
  }
  EXPECT_TRUE(any_start_differs);
}

/// Echoes its StartPoint back as the result, making the portfolio's start
/// generation (and the warm-start injection point) directly observable.
class RecordingSolver final : public Solver {
 public:
  [[nodiscard]] std::string_view name() const override { return "recording"; }
  [[nodiscard]] SolverResult solve(const PartitionProblem&,
                                   const StartPoint& start,
                                   std::stop_token) const override {
    SolverResult result;
    result.solver = "recording";
    result.best = start.assignment;
    result.best_penalized = 0.0;
    return result;
  }
};

TEST(Portfolio, InjectedInitialSeedsStartZeroOnly) {
  const PartitionProblem problem = engine_problem();
  const RecordingSolver recorder;

  PortfolioOptions options;
  options.seed = 2026;
  options.threads = 1;
  options.validate = false;  // the echoed results are not real solves
  const PortfolioResult plain = Portfolio(options).run(problem, recorder, 3);
  ASSERT_EQ(plain.starts.size(), 3u);

  // Any complete assignment works as the injected warm start; make one that
  // cannot collide with a seed-derived random start by construction.
  Assignment warm(problem.num_components(), problem.num_partitions());
  for (std::int32_t j = 0; j < problem.num_components(); ++j) {
    warm.set(j, j % problem.num_partitions());
  }
  options.initial = warm;
  const PortfolioResult injected = Portfolio(options).run(problem, recorder, 3);
  ASSERT_EQ(injected.starts.size(), 3u);

  EXPECT_EQ(injected.starts[0].best, warm);          // start 0: the injection
  EXPECT_NE(plain.starts[0].best, warm);             // ...which is new
  for (std::size_t s = 1; s < 3; ++s) {              // starts 1+: untouched
    EXPECT_EQ(injected.starts[s].best, plain.starts[s].best) << "start " << s;
  }
}

TEST(Portfolio, InjectedInitialIsDeterministicAcrossThreadCounts) {
  const PartitionProblem problem = engine_problem();
  const BurkardSolver solver(fast_qbp_options());

  Assignment warm(problem.num_components(), problem.num_partitions());
  for (std::int32_t j = 0; j < problem.num_components(); ++j) {
    warm.set(j, (j + 1) % problem.num_partitions());
  }

  PortfolioOptions options;
  options.seed = 11;
  options.initial = warm;
  options.threads = 1;
  const PortfolioResult reference = Portfolio(options).run(problem, solver, 4);
  ASSERT_GE(reference.best_start, 0);
  for (const std::int32_t threads : {2, 8}) {
    options.threads = threads;
    const PortfolioResult result = Portfolio(options).run(problem, solver, 4);
    EXPECT_EQ(result.best_start, reference.best_start) << threads;
    EXPECT_EQ(result.best.best, reference.best.best) << threads;
    EXPECT_DOUBLE_EQ(result.best.best_penalized, reference.best.best_penalized)
        << threads;
  }
}

TEST(Portfolio, MismatchedOrIncompleteInitialIsIgnored) {
  const PartitionProblem problem = engine_problem();
  const RecordingSolver recorder;

  PortfolioOptions options;
  options.seed = 2026;
  options.threads = 1;
  options.validate = false;
  const PortfolioResult plain = Portfolio(options).run(problem, recorder, 1);

  // Wrong shape: a different component count must not be injected.
  options.initial = Assignment(problem.num_components() + 1,
                               problem.num_partitions());
  for (std::int32_t j = 0; j <= problem.num_components(); ++j) {
    options.initial->set(j, 0);
  }
  const PortfolioResult wrong_shape =
      Portfolio(options).run(problem, recorder, 1);
  EXPECT_EQ(wrong_shape.starts[0].best, plain.starts[0].best);

  // Incomplete: unassigned components disqualify the injection.
  options.initial = Assignment(problem.num_components(),
                               problem.num_partitions());
  const PortfolioResult incomplete =
      Portfolio(options).run(problem, recorder, 1);
  EXPECT_EQ(incomplete.starts[0].best, plain.starts[0].best);
}

}  // namespace
}  // namespace qbp::engine
