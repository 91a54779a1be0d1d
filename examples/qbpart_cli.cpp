// qbpart_cli: partition a problem file with any of the five methods.
//
//   # generate a sample problem, then solve it
//   ./qbpart_cli --emit-sample sample.qp
//   ./qbpart_cli --problem sample.qp --method qbp --out solution.txt
//   # parallel portfolio: 16 independent starts on 8 threads, best wins
//   ./qbpart_cli --problem sample.qp --starts 16 --threads 8
//
// Methods: qbp (the paper's solver), multilevel, gfm, gkl, sa.  Every run
// goes through engine::SolvePipeline (presolve, solve, lift, validate).
// With --starts > 1 (or --portfolio) it runs the engine's parallel
// portfolio: start points derive deterministically from --seed, so the
// chosen assignment is identical for any --threads value.  Single-start
// GFM/GKL/SA need a feasible start, produced QBP(B=0)-style; QBP accepts
// any start (--start random).  The result assignment is written in the
// `assign` format of core/problem_io.hpp and can be fed back via --initial.
#include <cstdio>
#include <fstream>
#include <memory>

#include "bench_support/circuits.hpp"
#include "core/initial.hpp"
#include "core/presolve.hpp"
#include "core/problem_io.hpp"
#include "core/report.hpp"
#include "engine/spec.hpp"
#include "solver_flags.hpp"
#include "util/cli.hpp"
#include "util/prof.hpp"

namespace {

int emit_sample(const std::string& path) {
  // A mid-sized instance from the Table I family, written as a .qp file.
  const auto instance = qbp::make_circuit(*qbp::find_preset("cktb"));
  if (!qbp::write_problem_file(path, instance.problem)) {
    std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s (%d components, 16 partitions)\n", path.c_str(),
              instance.problem.num_components());
  return 0;
}

// Shared tail of every solve path: report + optional assignment dump.
int finish(const qbp::PartitionProblem& problem,
           const qbp::Assignment& final_assignment, bool quiet,
           const std::string& out_path) {
  const auto report = qbp::make_report(problem, final_assignment);
  std::printf("final: objective %.1f, capacity ok: %s, timing ok: %s\n",
              report.objective, report.capacity_ok ? "yes" : "no",
              report.timing_ok ? "yes" : "no");
  if (!quiet) {
    std::printf("%s", qbp::to_string(report).c_str());
  }
  if (!out_path.empty()) {
    if (!qbp::write_assignment_file(out_path, final_assignment)) {
      std::fprintf(stderr, "cannot write '%s'\n", out_path.c_str());
      return 1;
    }
    std::printf("assignment written to %s\n", out_path.c_str());
  }
  return 0;
}

void print_presolve(const qbp::PresolveStats& stats, std::int32_t original) {
  std::printf(
      "presolve: removed %d of %d components (r0=%d r1=%d r2=%d rn=%d, "
      "%d passes) in %.3f s\n",
      stats.components_removed, original, stats.r0, stats.r1, stats.r2,
      stats.rn, stats.passes, stats.seconds);
}

}  // namespace

int main(int argc, char** argv) {
  std::string problem_path;
  std::string out_path;
  std::string initial_path;
  std::string emit_sample_path;
  std::string start = "qbp0";
  bool portfolio = false;
  bool quiet = false;
  bool profile = false;

  qbp::CliParser cli("qbpart_cli",
                     "timing- and capacity-constrained partitioning from a "
                     ".qp problem file");
  cli.add_string("problem", problem_path, "input problem file (.qp)");
  qbp::engine::SolverSpec defaults;
  defaults.threads = 0;  // a local run may use every core
  qbp::SolverFlags solver_flags(cli, defaults);
  cli.add_string("out", out_path, "write the final assignment here");
  cli.add_string("initial", initial_path,
                 "read the starting assignment from this file");
  cli.add_string("start", start,
                 "start strategy when --initial absent: qbp0 | random | greedy");
  cli.add_flag("portfolio", portfolio,
               "run through the parallel portfolio driver even for 1 start "
               "(implied by --starts > 1)");
  cli.add_string("emit-sample", emit_sample_path,
                 "write a sample problem file and exit");
  cli.add_flag("quiet", quiet, "suppress the capacity report");
  cli.add_flag("profile", profile,
               "time solver phases; the report gains a phase breakdown");
  if (const auto exit_code = cli.run(argc, argv)) return *exit_code;
  const auto spec = solver_flags.spec();
  if (!spec) return 1;
  if (profile) qbp::prof::set_enabled(true);
  if (!emit_sample_path.empty()) return emit_sample(emit_sample_path);
  if (problem_path.empty()) {
    std::fprintf(stderr, "--problem is required (or --emit-sample)\n%s",
                 cli.usage().c_str());
    return 1;
  }

  qbp::PartitionProblem problem;
  if (const auto parsed = qbp::read_problem_file(problem_path, problem);
      !parsed.ok) {
    std::fprintf(stderr, "%s: %s\n", problem_path.c_str(), parsed.message.c_str());
    return 1;
  }
  std::printf("%s: %d components, %d partitions, %lld wires, %lld timing "
              "constraints\n",
              problem_path.c_str(), problem.num_components(),
              problem.num_partitions(),
              static_cast<long long>(problem.netlist().total_wires()),
              static_cast<long long>(problem.timing().count()));

  // Every path -- one start or a portfolio -- runs the same normalize ->
  // presolve -> solve -> lift -> validate pipeline.
  const auto solver = qbp::engine::make_solver(*spec);
  if (!solver) {
    std::fprintf(stderr, "unknown --method '%s'\n", spec->method.c_str());
    return 1;
  }
  const qbp::engine::SolvePipeline pipeline(
      problem, qbp::engine::pipeline_options(*spec));
  if (pipeline.reduced()) {
    print_presolve(pipeline.presolve_stats(), problem.num_components());
  }

  // Parallel portfolio path: K deterministic starts, best result wins.
  if (portfolio || spec->starts > 1) {
    const auto run = pipeline.run(*solver, spec->starts);
    const auto& result = run.portfolio;
    std::printf(
        "portfolio: %d/%d starts on %d threads, %.2f s wall (%.2f s total "
        "work, winner start %d in %.2f s), %d audited\n",
        result.starts_run, spec->starts, result.threads_used, result.seconds,
        result.seconds_total, result.best_start, result.seconds_best_start,
        result.starts_validated);
    if (!result.best.found_feasible) {
      std::fprintf(stderr,
                   "no start found a fully feasible solution (best penalized "
                   "value %.1f); rerun with more --starts or --iterations\n",
                   result.best.best_penalized);
      return 2;
    }
    return finish(problem, result.best.best_feasible, quiet, out_path);
  }

  // Starting assignment.
  qbp::Assignment initial;
  bool initial_feasible = false;
  if (!initial_path.empty()) {
    const auto parsed = qbp::read_assignment_file(
        initial_path, problem.num_components(), problem.num_partitions(), initial);
    if (!parsed.ok) {
      std::fprintf(stderr, "%s: %s\n", initial_path.c_str(),
                   parsed.message.c_str());
      return 1;
    }
    initial_feasible = problem.is_feasible(initial);
  } else {
    qbp::InitialStrategy strategy = qbp::InitialStrategy::kQbpZeroWireCost;
    if (start == "random") {
      strategy = qbp::InitialStrategy::kRandom;
    } else if (start == "greedy") {
      strategy = qbp::InitialStrategy::kGreedyBalanced;
    } else if (start != "qbp0") {
      std::fprintf(stderr, "unknown --start '%s'\n", start.c_str());
      return 1;
    }
    const auto made = qbp::make_initial(problem, strategy, spec->seed);
    initial = made.assignment;
    initial_feasible = made.feasible;
  }
  std::printf("start: objective %.1f, feasible: %s\n",
              problem.objective(initial), initial_feasible ? "yes" : "no");

  // Single start.  The feasible-region walks (GFM/GKL/SA) insist on a
  // feasible start instead of letting the adapter legalize one.
  const std::string& method = spec->method;
  if ((method == "gfm" || method == "gkl" || method == "sa") &&
      !initial_feasible) {
    std::fprintf(stderr, "%s requires a feasible starting assignment\n",
                 method.c_str());
    return 2;
  }
  const auto result = pipeline.solve_one(*solver, {initial, spec->seed});
  if (!result.found_feasible) {
    std::fprintf(stderr,
                 "%s found no fully feasible solution (best penalized value "
                 "%.1f); rerun with more --iterations or a different --seed\n",
                 method.c_str(), result.best_penalized);
    return 2;
  }
  // `iterations` is the solver's own progress unit (Burkard iterations,
  // FM/KL passes, SA temperature steps); "audited" counts the results the
  // shadow validator checked (1 with validation on, else 0).
  std::printf("%s: %lld iterations, %.2f s, %d audited\n", method.c_str(),
              static_cast<long long>(result.iterations), result.seconds,
              result.validated ? 1 : 0);
  return finish(problem, result.best_feasible, quiet, out_path);
}
