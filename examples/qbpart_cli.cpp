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
#include "engine/engine.hpp"
#include "engine/pipeline.hpp"
#include "util/cli.hpp"
#include "util/prof.hpp"
#include "util/simd.hpp"
#include "util/strings.hpp"

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
  std::string method = "qbp";
  std::string out_path;
  std::string initial_path;
  std::string emit_sample_path;
  std::string start = "qbp0";
  std::int64_t iterations = 100;
  std::int64_t seed = 1993;
  std::int64_t starts = 1;
  std::int64_t threads = 0;
  std::int64_t inner_threads = 1;
  bool portfolio = false;
  bool quiet = false;
  bool profile = false;
  std::string presolve_mode = "on";
  std::string presolve_rules = "r0,r1,r2,rn";
  std::int64_t presolve_rn = 4;
  std::int64_t ml_levels = 0;
  double ml_min_shrink = 0.0;
  std::int64_t ml_refine_passes = -1;
  std::string simd_mode = "on";

  qbp::CliParser cli("qbpart_cli",
                     "timing- and capacity-constrained partitioning from a "
                     ".qp problem file");
  cli.add_string("problem", problem_path, "input problem file (.qp)");
  cli.add_string("method", method, "qbp | multilevel | gfm | gkl | sa");
  cli.add_string("out", out_path, "write the final assignment here");
  cli.add_string("initial", initial_path,
                 "read the starting assignment from this file");
  cli.add_string("start", start,
                 "start strategy when --initial absent: qbp0 | random | greedy");
  cli.add_int("iterations", iterations, "QBP iteration budget");
  cli.add_int("seed", seed, "random seed");
  cli.add_int("starts", starts,
              "independent portfolio starts (> 1 implies --portfolio)");
  cli.add_int("threads", threads,
              "portfolio worker threads (0 = all hardware threads)");
  cli.add_int("inner-threads", inner_threads,
              "threads inside one QBP solve (0 = all hardware threads); "
              "results are bit-identical at every value");
  cli.add_flag("portfolio", portfolio,
               "run through the parallel portfolio driver even for 1 start");
  cli.add_string("emit-sample", emit_sample_path,
                 "write a sample problem file and exit");
  cli.add_flag("quiet", quiet, "suppress the capacity report");
  cli.add_flag("profile", profile,
               "time solver phases; the report gains a phase breakdown");
  cli.add_string("presolve", presolve_mode,
                 "on | off: reduce the instance (forced fixes, interaction "
                 "elimination, co-location merges, exact tiny remainders) "
                 "before solving; bit-identical to off when nothing reduces");
  cli.add_string("presolve-rules", presolve_rules,
                 "comma list of enabled reduction rules (subset of "
                 "r0,r1,r2,rn)");
  cli.add_int("presolve-rn", presolve_rn,
              "solve remainders with at most this many free components "
              "exactly (RN rule)");
  cli.add_int("ml-levels", ml_levels,
              "multilevel: total V-cycle levels including the finest "
              "(1 = flat solve; 0 = solver default)");
  cli.add_double("ml-min-shrink", ml_min_shrink,
                 "multilevel: stop coarsening when a level shrinks by less "
                 "than this factor, in [0, 1) (0 = solver default)");
  cli.add_int("ml-refine-passes", ml_refine_passes,
              "multilevel: polish sweeps per uncoarsened level "
              "(-1 = solver default)");
  cli.add_string("simd", simd_mode,
                 "on | off: vectorized eta/GAP kernels (util/simd); results "
                 "are bit-identical either way");
  if (const auto exit_code = cli.run(argc, argv)) return *exit_code;
  if (simd_mode != "on" && simd_mode != "off") {
    std::fprintf(stderr, "--simd must be on|off\n");
    return 1;
  }
  qbp::simd::set_enabled(simd_mode == "on");
  if (ml_levels < 0 || ml_min_shrink < 0.0 || ml_min_shrink >= 1.0 ||
      ml_refine_passes < -1) {
    std::fprintf(stderr,
                 "--ml-levels must be >= 0, --ml-min-shrink in [0, 1), "
                 "--ml-refine-passes >= -1\n");
    return 1;
  }
  qbp::MultilevelOptions ml_options;
  ml_options.coarsen.inner_threads = static_cast<std::int32_t>(inner_threads);
  ml_options.coarse_solver.inner_threads =
      static_cast<std::int32_t>(inner_threads);
  ml_options.refine_solver.inner_threads =
      static_cast<std::int32_t>(inner_threads);
  if (ml_levels > 0) ml_options.max_levels = static_cast<std::int32_t>(ml_levels);
  if (ml_min_shrink > 0.0) ml_options.min_shrink = ml_min_shrink;
  if (ml_refine_passes >= 0) {
    ml_options.refine_passes = static_cast<std::int32_t>(ml_refine_passes);
  }
  if (presolve_mode != "on" && presolve_mode != "off") {
    std::fprintf(stderr, "--presolve must be on|off\n");
    return 1;
  }
  qbp::PresolveOptions presolve_options;
  presolve_options.enabled = presolve_mode == "on";
  presolve_options.rule_r0 = presolve_rules.find("r0") != std::string::npos;
  presolve_options.rule_r1 = presolve_rules.find("r1") != std::string::npos;
  presolve_options.rule_r2 = presolve_rules.find("r2") != std::string::npos;
  presolve_options.rule_rn = presolve_rules.find("rn") != std::string::npos;
  presolve_options.rn_max_components = static_cast<std::int32_t>(presolve_rn);
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
  std::unique_ptr<qbp::engine::Solver> solver;
  if (method == "qbp") {
    qbp::BurkardOptions options;
    options.iterations = static_cast<std::int32_t>(iterations);
    options.inner_threads = static_cast<std::int32_t>(inner_threads);
    solver = std::make_unique<qbp::engine::BurkardSolver>(options);
  } else if (method == "multilevel") {
    solver = std::make_unique<qbp::engine::MultilevelSolver>(ml_options);
  } else {
    solver = qbp::engine::make_solver(method);
  }
  if (!solver) {
    std::fprintf(stderr, "unknown --method '%s'\n", method.c_str());
    return 1;
  }
  qbp::engine::PipelineOptions pipeline_options;
  pipeline_options.presolve = presolve_options;
  pipeline_options.portfolio.seed = static_cast<std::uint64_t>(seed);
  pipeline_options.portfolio.threads = static_cast<std::int32_t>(threads);
  const qbp::engine::SolvePipeline pipeline(problem, pipeline_options);
  if (pipeline.reduced()) {
    print_presolve(pipeline.presolve_stats(), problem.num_components());
  }

  // Parallel portfolio path: K deterministic starts, best result wins.
  if (portfolio || starts > 1) {
    const auto run =
        pipeline.run(*solver, static_cast<std::int32_t>(starts));
    const auto& result = run.portfolio;
    std::printf(
        "portfolio: %d/%d starts on %d threads, %.2f s wall (%.2f s total "
        "work, winner start %d in %.2f s)\n",
        result.starts_run, static_cast<std::int32_t>(starts),
        result.threads_used, result.seconds, result.seconds_total,
        result.best_start, result.seconds_best_start);
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
    const auto made = qbp::make_initial(problem, strategy,
                                        static_cast<std::uint64_t>(seed));
    initial = made.assignment;
    initial_feasible = made.feasible;
  }
  std::printf("start: objective %.1f, feasible: %s\n",
              problem.objective(initial), initial_feasible ? "yes" : "no");

  // Single start.  The feasible-region walks (GFM/GKL/SA) insist on a
  // feasible start instead of letting the adapter legalize one.
  if ((method == "gfm" || method == "gkl" || method == "sa") &&
      !initial_feasible) {
    std::fprintf(stderr, "%s requires a feasible starting assignment\n",
                 method.c_str());
    return 2;
  }
  const auto result =
      pipeline.solve_one(*solver, {initial, static_cast<std::uint64_t>(seed)});
  if (!result.found_feasible) {
    std::fprintf(stderr,
                 "%s found no fully feasible solution (best penalized value "
                 "%.1f); rerun with more --iterations or a different --seed\n",
                 method.c_str(), result.best_penalized);
    return 2;
  }
  // `iterations` is the solver's own progress unit (Burkard iterations,
  // FM/KL passes, SA temperature steps).
  std::printf("%s: %lld iterations, %.2f s\n", method.c_str(),
              static_cast<long long>(result.iterations), result.seconds);
  return finish(problem, result.best_feasible, quiet, out_path);
}
