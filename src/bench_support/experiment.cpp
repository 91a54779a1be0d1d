#include "bench_support/experiment.hpp"

#include <cstdio>

#include "baselines/gfm.hpp"
#include "baselines/gkl.hpp"
#include "baselines/sa.hpp"
#include "core/initial.hpp"
#include "engine/adapters.hpp"
#include "engine/pipeline.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace qbp {

ExperimentRow run_experiment(const std::string& circuit_name,
                             const PartitionProblem& problem,
                             const ExperimentConfig& config) {
  // Shared initial feasible solution via QBP with B = 0 (Section 5).
  const InitialResult initial = make_initial(
      problem, InitialStrategy::kQbpZeroWireCost, config.seed);
  return run_experiment_from(circuit_name, problem, initial.assignment,
                             initial.feasible, config);
}

ExperimentRow run_experiment_from(const std::string& circuit_name,
                                  const PartitionProblem& problem,
                                  const Assignment& start,
                                  bool initial_feasible,
                                  const ExperimentConfig& config) {
  ExperimentRow row;
  row.circuit = circuit_name;

  const bool feasible_start = initial_feasible && problem.is_feasible(start);
  if (!feasible_start) {
    log::warn("experiment ", circuit_name,
              ": start is not fully feasible; GFM/GKL/SA are skipped");
  }
  row.start_cost = problem.wirelength(start);

  // Each leg reads its clock before scoring its answer.
  const auto outcome = [&](const Assignment& found, double seconds) {
    MethodOutcome out;
    out.cpu_seconds = seconds;
    out.final_cost = problem.wirelength(found);
    out.feasible = problem.is_feasible(found);
    out.improvement_pct =
        row.start_cost > 0.0
            ? (row.start_cost - out.final_cost) / row.start_cost * 100.0
            : 0.0;
    return out;
  };

  {
    BurkardOptions options;
    options.iterations = config.qbp_iterations;
    engine::PipelineOptions pipeline_options;
    pipeline_options.presolve = config.presolve;
    const Timer timer;
    const engine::SolvePipeline pipeline(problem, pipeline_options);
    const engine::SolverResult qbp = pipeline.solve_one(
        engine::BurkardSolver(options), {start, config.seed});
    const double seconds = timer.seconds();
    row.qbp = outcome(qbp.found_feasible ? qbp.best_feasible : qbp.best,
                      seconds);
    row.qbp.feasible = qbp.found_feasible;
  }
  if (!feasible_start) return row;

  {
    const Timer timer;
    const GfmResult gfm = solve_gfm(problem, start);
    const double seconds = timer.seconds();
    row.gfm = outcome(gfm.assignment, seconds);
  }
  {
    GklOptions options;
    options.max_outer_loops = config.gkl_outer_loops;
    const Timer timer;
    const GklResult gkl = solve_gkl(problem, start, options);
    const double seconds = timer.seconds();
    row.gkl = outcome(gkl.assignment, seconds);
    row.gkl_pairs_scored = gkl.pairs_scored;
  }
  {
    SaOptions options;
    options.seed = config.seed;
    const Timer timer;
    const SaResult sa = solve_sa(problem, start, options);
    const double seconds = timer.seconds();
    row.sa = outcome(sa.assignment, seconds);
  }
  return row;
}

bool write_bench_json(const std::string& path, const json::Value& value) {
  if (path.empty()) return true;
  if (!json::write_json_file(path, value)) {
    std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "json written to %s\n", path.c_str());
  return true;
}

json::Value rows_to_json(const std::vector<ExperimentRow>& rows) {
  json::Value out = json::Value::array();
  for (const auto& row : rows) {
    const auto method = [](const MethodOutcome& outcome) {
      json::Value cell = json::Value::object();
      cell.set("final", outcome.final_cost);
      cell.set("improvement_pct", outcome.improvement_pct);
      cell.set("cpu_s", outcome.cpu_seconds);
      cell.set("feasible", outcome.feasible);
      return cell;
    };
    json::Value entry = json::Value::object();
    entry.set("circuit", row.circuit);
    entry.set("start", row.start_cost);
    entry.set("qbp", method(row.qbp));
    entry.set("gfm", method(row.gfm));
    json::Value gkl = method(row.gkl);
    gkl.set("pairs_scored", row.gkl_pairs_scored);
    entry.set("gkl", std::move(gkl));
    entry.set("sa", method(row.sa));
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace qbp
