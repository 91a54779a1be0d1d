#include "bench_support/experiment.hpp"

#include <cstdio>

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

  struct {
    Assignment assignment;
    bool feasible;
  } initial{start, initial_feasible && problem.is_feasible(start)};
  if (!initial.feasible) {
    log::warn("experiment ", circuit_name,
              ": start is not fully feasible; GFM/GKL are skipped");
  }
  row.start_cost = problem.wirelength(initial.assignment);

  const auto percent = [&](double final_cost) {
    return row.start_cost > 0.0
               ? (row.start_cost - final_cost) / row.start_cost * 100.0
               : 0.0;
  };

  if (config.run_qbp) {
    BurkardOptions options;
    options.iterations = config.qbp_iterations;
    options.penalty = config.penalty;
    options.inner_threads = config.inner_threads;
    engine::PipelineOptions pipeline_options;
    pipeline_options.presolve = config.presolve;
    const Timer timer;
    const engine::SolvePipeline pipeline(problem, pipeline_options);
    const engine::SolverResult qbp = pipeline.solve_one(
        engine::BurkardSolver(options), {initial.assignment, config.seed});
    row.qbp.cpu_seconds = timer.seconds();
    const Assignment& chosen = qbp.found_feasible ? qbp.best_feasible : qbp.best;
    row.qbp.final_cost = problem.wirelength(chosen);
    row.qbp.feasible = qbp.found_feasible;
    row.qbp.improvement_pct = percent(row.qbp.final_cost);
  }

  if (config.run_gfm && initial.feasible) {
    const Timer timer;
    const GfmResult gfm = solve_gfm(problem, initial.assignment);
    row.gfm.cpu_seconds = timer.seconds();
    row.gfm.final_cost = problem.wirelength(gfm.assignment);
    row.gfm.feasible = problem.is_feasible(gfm.assignment);
    row.gfm.improvement_pct = percent(row.gfm.final_cost);
  }

  if (config.run_gkl && initial.feasible) {
    GklOptions options;
    options.max_outer_loops = config.gkl_outer_loops;
    const Timer timer;
    const GklResult gkl = solve_gkl(problem, initial.assignment, options);
    row.gkl.cpu_seconds = timer.seconds();
    row.gkl.final_cost = problem.wirelength(gkl.assignment);
    row.gkl.feasible = problem.is_feasible(gkl.assignment);
    row.gkl.improvement_pct = percent(row.gkl.final_cost);
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
    entry.set("gkl", method(row.gkl));
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace qbp
