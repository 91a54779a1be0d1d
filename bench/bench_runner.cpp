// The benchmark driver: runs every suite behind the paper's tables, the
// studies behind its prose claims and the scaling/serving experiments with
// one machine-readable output format, and doubles as the CI
// bench-regression gate via --check.
//
//   bench_runner --suite all --json out.json          # full local baseline
//   bench_runner --smoke --json out.json --check bench/BENCH_smoke.json
//                                                    # ^ the CI gate
//   bench_runner --smoke --profile                    # phase breakdown
//
// JSON schema (schema = 1):
//   { "schema": 1, "mode": "smoke"|"full",
//     "host": { "logical_cores", "cpu_model", "kernel", "compiler",
//               "build_type" },                 (--check ignores it)
//     "suites": { "<suite>": [ {row}, ... ], ... },
//     "phases": { "<phase>": {"seconds","count"}, ... } }     (--profile)
//
// Every suite is one Suite declaration (declared_suites() below): how to run
// it (rows are plain JSON objects), which members key a row, which members
// --check compares EXACTLY -- objectives, counters, hashes: every solver is
// deterministic, so any drift means the algorithm changed -- which members
// are wall-clock and must satisfy
//   new <= old * (1 + time_tolerance) + 0.1 s
// (the absolute slack keeps sub-100ms smoke timings from tripping on noise),
// an optional cross-row bound -- where each paper claim a suite backs is
// checked on the run's own rows -- and the columns of its printed table.
// Nested members are addressed with dots ("qbp.final").  One generic checker
// and one table printer read the declarations, so a newly measured layer is
// one more key in one list.
#include <sys/utsname.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/gfm.hpp"
#include "baselines/gkl.hpp"
#include "bench_support/circuits.hpp"
#include "bench_support/eco_stream.hpp"
#include "bench_support/experiment.hpp"
#include "bench_support/netlist_stats.hpp"
#include "bench_support/serve_bench.hpp"
#include "bench_support/table.hpp"
#include "core/burkard.hpp"
#include "core/delta_evaluator.hpp"
#include "core/initial.hpp"
#include "core/multilevel.hpp"
#include "core/presolve.hpp"
#include "core/problem_io.hpp"
#include "engine/adapters.hpp"
#include "engine/pipeline.hpp"
#include "netlist/generator.hpp"
#include "oracle/embedding.hpp"
#include "oracle/exact.hpp"
#include "oracle/qhat.hpp"
#include "service/cache.hpp"
#include "service/job.hpp"
#include "timing/constraints.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/prof.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace {

using qbp::json::Value;

struct RunnerConfig {
  bool smoke = false;
  double time_tolerance = 0.25;
  /// Presolve before the QBP and V-cycle solves.  The standard circuits have
  /// no reducible structure, so on/off runs are bit-identical there and
  /// --check works against one shared baseline in both modes.
  bool presolve = true;
};

std::vector<std::string> circuit_names(const RunnerConfig& config) {
  if (config.smoke) return {"cktb"};
  std::vector<std::string> names;
  for (const auto& preset : qbp::shihkuh_presets()) names.push_back(preset.name);
  return names;
}

/// The N ladder of the flat-solve suites.
std::vector<std::int32_t> scaling_sizes(const RunnerConfig& config) {
  if (config.smoke) return {200, 400};
  return {200, 400, 800, 1600, 3200};
}

template <typename T>
Value array_of(const std::vector<T>& values) {
  Value out = Value::array();
  for (const T value : values) out.push_back(value);
  return out;
}

/// One solve through the shared normalize -> presolve -> solve -> lift ->
/// validate path, from an explicit start.
qbp::engine::SolverResult pipeline_solve(const qbp::PartitionProblem& problem,
                                         const qbp::engine::Solver& solver,
                                         const qbp::Assignment& start,
                                         bool presolve) {
  qbp::engine::PipelineOptions options;
  options.presolve.enabled = presolve;
  return qbp::engine::SolvePipeline(problem, options)
      .solve_one(solver, {start, 0});
}

/// The host a run measured its timed keys on: logical cores, CPU model,
/// kernel release, compiler and build type ("unknown" where the platform
/// does not say).
Value host_json() {
  std::string cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const auto colon = line.find(':');
    if (line.starts_with("model name") && colon != std::string::npos) {
      cpu_model = std::string(qbp::trim(std::string_view(line).substr(colon + 1)));
      break;
    }
  }
  utsname name{};
  const std::string kernel =
      uname(&name) == 0 ? std::string(name.sysname) + " " + name.release
                        : "unknown";
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "gcc " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  const std::string build_type = QBP_BUILD_TYPE;
  Value host = Value::object();
  host.set("logical_cores",
           static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  host.set("cpu_model", cpu_model);
  host.set("kernel", kernel);
  host.set("compiler", compiler);
  host.set("build_type", build_type.empty() ? "unspecified" : build_type);
  return host;
}

// --- suite runners: each returns its rows as a JSON array ------------------

// Table I: structural circuit descriptions (no solving).  Generation is
// deterministic, so the counts are gated like objectives and the generation
// time like wall-clock.
Value run_table1(const RunnerConfig& config) {
  Value rows = Value::array();
  for (const auto& name : circuit_names(config)) {
    const qbp::Timer timer;
    const auto instance = qbp::make_circuit(*qbp::find_preset(name));
    const double gen_seconds = timer.seconds();
    const auto& problem = instance.problem;
    const auto stats = qbp::compute_stats(problem.netlist());

    Value row = Value::object();
    row.set("circuit", name);
    row.set("components", stats.num_components);
    row.set("wires", stats.total_wires);
    row.set("timing_constraints", problem.timing().count());
    row.set("size_ratio", stats.size_ratio);
    row.set("avg_degree", stats.avg_degree);
    row.set("capacity_slack_pct", (problem.topology().total_capacity() /
                                       problem.netlist().total_size() -
                                   1.0) *
                                      100.0);
    row.set("gen_seconds", gen_seconds);
    rows.push_back(std::move(row));
  }
  return rows;
}

// Tables II / III (paper Section 5): QBP vs GFM vs GKL, plus SA as an
// extension, from one shared start per circuit, computed on the
// timing-constrained problem; Table II then drops the constraints from the
// problem it solves.
Value run_paper_table(bool with_timing, const RunnerConfig& config) {
  qbp::ExperimentConfig experiment;
  experiment.presolve.enabled = config.presolve;
  if (config.smoke) {
    experiment.qbp_iterations = 30;
    experiment.gkl_outer_loops = 3;
  }
  std::vector<qbp::ExperimentRow> rows;
  for (const auto& name : circuit_names(config)) {
    const auto instance = qbp::make_circuit(*qbp::find_preset(name));
    const auto initial = qbp::make_initial(
        instance.problem, qbp::InitialStrategy::kQbpZeroWireCost,
        experiment.seed);
    rows.push_back(qbp::run_experiment_from(
        name,
        with_timing ? instance.problem : instance.problem.without_timing(),
        initial.assignment, initial.feasible, experiment));
    std::fprintf(stderr, "  %s done\n", name.c_str());
  }
  return qbp::rows_to_json(rows);
}

// Ablation: QBP alone (solve_qbp, timing active), one row per (study,
// circuit, variant):
//   init    -- four start strategies, seed 1993 (Section 5: "the same kind
//              of good results from any arbitrary initial solution");
//   iters   -- the iteration budget, 10 .. 400 (Section 5: "the more CPU
//              time spent, the better the results"); the longest budget's
//              row carries the incumbent penalized value per iteration as
//              "history", which no gate reads;
//   penalty -- the embedded penalty from 2 up to the Theorem 1 bound
//              (Section 3.2), plus the eq. (3) eta variant at 50;
//   polish  -- the literal STEP 1-8 listing against iterate polish and
//              perturbed restarts (DESIGN.md section 5).
// Every study but init starts from the paper's QBP(B=0) start.  Smoke runs
// each study on cktb alone, at most 30 iterations.
Value run_ablation(const RunnerConfig& config) {
  const auto circuits = [&](std::vector<std::string> full) {
    return config.smoke ? std::vector<std::string>{"cktb"} : full;
  };
  Value rows = Value::array();
  const auto solve = [&](const char* study, const std::string& circuit,
                         std::string variant,
                         const qbp::PartitionProblem& problem,
                         const qbp::InitialResult& start,
                         qbp::BurkardOptions options, bool history = false) {
    const auto result = qbp::solve_qbp(problem, start.assignment, options);
    Value row = Value::object();
    row.set("study", study);
    row.set("circuit", circuit);
    row.set("variant", std::move(variant));
    row.set("penalty", options.penalty);
    row.set("start", problem.wirelength(start.assignment));
    row.set("start_feasible", start.feasible);
    row.set("final", problem.wirelength(result.found_feasible
                                            ? result.best_feasible
                                            : result.best));
    row.set("feasible", result.found_feasible);
    row.set("penalized", result.best_penalized);
    row.set("violations", qbp::ordered_violations(problem, result.best));
    row.set("seconds", result.seconds);
    if (history) row.set("history", array_of(result.history));
    rows.push_back(std::move(row));
  };
  const auto paper_start = [](const qbp::PartitionProblem& problem) {
    return qbp::make_initial(problem, qbp::InitialStrategy::kQbpZeroWireCost,
                             1993);
  };
  qbp::BurkardOptions defaults;
  defaults.iterations = config.smoke ? 30 : 100;

  for (const auto& circuit : circuits({"cktb", "ckte", "cktg"})) {
    const auto problem = qbp::make_circuit(*qbp::find_preset(circuit)).problem;
    const std::pair<qbp::InitialStrategy, const char*> strategies[] = {
        {qbp::InitialStrategy::kRandom, "random"},
        {qbp::InitialStrategy::kRandomFeasible, "random_feasible"},
        {qbp::InitialStrategy::kGreedyBalanced, "greedy_balanced"},
        {qbp::InitialStrategy::kQbpZeroWireCost, "qbp_b0"}};
    for (const auto& [strategy, variant] : strategies) {
      solve("init", circuit, variant, problem,
            qbp::make_initial(problem, strategy, 1993), defaults);
    }
  }
  const std::vector<std::int32_t> budgets =
      config.smoke ? std::vector<std::int32_t>{10, 20, 30}
                   : std::vector<std::int32_t>{10, 25, 50, 100, 200, 400};
  for (const auto& circuit : circuits({"cktb", "ckte"})) {
    const auto problem = qbp::make_circuit(*qbp::find_preset(circuit)).problem;
    const auto start = paper_start(problem);
    for (const std::int32_t budget : budgets) {
      qbp::BurkardOptions options;
      options.iterations = budget;
      solve("iters", circuit, "it=" + std::to_string(budget), problem, start,
            options, budget == budgets.back());
    }
  }
  for (const auto& circuit : circuits({"ckte"})) {
    const auto problem = qbp::make_circuit(*qbp::find_preset(circuit)).problem;
    const auto start = paper_start(problem);
    for (const double penalty : {2.0, 10.0, 50.0, 500.0}) {
      qbp::BurkardOptions options = defaults;
      options.penalty = penalty;
      solve("penalty", circuit, "penalty=" + qbp::format_double(penalty, 0),
            problem, start, options);
    }
    qbp::BurkardOptions theorem1 = defaults;
    theorem1.penalty = qbp::theorem1_penalty(problem);
    solve("penalty", circuit, "theorem1", problem, start, theorem1);
    qbp::BurkardOptions eq3 = defaults;
    eq3.eta_includes_omega = true;
    solve("penalty", circuit, "eq3_omega", problem, start, eq3);
  }
  for (const auto& circuit : circuits({"cktb", "ckte", "cktg"})) {
    const auto problem = qbp::make_circuit(*qbp::find_preset(circuit)).problem;
    const auto start = paper_start(problem);
    const std::tuple<const char*, std::int32_t, std::int32_t> variants[] = {
        {"literal", 0, 0},
        {"polish", defaults.polish_sweeps, 0},
        {"restart", 0, defaults.restart_period},
        {"default", defaults.polish_sweeps, defaults.restart_period}};
    for (const auto& [variant, polish, restart] : variants) {
      qbp::BurkardOptions options = defaults;
      options.polish_sweeps = polish;
      options.restart_period = restart;
      solve("polish", circuit, variant, problem, start, options);
    }
  }
  return rows;
}

// Sparse (paper Section 4.3): "We never explicitly generate the Q-hat
// matrix."  Times the eta read STEP 3 makes at iteration 1 -- a fresh
// DeltaEvaluator's eta(), which builds every incident row, mean of 20
// repeats -- against a dense O((MN)^2) reference that reads every Q-hat
// entry once, on the scaling family, and records the memory a materialized
// Q-hat would take.  "mismatches" counts the entries where the two differ.
Value run_sparse(const RunnerConfig& config) {
  const std::vector<std::int32_t> sizes =
      config.smoke ? std::vector<std::int32_t>{100, 200}
                   : std::vector<std::int32_t>{100, 200, 400, 800, 1600};
  Value rows = Value::array();
  for (const std::int32_t n : sizes) {
    const auto problem = qbp::make_scaling_problem(n, 42);
    const auto u =
        qbp::make_initial(problem, qbp::InitialStrategy::kGreedyBalanced, 1)
            .assignment;
    const std::int64_t size = problem.flat_size();
    std::vector<double> sparse(static_cast<std::size_t>(size));
    std::vector<double> dense(sparse.size());

    constexpr int kRepeats = 20;
    const qbp::Timer sparse_timer;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      qbp::DeltaEvaluator(problem, qbp::kPaperPenalty).eta(u, sparse);
    }
    const double sparse_seconds = sparse_timer.seconds() / kRepeats;
    const qbp::Timer dense_timer;
    for (std::int64_t s = 0; s < size; ++s) {
      double total = 0.0;
      for (std::int32_t j = 0; j < problem.num_components(); ++j) {
        total += qbp::qhat_entry(problem, qbp::kPaperPenalty,
                                 problem.flat_index(u[j], j), s);
      }
      dense[static_cast<std::size_t>(s)] = total;
    }
    const double dense_seconds = dense_timer.seconds();
    std::int64_t mismatches = 0;
    for (std::size_t s = 0; s < sparse.size(); ++s) {
      mismatches += sparse[s] != dense[s] ? 1 : 0;
    }

    Value row = Value::object();
    row.set("n", n);
    row.set("mn", size);
    row.set("dense_mib", static_cast<double>(size) * static_cast<double>(size) *
                             8.0 / (1024.0 * 1024.0));
    row.set("nnz", qbp::nominal_nonzeros(problem));
    row.set("sparse_seconds", sparse_seconds);
    row.set("dense_seconds", dense_seconds);
    row.set("speedup", dense_seconds / sparse_seconds);
    row.set("mismatches", mismatches);
    rows.push_back(std::move(row));
    std::fprintf(stderr, "  N=%d done\n", n);
  }
  return rows;
}

/// An exact_gap instance: n components on a 2 x 2 grid, wires 4n, about n
/// timing constraints, capacities 25% above the generator's hidden
/// placement -- small enough for branch and bound to prove the optimum.
qbp::PartitionProblem make_gap_instance(std::int32_t n, std::uint64_t seed) {
  qbp::RandomNetlistSpec spec;
  spec.name = "x" + std::to_string(seed);
  spec.num_components = n;
  spec.total_wires = 4 * static_cast<std::int64_t>(n);
  spec.num_slots = 4;
  spec.grid_width = 2;
  spec.seed = seed;
  auto generated = qbp::generate_netlist(spec);
  auto topology = qbp::PartitionTopology::grid(2, 2, qbp::CostKind::kManhattan);
  std::vector<double> usage(4, 0.0);
  for (std::int32_t j = 0; j < n; ++j) {
    usage[generated.hidden_slot[j]] += generated.netlist.component_size(j);
  }
  for (qbp::PartitionId i = 0; i < 4; ++i) {
    topology.set_capacity(i, usage[i] * 1.25);
  }
  qbp::TimingSpec timing_spec;
  timing_spec.target_count = n;
  timing_spec.seed = seed;
  auto timing = qbp::generate_timing_constraints(
      generated.netlist, generated.hidden_slot, topology, timing_spec);
  return qbp::PartitionProblem(std::move(generated.netlist),
                               std::move(topology), std::move(timing));
}

// Exact gap (extension): how far QBP (60 iterations), GFM and GKL land
// from the optimum that branch and bound, warm-started from QBP's answer,
// proves on 18-component instances.  All three start from the QBP(B=0)
// start; "gap_pct" is (final - optimum) / optimum in percent.
Value run_exact_gap(const RunnerConfig& config) {
  const std::vector<std::uint64_t> seeds =
      config.smoke ? std::vector<std::uint64_t>{21, 22}
                   : std::vector<std::uint64_t>{21, 22, 23, 24};
  constexpr std::int32_t kComponents = 18;
  Value rows = Value::array();
  for (const std::uint64_t seed : seeds) {
    const auto problem = make_gap_instance(kComponents, seed);
    const auto start = qbp::make_initial(
        problem, qbp::InitialStrategy::kQbpZeroWireCost, seed);
    qbp::BurkardOptions qbp_options;
    qbp_options.iterations = 60;
    const auto heuristic =
        qbp::solve_qbp(problem, start.assignment, qbp_options);
    qbp::ExactOptions exact_options;
    if (heuristic.found_feasible) {
      exact_options.warm_start = &heuristic.best_feasible;
    }
    const qbp::Timer exact_timer;
    const auto exact = qbp::solve_exact(problem, exact_options);
    const double exact_seconds = exact_timer.seconds();

    Value row = Value::object();
    row.set("seed", static_cast<std::int64_t>(seed));
    row.set("n", kComponents);
    row.set("proven", exact.found && exact.proven_optimal);
    row.set("optimum", exact.objective);
    row.set("nodes", exact.nodes);
    row.set("exact_seconds", exact_seconds);
    const auto method = [&](double final_objective) {
      Value cell = Value::object();
      cell.set("final", final_objective);
      cell.set("gap_pct",
               exact.objective > 0.0
                   ? (final_objective - exact.objective) / exact.objective *
                         100.0
                   : 0.0);
      return cell;
    };
    row.set("qbp", method(heuristic.found_feasible
                              ? heuristic.best_feasible_objective
                              : heuristic.best_penalized));
    row.set("gfm", method(qbp::solve_gfm(problem, start.assignment).objective));
    row.set("gkl", method(qbp::solve_gkl(problem, start.assignment).objective));
    rows.push_back(std::move(row));
    std::fprintf(stderr, "  seed %llu done (%lld nodes, %.2fs)\n",
                 static_cast<unsigned long long>(seed),
                 static_cast<long long>(exact.nodes), exact_seconds);
  }
  return rows;
}

// Scaling: flat QBP whole-solve time on fixed-density generated instances.
Value run_scaling(const RunnerConfig& config) {
  qbp::BurkardOptions options;
  options.iterations = config.smoke ? 10 : 30;
  const qbp::engine::BurkardSolver solver(options);

  Value rows = Value::array();
  for (const std::int32_t n : scaling_sizes(config)) {
    const auto problem = qbp::make_scaling_problem(n, 7);
    const auto initial = qbp::make_initial(
        problem, qbp::InitialStrategy::kQbpZeroWireCost, 7);
    const qbp::Timer timer;
    const auto result =
        pipeline_solve(problem, solver, initial.assignment, config.presolve);
    const double seconds = timer.seconds();

    Value row = Value::object();
    row.set("n", n);
    row.set("wires", problem.netlist().total_wires());
    row.set("constraints", problem.timing().count());
    row.set("iterations", result.iterations);
    row.set("seconds", seconds);
    row.set("ms_per_iter", result.iterations > 0
                               ? seconds * 1000.0 /
                                     static_cast<double>(result.iterations)
                               : 0.0);
    row.set("final", problem.wirelength(result.found_feasible
                                            ? result.best_feasible
                                            : initial.assignment));
    row.set("feasible", result.found_feasible);
    rows.push_back(std::move(row));
    std::fprintf(stderr, "  N=%d done (%.2fs)\n", n, seconds);
  }
  return rows;
}

// Presolve: reducible instances (make_presolve_problem) solved once with
// presolve off and once on.  The rule counters are exact-gated (the reducer
// is deterministic); both solve times are timed, so the baseline pins the
// speedup presolve buys.
Value run_presolve(const RunnerConfig& config) {
  qbp::BurkardOptions options;
  options.iterations = config.smoke ? 10 : 30;
  const qbp::engine::BurkardSolver solver(options);

  Value rows = Value::array();
  for (const std::int32_t n : scaling_sizes(config)) {
    const auto problem = qbp::make_presolve_problem(n, 7);
    const auto initial = qbp::make_initial(
        problem, qbp::InitialStrategy::kQbpZeroWireCost, 7);
    const qbp::PresolveStats stats = qbp::presolve(problem).stats;
    const auto leg = [&](bool presolve) {
      const qbp::Timer timer;
      auto result =
          pipeline_solve(problem, solver, initial.assignment, presolve);
      result.seconds = timer.seconds();
      return result;
    };
    const auto off = leg(false);
    const auto on = leg(true);
    // Feasible objective, or the penalized value when none was found.
    const auto final_of = [](const qbp::engine::SolverResult& result) {
      return result.found_feasible ? result.best_feasible_objective
                                   : result.best_penalized;
    };

    Value row = Value::object();
    row.set("n", n);
    row.set("r0", stats.r0);
    row.set("r1", stats.r1);
    row.set("r2", stats.r2);
    row.set("rn", stats.rn);
    row.set("components_removed", stats.components_removed);
    row.set("reduction_pct", 100.0 * stats.components_removed / n);
    row.set("presolve_seconds", stats.seconds);
    row.set("seconds_off", off.seconds);
    row.set("seconds_on", on.seconds);
    row.set("final_off", final_of(off));
    row.set("final_on", final_of(on));
    row.set("feasible_off", off.found_feasible);
    row.set("feasible_on", on.found_feasible);
    rows.push_back(std::move(row));
    std::fprintf(stderr, "  N=%d done (off %.2fs, on %.2fs, -%d comps)\n", n,
                 off.seconds, on.seconds, stats.components_removed);
  }
  return rows;
}

// Eco: warm-start serving latency.  Each N runs the service job layer
// against a private SolutionCache: one cold solve (inserted), one exact
// re-submission (must come back as a bit-identical cache hit), then a short
// stream of ECO-perturbed variants (bench_support/eco_stream) that should be
// answered by the warm re-solve path.  The scripted cache sequence is
// deterministic end to end, so finals are exact-gated; the headline number
// is warm_p50 / cold.
Value run_eco(const RunnerConfig& config) {
  const std::vector<std::int32_t> sizes =
      config.smoke ? std::vector<std::int32_t>{200, 400}
                   : std::vector<std::int32_t>{800, 3200};
  constexpr std::int32_t kVariants = 5;

  Value rows = Value::array();
  for (const std::int32_t n : sizes) {
    const auto base = qbp::make_scaling_problem(n, 7);
    qbp::service::SolutionCache cache(16);

    qbp::service::Job job;
    job.solver.method = "qbp";
    // Enough work that the single-start cold solve lands feasible at every
    // size (the exact-hit and warm-start checks need an "ok" cold); smoke
    // leans on extra starts instead of iterations to stay quick.
    job.solver.starts = config.smoke ? 4 : 1;
    job.solver.iterations = config.smoke ? 10 : 100;
    job.solver.seed = 7;
    // Explicit so the spec fingerprint is independent of the build's
    // validation default; the warm path re-validates on its own anyway.
    job.solver.validate = false;
    const auto submit = [&](const qbp::PartitionProblem& problem,
                            std::string id, double& seconds) {
      std::ostringstream out;
      qbp::write_problem(out, problem);
      job.problem_text = out.str();
      job.id = std::move(id);
      const qbp::Timer timer;
      auto result = qbp::service::run_job(job, &cache);
      seconds = timer.seconds();
      return result;
    };

    double cold_seconds = 0.0;
    double exact_seconds = 0.0;
    const auto cold = submit(base, "cold", cold_seconds);
    const auto exact = submit(base, "exact", exact_seconds);
    const bool exact_hit = exact.cache_hit && exact.status == cold.status &&
                           exact.objective == cold.objective &&
                           exact.assignment == cold.assignment;

    std::vector<double> warm_finals;
    std::vector<double> warm_times;
    for (std::int32_t v = 1; v <= kVariants; ++v) {
      double seconds = 0.0;
      const auto warm = submit(qbp::make_eco_variant(base, 7, v),
                               "eco-" + std::to_string(v), seconds);
      warm_finals.push_back(warm.objective);
      if (warm.warm_start) warm_times.push_back(seconds);
    }
    double warm_p50 = 0.0;
    if (!warm_times.empty()) {
      std::sort(warm_times.begin(), warm_times.end());
      warm_p50 = warm_times[warm_times.size() / 2];
    }
    const double warm_ratio = cold_seconds > 0.0 ? warm_p50 / cold_seconds : 0.0;

    Value row = Value::object();
    row.set("n", n);
    row.set("cold_seconds", cold_seconds);
    row.set("cold_final", cold.objective);
    row.set("exact_hit", exact_hit);
    row.set("variants", kVariants);
    row.set("warm_hits", static_cast<std::int64_t>(warm_times.size()));
    row.set("warm_finals", array_of(warm_finals));
    row.set("warm_p50_seconds", warm_p50);
    row.set("warm_ratio", warm_ratio);
    rows.push_back(std::move(row));
    std::fprintf(stderr,
                 "  N=%d done (cold %.2fs, warm p50 %.3fs, ratio %.3f, "
                 "%zu/%d warm)\n",
                 n, cold_seconds, warm_p50, warm_ratio, warm_times.size(),
                 kVariants);
  }
  return rows;
}

// V-cycle: the multilevel solver at sizes the flat heuristic cannot touch
// (N up to 100k).  The rows need the hierarchy stats, which the Solver
// interface does not carry, so the V-cycle runs through
// solve_qbp_multilevel directly -- on the pipeline's reduced instance (the
// N=30k and 100k instances shed a few components), lifted back through the
// pipeline's SolutionLift.  The per-level arrays (finest first) are exact:
// the violations each polish leaves and the repair walk's moves, so a walk
// that starts running again on a level whose answer is discarded trips the
// gate.
Value run_vcycle(const RunnerConfig& config) {
  const std::vector<std::int32_t> sizes =
      config.smoke ? std::vector<std::int32_t>{10000}
                   : std::vector<std::int32_t>{10000, 30000, 100000};
  const qbp::MultilevelOptions options;

  Value rows = Value::array();
  for (const std::int32_t n : sizes) {
    const auto problem = qbp::make_scaling_problem(n, 7);
    // A plain random seed: at V-cycle scale the hierarchy owns solution
    // quality, and the QBP zero-wire-cost start would cost more than the
    // whole solve.
    const auto initial =
        qbp::make_initial(problem, qbp::InitialStrategy::kRandom, 7);
    qbp::engine::PipelineOptions pipeline_options;
    pipeline_options.presolve.enabled = config.presolve;
    const qbp::Timer timer;
    const qbp::engine::SolvePipeline pipeline(problem, pipeline_options);
    const auto result = qbp::solve_qbp_multilevel(
        pipeline.reduced_problem(),
        pipeline.lift().restrict_to_reduced(initial.assignment), options);
    const double seconds = timer.seconds();
    const qbp::BurkardResult& finest = result.finest;
    const qbp::Assignment best = pipeline.lift().lift(
        finest.found_feasible ? finest.best_feasible : finest.best);

    Value row = Value::object();
    row.set("n", n);
    row.set("wires", problem.netlist().total_wires());
    row.set("constraints", problem.timing().count());
    row.set("levels", result.levels_used);
    row.set("level_sizes", array_of(result.level_sizes));
    row.set("coarsen_seconds", result.coarsen_seconds);
    row.set("seconds", seconds);
    row.set("coarse_solve_seconds", result.coarse_solve_seconds);
    row.set("polish_seconds", result.polish_seconds);
    row.set("repair_seconds", result.repair_seconds);
    row.set("level_violations", array_of(result.level_violations));
    row.set("level_repair_moves", array_of(result.level_repair_moves));
    // Feasible wirelength, or the penalized value when none was found.
    row.set("final", finest.found_feasible
                         ? problem.wirelength(best)
                         : problem.penalized_value(
                               best, options.refine_solver.penalty));
    row.set("feasible", finest.found_feasible);
    rows.push_back(std::move(row));
    std::fprintf(stderr, "  N=%d done (%.2fs, %d levels)\n", n, seconds,
                 result.levels_used);
  }
  return rows;
}

// Serve (bench_support/serve_bench): saturated qbpartd throughput under both
// edge framings.  Smoke shrinks the problem and batch sizes.
Value run_serve(const RunnerConfig& config) {
  qbp::ServeBenchConfig serve;
  if (config.smoke) {
    serve.n = 200;
    serve.jobs = 24;
    serve.warm_jobs = 8;
  }
  Value rows = Value::array();
  for (const auto& result : qbp::run_serve_bench(serve)) {
    Value row = Value::object();
    row.set("scenario", result.scenario);
    row.set("framing", result.framing);
    row.set("workers", result.workers);
    row.set("jobs", result.jobs);
    row.set("seconds", result.seconds);
    row.set("jobs_per_sec", result.jobs_per_sec);
    row.set("results_hash", result.results_hash);
    row.set("cache_hits", result.cache_hits);
    row.set("warm_hits", result.warm_hits);
    row.set("ok", result.ok);
    rows.push_back(std::move(row));
  }
  return rows;
}

// --- declarations, the generic gate and the table printer ------------------

/// Member lookup by dotted path ("qbp.final"); nullptr when absent.
const Value* member(const Value& row, std::string_view path) {
  const Value* at = &row;
  for (;;) {
    const auto dot = path.find('.');
    at = at->find(path.substr(0, dot));
    if (at == nullptr || dot == std::string_view::npos) return at;
    path.remove_prefix(dot + 1);
  }
}

struct Gate {
  double time_tolerance = 0.25;
  int failures = 0;

  void fail(const std::string& where, const std::string& why) {
    std::fprintf(stderr, "GATE FAIL %s: %s\n", where.c_str(), why.c_str());
    ++failures;
  }
};

struct Column {
  const char* header;
  const char* key;
  /// Decimals for numbers; kGrouped prints a rounded, digit-grouped integer.
  int decimals = 2;
};
constexpr int kGrouped = -1;

struct Suite {
  const char* name;
  /// Table heading (stdout) and progress label (stderr).
  const char* title;
  Value (*run)(const RunnerConfig&);
  /// Members that identify a row; baseline rows are matched on all of them.
  std::vector<const char*> key;
  /// Members that must equal the baseline's bit for bit.
  std::vector<const char*> exact;
  /// Wall-clock members held to the time tolerance.
  std::vector<const char*> timed;
  std::vector<Column> columns;
  /// Bounds between rows of one run, which no baseline can vouch for.
  void (*cross_check)(Gate&, const Value& rows, const RunnerConfig&) = nullptr;
  /// Part of --suite all.
  bool in_all = true;
};

double number(const Value& row, std::string_view path) {
  const Value* value = member(row, path);
  return value != nullptr ? value->as_number() : 0.0;
}

// Tables II and III (paper Section 5): "GFM ... produced the worst
// results" -- no method ends above GFM on any row, SA included -- and at
// full size QBP is the best of the paper's three methods on at least 5 of
// the 7 circuits (the paper reports 6).
void paper_table_bounds(const char* suite, Gate& gate, const Value& rows,
                        const RunnerConfig& config) {
  int qbp_best = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Value& row = rows.at(r);
    const std::string where = std::string(suite) + "/" + row.get_string("circuit");
    const double gfm = number(row, "gfm.final");
    for (const char* method : {"qbp", "gkl", "sa"}) {
      const double final_cost = number(row, std::string(method) + ".final");
      if (final_cost > gfm) {
        gate.fail(where + "/" + method,
                  "final " + qbp::format_double(final_cost, 0) +
                      " is worse than GFM's " + qbp::format_double(gfm, 0));
      }
    }
    const double qbp = number(row, "qbp.final");
    if (qbp <= gfm && qbp <= number(row, "gkl.final")) ++qbp_best;
  }
  if (!config.smoke && qbp_best < 5) {
    gate.fail(suite, "QBP is best on " + std::to_string(qbp_best) + " of " +
                         std::to_string(rows.size()) +
                         " circuits, fewer than 5");
  }
}

// The ablation suite's claims, per (study, circuit):
//   init    -- every start strategy ends feasible, and the largest final is
//              at most 1.13x the smallest;
//   iters   -- the final never gets worse as the budget grows;
//   penalty -- every penalty of 50 (the paper's) or more ends feasible with
//              no violation left in the best iterate;
//   polish  -- the default (polish + restart) ends below the literal
//              STEP 1-8 listing.
// A study without rows fails too.
void ablation_bounds(Gate& gate, const Value& rows, const RunnerConfig&) {
  // Rows of one (study, circuit), in run order.
  std::map<std::pair<std::string, std::string>, std::vector<const Value*>>
      groups;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Value& row = rows.at(r);
    groups[{row.get_string("study"), row.get_string("circuit")}].push_back(
        &row);
  }
  const auto final_of = [](const Value* row) { return number(*row, "final"); };
  const auto cost = [](double value) { return qbp::format_double(value, 0); };
  const auto find = [](const std::vector<const Value*>& group,
                       std::string_view variant) -> const Value* {
    for (const Value* row : group) {
      if (row->get_string("variant") == variant) return row;
    }
    return nullptr;
  };
  std::set<std::string> checked;
  for (const auto& [at, group] : groups) {
    const auto& [study, circuit] = at;
    checked.insert(study);
    const std::string where = "ablation/" + study + "/" + circuit;
    const auto fail = [&](const Value* row, const std::string& why) {
      gate.fail(where + "/" + row->get_string("variant"), why);
    };
    if (study == "init") {
      const auto [lo, hi] = std::minmax_element(
          group.begin(), group.end(), [&](const Value* a, const Value* b) {
            return final_of(a) < final_of(b);
          });
      if (final_of(*hi) > 1.13 * final_of(*lo)) {
        gate.fail(where, "finals spread from " + cost(final_of(*lo)) +
                             " to " + cost(final_of(*hi)) + ", over 1.13x");
      }
      for (const Value* row : group) {
        if (!row->get_bool("feasible", false)) fail(row, "no feasible answer");
      }
    } else if (study == "iters") {
      for (std::size_t k = 1; k < group.size(); ++k) {
        if (final_of(group[k]) > final_of(group[k - 1])) {
          fail(group[k], "final " + cost(final_of(group[k])) +
                             " is worse than " + cost(final_of(group[k - 1])) +
                             " at " + group[k - 1]->get_string("variant"));
        }
      }
    } else if (study == "penalty") {
      int strong = 0;
      for (const Value* row : group) {
        // The eq. (3) row ablates eta at the paper's penalty, not the
        // penalty itself.
        if (number(*row, "penalty") < qbp::kPaperPenalty ||
            row->get_string("variant") == "eq3_omega") {
          continue;
        }
        ++strong;
        if (!row->get_bool("feasible", false) ||
            number(*row, "violations") != 0) {
          fail(row, "left " + member(*row, "violations")->dump() +
                        " violations (feasible: " +
                        member(*row, "feasible")->dump() + ")");
        }
      }
      if (strong == 0) gate.fail(where, "no row at a penalty of 50 or more");
    } else if (study == "polish") {
      const Value* literal = find(group, "literal");
      const Value* enhanced = find(group, "default");
      if (literal == nullptr || enhanced == nullptr) {
        gate.fail(where, "no literal/default pair to compare");
      } else if (final_of(enhanced) >= final_of(literal)) {
        fail(enhanced, "final " + cost(final_of(enhanced)) +
                           " does not beat the literal listing's " +
                           cost(final_of(literal)));
      }
    }
  }
  for (const char* study : {"init", "iters", "penalty", "polish"}) {
    if (checked.count(study) == 0) {
      gate.fail(std::string("ablation/") + study, "no rows to check");
    }
  }
}

// Sparse (Section 4.3): the implicit gather must equal the dense reference
// in every entry and beat it at every N.
void sparse_bounds(Gate& gate, const Value& rows, const RunnerConfig&) {
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Value& row = rows.at(r);
    const std::string where = "sparse/n=" + member(row, "n")->dump();
    if (number(row, "mismatches") != 0) {
      gate.fail(where, member(row, "mismatches")->dump() +
                           " eta entries differ from the dense reference");
    }
    const double sparse = number(row, "sparse_seconds");
    const double dense = number(row, "dense_seconds");
    if (sparse >= dense) {
      gate.fail(where, "sparse gather (" + qbp::format_double(sparse, 6) +
                           "s) is not faster than the dense one (" +
                           qbp::format_double(dense, 6) + "s)");
    }
  }
}

// Exact gap: branch and bound proves every instance optimal, and QBP lands
// no farther from the optimum than GFM or GKL on any of them.
void exact_gap_bounds(Gate& gate, const Value& rows, const RunnerConfig&) {
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Value& row = rows.at(r);
    const std::string where = "exact_gap/seed=" + member(row, "seed")->dump();
    if (!row.get_bool("proven", false)) {
      gate.fail(where, "optimum not proven");
    }
    const double qbp = number(row, "qbp.final");
    for (const char* method : {"gfm", "gkl"}) {
      const double other = number(row, std::string(method) + ".final");
      if (qbp > other) {
        gate.fail(where + "/qbp",
                  "final " + qbp::format_double(qbp, 0) + " is farther from " +
                      "the optimum than " + method + "'s " +
                      qbp::format_double(other, 0));
      }
    }
  }
}

// The headline acceptance bound of the eco suite: at full scale a warm
// re-solve must land at <= 10% of the cold solve's latency.
void eco_bounds(Gate& gate, const Value& rows, const RunnerConfig& config) {
  if (config.smoke) return;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Value& row = rows.at(r);
    const double ratio = row.get_number("warm_ratio", 0.0);
    if (row.get_number("n", 0.0) >= 3200 && ratio > 0.10) {
      gate.fail("eco/n=" + member(row, "n")->dump(),
                "warm/cold ratio " + qbp::format_double(ratio, 3) +
                    " exceeds 0.10");
    }
  }
}

// Serve: every reply must be a result; within one run each binary row must
// hash identically to the NDJSON row of the same (scenario, workers) --
// bit-identical results across framings and worker counts; and the binary
// framing must hold its throughput edge on the saturated exact-hit row
// (>= 3x NDJSON jobs/s at one worker), measured from the current run so a
// stale baseline cannot satisfy it.
void serve_bounds(Gate& gate, const Value& rows, const RunnerConfig&) {
  const auto find = [&rows](const std::string& scenario,
                            std::string_view framing,
                            double workers) -> const Value* {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const Value& row = rows.at(r);
      if (row.get_string("scenario") == scenario &&
          row.get_string("framing") == framing &&
          row.get_number("workers", -1.0) == workers) {
        return &row;
      }
    }
    return nullptr;
  };
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Value& row = rows.at(r);
    const std::string scenario = row.get_string("scenario");
    const std::string framing = row.get_string("framing");
    const std::string where = "serve/" + scenario + "/" + framing +
                              "/workers=" + member(row, "workers")->dump();
    if (!row.get_bool("ok", false)) {
      gate.fail(where, "replies were not all results");
    }
    const Value* ndjson =
        find(scenario, "ndjson", row.get_number("workers", -1.0));
    if (framing == "binary" && ndjson != nullptr &&
        ndjson->get_string("results_hash") != row.get_string("results_hash")) {
      gate.fail(where, "results diverge from the NDJSON row");
    }
  }
  const Value* ndjson = find("exact", "ndjson", 1);
  const Value* binary = find("exact", "binary", 1);
  if (ndjson == nullptr || binary == nullptr) {
    gate.fail("serve/exact/workers=1", "no ndjson/binary pair to compare");
    return;
  }
  const double ndjson_rate = ndjson->get_number("jobs_per_sec", 0.0);
  const double binary_rate = binary->get_number("jobs_per_sec", 0.0);
  if (binary_rate < 3.0 * ndjson_rate) {
    gate.fail("serve/exact/workers=1",
              "binary " + qbp::format_double(binary_rate, 0) +
                  " jobs/s < 3x NDJSON " + qbp::format_double(ndjson_rate, 0) +
                  " jobs/s");
  }
}

const std::vector<Suite>& declared_suites() {
  const std::vector<Column> paper_columns = {
      {"circuits", "circuit"},
      {"start", "start", kGrouped},
      {"QBP final", "qbp.final", kGrouped},
      {"(-%)", "qbp.improvement_pct", 1},
      {"cpu", "qbp.cpu_s", 1},
      {"GFM final", "gfm.final", kGrouped},
      {"(-%)", "gfm.improvement_pct", 1},
      {"cpu", "gfm.cpu_s", 1},
      {"GKL final", "gkl.final", kGrouped},
      {"(-%)", "gkl.improvement_pct", 1},
      {"cpu", "gkl.cpu_s", 1},
      {"SA final", "sa.final", kGrouped},
      {"(-%)", "sa.improvement_pct", 1},
      {"cpu", "sa.cpu_s", 1}};
  static const std::vector<Suite> suites = {
      {.name = "table1",
       .title = "Table I (circuit descriptions)",
       .run = run_table1,
       .key = {"circuit"},
       .exact = {"components", "wires", "timing_constraints"},
       .timed = {"gen_seconds"},
       .columns = {{"ckt", "circuit"},
                   {"components", "components", kGrouped},
                   {"wires", "wires", kGrouped},
                   {"timing constraints", "timing_constraints", kGrouped},
                   {"size max/min", "size_ratio", 1},
                   {"avg degree", "avg_degree", 1},
                   {"capacity slack (%)", "capacity_slack_pct", 1},
                   {"gen time (s)", "gen_seconds"}}},
      {.name = "table2",
       .title = "Table II (no timing)",
       .run = [](const RunnerConfig& config) {
         return run_paper_table(/*with_timing=*/false, config);
       },
       .key = {"circuit"},
       .exact = {"start", "qbp.final", "gfm.final", "gkl.final", "sa.final",
                 "gkl.pairs_scored"},
       .timed = {"qbp.cpu_s", "gfm.cpu_s", "gkl.cpu_s", "sa.cpu_s"},
       .columns = paper_columns,
       .cross_check =
           [](Gate& gate, const Value& rows, const RunnerConfig& config) {
             paper_table_bounds("table2", gate, rows, config);
           }},
      {.name = "table3",
       .title = "Table III (with timing)",
       .run = [](const RunnerConfig& config) {
         return run_paper_table(/*with_timing=*/true, config);
       },
       .key = {"circuit"},
       .exact = {"start", "qbp.final", "gfm.final", "gkl.final", "sa.final",
                 "gkl.pairs_scored"},
       .timed = {"qbp.cpu_s", "gfm.cpu_s", "gkl.cpu_s", "sa.cpu_s"},
       .columns = paper_columns,
       .cross_check =
           [](Gate& gate, const Value& rows, const RunnerConfig& config) {
             paper_table_bounds("table3", gate, rows, config);
           }},
      {.name = "ablation",
       .title = "Ablation (QBP studies, timing active)",
       .run = run_ablation,
       .key = {"study", "circuit", "variant"},
       .exact = {"start", "final", "feasible", "penalized", "violations"},
       .timed = {"seconds"},
       .columns = {{"study", "study"},
                   {"circuit", "circuit"},
                   {"variant", "variant"},
                   {"start", "start", kGrouped},
                   {"final", "final", kGrouped},
                   {"feasible", "feasible"},
                   {"violations", "violations", kGrouped},
                   {"cpu", "seconds"}},
       .cross_check = ablation_bounds},
      {.name = "sparse",
       .title = "Sparse (STEP 3 eta off fresh incident rows vs dense Q-hat)",
       .run = run_sparse,
       .key = {"n"},
       .exact = {"nnz", "mismatches"},
       // The dense reference is not the solver's code; its time feeds
       // only the cross-check's "faster at every N".
       .timed = {"sparse_seconds"},
       .columns = {{"N", "n", kGrouped},
                   {"MN", "mn", kGrouped},
                   {"dense MiB", "dense_mib", 1},
                   {"nominal nnz", "nnz", kGrouped},
                   {"sparse (s)", "sparse_seconds", 6},
                   {"dense (s)", "dense_seconds", 3},
                   {"speedup", "speedup", 0},
                   {"mismatches", "mismatches", kGrouped}},
       .cross_check = sparse_bounds},
      {.name = "exact_gap",
       .title = "Exact gap (heuristics vs proven optima)",
       .run = run_exact_gap,
       .key = {"seed"},
       .exact = {"proven", "optimum", "nodes", "qbp.final", "gfm.final",
                 "gkl.final"},
       .timed = {"exact_seconds"},
       .columns = {{"seed", "seed", kGrouped},
                   {"N", "n", kGrouped},
                   {"optimum", "optimum", kGrouped},
                   {"B&B nodes", "nodes", kGrouped},
                   {"proven", "proven"},
                   {"QBP gap (%)", "qbp.gap_pct", 1},
                   {"GFM gap (%)", "gfm.gap_pct", 1},
                   {"GKL gap (%)", "gkl.gap_pct", 1}},
       .cross_check = exact_gap_bounds},
      {.name = "scaling",
       .title = "Scaling (flat QBP)",
       .run = run_scaling,
       .key = {"n"},
       .exact = {"final"},
       .timed = {"seconds"},
       .columns = {{"N", "n", kGrouped},
                   {"solve (s)", "seconds"},
                   {"ms / iteration", "ms_per_iter", 1},
                   {"final", "final", 1},
                   {"feasible", "feasible"}}},
      {.name = "presolve",
       .title = "Presolve (reducible instances)",
       .run = run_presolve,
       .key = {"n"},
       .exact = {"r0", "r1", "r2", "rn", "components_removed", "final_off",
                 "final_on"},
       .timed = {"seconds_off", "seconds_on"},
       .columns = {{"N", "n", kGrouped},
                   {"removed", "components_removed", kGrouped},
                   {"(%)", "reduction_pct", 1},
                   {"r0", "r0", kGrouped},
                   {"r1", "r1", kGrouped},
                   {"r2", "r2", kGrouped},
                   {"rn", "rn", kGrouped},
                   {"presolve (s)", "presolve_seconds", 3},
                   {"off (s)", "seconds_off"},
                   {"on (s)", "seconds_on"}}},
      {.name = "eco",
       .title = "Eco (warm-start serving)",
       .run = run_eco,
       .key = {"n"},
       .exact = {"cold_final", "exact_hit", "warm_hits", "warm_finals"},
       .timed = {"cold_seconds", "warm_p50_seconds"},
       .columns = {{"N", "n", kGrouped},
                   {"cold (s)", "cold_seconds"},
                   {"exact hit", "exact_hit"},
                   {"warm", "warm_hits", kGrouped},
                   {"of", "variants", kGrouped},
                   {"warm p50 (s)", "warm_p50_seconds", 3},
                   {"warm/cold", "warm_ratio", 3}},
       .cross_check = eco_bounds},
      {.name = "vcycle",
       .title = "V-cycle (multilevel)",
       .run = run_vcycle,
       .key = {"n"},
       .exact = {"final", "feasible", "levels", "level_sizes",
                 "level_violations", "level_repair_moves"},
       .timed = {"seconds", "coarsen_seconds", "coarse_solve_seconds",
                 "polish_seconds", "repair_seconds"},
       .columns = {{"N", "n", kGrouped},
                   {"levels", "levels", kGrouped},
                   {"coarsen (s)", "coarsen_seconds"},
                   {"coarsest (s)", "coarse_solve_seconds"},
                   {"polish (s)", "polish_seconds"},
                   {"repair (s)", "repair_seconds"},
                   {"solve (s)", "seconds"},
                   {"final", "final", 1},
                   {"feasible", "feasible"}}},
      // Not part of "all": it spins up multi-worker servers and measures
      // saturated throughput, which would perturb (and be perturbed by) the
      // solver suites sharing the machine.  CI runs it as its own
      // bench-gate step against bench/BENCH_serve.json.
      {.name = "serve",
       .title = "Serve (wire framing throughput)",
       .run = run_serve,
       .key = {"scenario", "framing", "workers"},
       .exact = {"results_hash", "cache_hits", "warm_hits"},
       .timed = {"seconds"},
       .columns = {{"scenario", "scenario"},
                   {"framing", "framing"},
                   {"workers", "workers", kGrouped},
                   {"jobs", "jobs", kGrouped},
                   {"secs", "seconds", 3},
                   {"jobs/s", "jobs_per_sec", 0},
                   {"ok", "ok"}},
       .cross_check = serve_bounds,
       .in_all = false},
  };
  return suites;
}

/// "cktb", "n=200", "exact/ndjson/workers=1": strings print bare, numbers
/// with their member name.
std::string row_label(const Suite& suite, const Value& row) {
  std::string label;
  for (const char* key : suite.key) {
    if (!label.empty()) label += "/";
    const Value* value = member(row, key);
    if (value != nullptr && value->is_string()) {
      label += value->as_string();
    } else {
      label += std::string(key) + "=" + (value ? value->dump() : "?");
    }
  }
  return label;
}

const Value* matching_row(const Suite& suite, const Value& baseline,
                          const Value& row) {
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    const Value& candidate = baseline.at(i);
    const bool same = std::all_of(
        suite.key.begin(), suite.key.end(), [&](const char* key) {
          const Value* a = member(candidate, key);
          const Value* b = member(row, key);
          return a != nullptr && b != nullptr && *a == *b;
        });
    if (same) return &candidate;
  }
  return nullptr;
}

void check_suite(Gate& gate, const Suite& suite, const Value& baseline,
                 const Value& rows, const RunnerConfig& config) {
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Value& row = rows.at(r);
    const std::string where =
        std::string(suite.name) + "/" + row_label(suite, row);
    const Value* base_row = matching_row(suite, baseline, row);
    if (base_row == nullptr) {
      gate.fail(where, "row missing from the baseline");
      continue;
    }
    for (const char* key : suite.exact) {
      const Value* was = member(*base_row, key);
      const Value* now = member(row, key);
      if (was == nullptr || now == nullptr) {
        gate.fail(where + "/" + key, "missing from the baseline or the run");
      } else if (!(*was == *now)) {
        gate.fail(where + "/" + key, "changed (baseline " + was->dump() +
                                         ", now " + now->dump() + ")");
      }
    }
    for (const char* key : suite.timed) {
      const Value* was = member(*base_row, key);
      const Value* now = member(row, key);
      if (was == nullptr || now == nullptr) {
        gate.fail(where + "/" + key, "missing from the baseline or the run");
        continue;
      }
      const double limit =
          was->as_number() * (1.0 + gate.time_tolerance) + 0.1;
      if (now->as_number() > limit) {
        gate.fail(where + "/" + key,
                  "time regressed (baseline " +
                      qbp::format_double(was->as_number(), 3) + "s, limit " +
                      qbp::format_double(limit, 3) + "s, now " +
                      qbp::format_double(now->as_number(), 3) + "s)");
      }
    }
  }
  if (suite.cross_check == nullptr) return;
  // A claim checked on zero rows would pass vacuously.
  if (rows.size() == 0) gate.fail(suite.name, "no rows to check");
  suite.cross_check(gate, rows, config);
}

std::string cell(const Value* value, int decimals) {
  if (value == nullptr) return "-";
  if (value->is_bool()) return value->as_bool() ? "yes" : "no";
  if (value->is_string()) return value->as_string();
  if (!value->is_number()) return value->dump();
  if (decimals == kGrouped) {
    return qbp::format_grouped(static_cast<long long>(value->as_number() + 0.5));
  }
  return qbp::format_double(value->as_number(), decimals);
}

void print_table(const Suite& suite, const Value& rows) {
  std::vector<std::string> headers;
  for (const Column& column : suite.columns) headers.emplace_back(column.header);
  qbp::TextTable table(std::move(headers));
  table.set_alignment({qbp::TextTable::Align::kLeft});
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::vector<std::string> cells;
    for (const Column& column : suite.columns) {
      cells.push_back(cell(member(rows.at(r), column.key), column.decimals));
    }
    table.add_row(std::move(cells));
  }
  std::printf("%s\n%s\n", suite.title, table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  RunnerConfig config;
  std::string json_path;
  std::string check_path;
  std::string suite = "all";
  std::string presolve_mode = "on";
  bool profile = false;
  bool list_suites = false;

  const std::vector<Suite>& suites = declared_suites();
  std::string valid;
  std::string named_only;
  for (const Suite& spec : suites) {
    valid += std::string(spec.name) + "|";
    if (!spec.in_all) named_only += std::string(" ") + spec.name;
  }
  valid += "all";

  qbp::CliParser cli("bench_runner", "benchmark driver + CI regression gate");
  cli.add_flag("smoke", config.smoke,
               "reduced sizes/iterations for the CI gate");
  cli.add_string("suite", suite,
                 valid + " (all = every suite except" + named_only +
                     ", which runs only when named)");
  cli.add_flag("list-suites", list_suites,
               "print the valid --suite values and exit");
  cli.add_string("presolve", presolve_mode,
                 "on | off: presolve before the QBP and V-cycle solves; "
                 "bit-identical on the standard suites, so --check holds in "
                 "both modes");
  cli.add_string("json", json_path, "write machine-readable results here");
  cli.add_string("check", check_path,
                 "compare against this baseline JSON; exit 1 on regression");
  cli.add_double("time-tolerance", config.time_tolerance,
                 "relative wall-clock regression allowed by --check");
  cli.add_flag("profile", profile,
               "enable the phase profiler and report the breakdown");
  if (const auto exit_code = cli.run(argc, argv)) return *exit_code;

  if (list_suites) {
    for (const Suite& spec : suites) std::printf("%s\n", spec.name);
    std::printf("all\n");
    return 0;
  }
  if (presolve_mode != "on" && presolve_mode != "off") {
    std::fprintf(stderr, "--presolve must be on|off\n");
    return 2;
  }
  config.presolve = presolve_mode == "on";

  const auto want = [&](const Suite& spec) {
    return suite == "all" ? spec.in_all : suite == spec.name;
  };
  if (suite != "all" && std::none_of(suites.begin(), suites.end(), want)) {
    std::fprintf(stderr, "unknown --suite '%s' (valid suites: %s)\n",
                 suite.c_str(), valid.c_str());
    return 2;
  }

  if (profile) qbp::prof::set_enabled(true);

  std::printf("bench_runner: mode=%s suite=%s\n",
              config.smoke ? "smoke" : "full", suite.c_str());
  Value results = Value::object();
  for (const Suite& spec : suites) {
    if (!want(spec)) continue;
    std::fprintf(stderr, "suite %s: %s\n", spec.name, spec.title);
    Value rows = spec.run(config);
    print_table(spec, rows);
    results.set(spec.name, std::move(rows));
  }

  Value out = Value::object();
  out.set("schema", 1);
  out.set("mode", config.smoke ? "smoke" : "full");
  out.set("host", host_json());
  out.set("suites", results);
  if (profile) {
    const qbp::prof::PhaseReport phases = qbp::prof::snapshot();
    std::printf("%s\n", qbp::prof::to_string(phases).c_str());
    out.set("phases", qbp::prof::to_json(phases));
  }
  if (!qbp::write_bench_json(json_path, out)) return 1;

  if (check_path.empty()) return 0;

  Value baseline;
  std::string error;
  if (!qbp::json::read_json_file(check_path, baseline, &error)) {
    std::fprintf(stderr, "cannot read baseline: %s\n", error.c_str());
    return 1;
  }
  const Value* base_suites = baseline.find("suites");
  if (base_suites == nullptr) {
    std::fprintf(stderr, "baseline has no \"suites\" member\n");
    return 1;
  }
  if (baseline.get_string("mode") != (config.smoke ? "smoke" : "full")) {
    std::fprintf(stderr, "baseline mode '%s' does not match this run\n",
                 baseline.get_string("mode").c_str());
    return 1;
  }

  Gate gate;
  gate.time_tolerance = config.time_tolerance;
  for (const Suite& spec : suites) {
    if (!want(spec)) continue;
    const Value* base = base_suites->find(spec.name);
    if (base == nullptr) {
      gate.fail(std::string("suite ") + spec.name, "missing from the baseline");
      continue;
    }
    check_suite(gate, spec, *base, *results.find(spec.name), config);
  }

  if (gate.failures > 0) {
    std::fprintf(stderr, "bench gate: %d failure(s) vs %s\n", gate.failures,
                 check_path.c_str());
    return 1;
  }
  std::printf("bench gate: OK vs %s (time tolerance %.0f%% + 0.1s)\n",
              check_path.c_str(), gate.time_tolerance * 100.0);
  return 0;
}
