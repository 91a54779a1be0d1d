// The Tables II / III protocol (paper Section 5), packaged for the benches:
//
//   * cost metric: total Manhattan wire length;
//   * one shared initial feasible solution per circuit, produced by QBP
//     with B = 0 ("this same initial solution is used for all three
//     approaches");
//   * QBP runs a fixed 100 iterations; GFM runs to convergence; GKL is cut
//     off after 6 outer loops;
//   * Table II drops the timing constraints, Table III keeps them.
//
// Simulated annealing (baselines/sa.hpp, seeded with the start's seed) runs
// from the same start as a fourth method the paper did not compare.
#pragma once

#include <string>
#include <vector>

#include "bench_support/circuits.hpp"
#include "core/presolve.hpp"
#include "util/json.hpp"

namespace qbp {

struct ExperimentConfig {
  std::int32_t qbp_iterations = 100;
  std::int32_t gkl_outer_loops = 6;
  /// Seed for the shared initial solution and for SA.
  std::uint64_t seed = 1993;
  /// Presolve configuration for the QBP leg, which runs through
  /// engine::SolvePipeline (off by default, matching the paper protocol;
  /// the standard circuits reduce to nothing anyway, so enabling it leaves
  /// objectives bit-identical).
  PresolveOptions presolve{.enabled = false};
};

struct MethodOutcome {
  double final_cost = 0.0;       // wirelength (each wire once)
  double improvement_pct = 0.0;  // (start - final) / start * 100
  double cpu_seconds = 0.0;
  bool feasible = false;
};

struct ExperimentRow {
  std::string circuit;
  double start_cost = 0.0;
  MethodOutcome qbp;
  MethodOutcome gfm;
  MethodOutcome gkl;
  MethodOutcome sa;
};

/// Run the four methods on one problem (timing constraints as present in
/// `problem`; pass problem.without_timing() for the Table II variant).
[[nodiscard]] ExperimentRow run_experiment(const std::string& circuit_name,
                                           const PartitionProblem& problem,
                                           const ExperimentConfig& config = {});

/// As above, but from an explicit shared starting solution.  The paper uses
/// the *same* initial solution for Tables II and III ("start" columns are
/// identical), produced on the timing-constrained problem -- compute it
/// once with make_initial on the full problem and pass it to both variants.
[[nodiscard]] ExperimentRow run_experiment_from(const std::string& circuit_name,
                                                const PartitionProblem& problem,
                                                const Assignment& initial,
                                                bool initial_feasible,
                                                const ExperimentConfig& config);

/// Machine-readable dump: an array of row objects, one member per method
/// (qbp, gfm, gkl, sa: {final, improvement_pct, cpu_s, feasible}).
/// bench_runner writes these as its table2/table3 rows, so the perf
/// trajectory (bench/BENCH_*.json) diffs cleanly across commits --
/// wall-clock fields aside.
[[nodiscard]] json::Value rows_to_json(const std::vector<ExperimentRow>& rows);

/// The --json tail of bench_runner: write `value` to `path` (no-op
/// returning true when `path` is empty), printing a diagnostic to stderr on
/// I/O failure.
[[nodiscard]] bool write_bench_json(const std::string& path,
                                    const json::Value& value);

}  // namespace qbp
