// Parallel portfolio / multistart driver over the Solver interface.
//
// The paper's Section 5 observation -- QBP is insensitive to its starting
// solution, so several cheap starts beat one long run -- is exactly the
// property a portfolio exploits: K independent starts of one solver run
// concurrently on a thread pool and the best outcome wins.
//
// Determinism contract (the property the engine tests pin down):
//
//   * start i's StartPoint (a random initial assignment + RNG seed) is a
//     pure function of (master seed, i), drawn from start_stream()'s
//     fork() sub-stream -- never of which thread picks the start up.
//     There is no injected start: a caller with its own assignment (the
//     ECO warm path) runs it directly;
//   * results land in an index-addressed slot array and the winner is the
//     first slot under the strict better_result() order, so selection is
//     independent of completion order;
//   * therefore: same master seed + same solver and start count =>
//     bit-identical chosen assignment for any thread count, as long as the
//     job's `stop` token does not fire.
//
// Wall-clock accounting is total, not winner-only: `seconds` is what the
// caller actually waited, `seconds_total` the CPU-time-like sum over all
// starts, `seconds_best_start` the winner's own runtime.
#pragma once

#include <cstdint>
#include <optional>
#include <stop_token>
#include <string_view>
#include <vector>

#include "engine/solver.hpp"
#include "util/rng.hpp"

namespace qbp::engine {

struct PortfolioOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency() (at least
  /// 1), capped at the number of starts.
  std::int32_t threads = 0;
  /// Master seed; start i's stream is fork(i) of it.
  std::uint64_t seed = 1993;
  /// Keep every start's SolverResult in PortfolioResult::starts (index
  /// order).  Turn off to save memory on huge fan-outs.
  bool keep_start_results = true;
  /// External job-level cancellation (deadline enforcement, client cancel):
  /// when this token fires, in-flight starts are cancelled cooperatively and
  /// pending ones are skipped.  The default token can never fire and costs
  /// nothing.  A run whose token fires keeps the determinism guarantee only
  /// for the starts that already completed.
  std::stop_token stop{};
  /// Shadow-validate every completed start (core/validate.hpp): recompute
  /// feasibility and objectives from scratch and cross-check the delta
  /// machinery, firing a contract violation on mismatch.  nullopt defers to
  /// the process default (qbp::validation_enabled(), i.e. the
  /// QBPART_VALIDATE build option or set_validation_enabled()); the service
  /// layer sets this per job.
  std::optional<bool> validate;
};

struct PortfolioResult {
  /// Winner under better_result(), copied out of `starts`.
  SolverResult best;
  /// Index of the winning start; -1 when no start ran.
  std::int32_t best_start = -1;
  /// Per-start outcomes in index order (empty unless keep_start_results;
  /// skipped starts hold a default SolverResult with cancelled = true).
  std::vector<SolverResult> starts;

  /// Wall clock of the whole portfolio call.
  double seconds = 0.0;
  /// Sum of per-start runtimes (total work, ~CPU time across the pool).
  double seconds_total = 0.0;
  /// The winning start's own runtime.
  double seconds_best_start = 0.0;

  std::int32_t starts_run = 0;        // actually executed
  std::int32_t starts_cancelled = 0;  // executed but saw the stop token fire
  std::int32_t starts_skipped = 0;    // never started (`stop` fired first)
  std::int32_t starts_errored = 0;    // threw (solve or audit); not selectable
  std::int32_t starts_validated = 0;  // shadow-audited clean
  std::int32_t threads_used = 0;
};

/// Start `index`'s random stream under `master_seed`: fork(index) of the
/// master generator.  Its first draw is the start's StartPoint::seed; the
/// draws after it place the start's random initial assignment.
[[nodiscard]] Rng start_stream(std::uint64_t master_seed, std::int32_t index);

/// The shadow audit every portfolio start gets when validation is on:
/// recompute `result`'s reported numbers from scratch (validate_outcome)
/// and cross-check the delta machinery at its best assignment
/// (validate_deltas), with `penalty` the solver's penalized_with().  A
/// mismatch fires one contract violation carrying `context`, so the fail
/// mode decides: throw ContractViolation, abort, or log and count.  Marks
/// the result validated when it returns.
void audit_result(const PartitionProblem& problem, double penalty,
                  SolverResult& result, std::string_view context);

class Portfolio {
 public:
  explicit Portfolio(PortfolioOptions options = {}) : options_(options) {}

  [[nodiscard]] const PortfolioOptions& options() const noexcept {
    return options_;
  }

  /// K starts of one solver.
  [[nodiscard]] PortfolioResult run(const PartitionProblem& problem,
                                    const Solver& solver,
                                    std::int32_t num_starts) const;


 private:
  PortfolioOptions options_;
};

}  // namespace qbp::engine
