// SolverSpec: one solve as qbpartd's two framings and both CLIs state it --
// a named engine solver over a deterministic portfolio of starts, plus the
// presolve and V-cycle knobs.  The three functions below are the only code
// that knows what a spec means; every front end just reads its fields.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "engine/pipeline.hpp"
#include "engine/solver.hpp"

namespace qbp::engine {

struct SolverSpec {
  std::string method = "qbp";     // qbp | multilevel | gfm | gkl | sa
  std::int32_t starts = 1;        // independent portfolio starts
  std::int32_t threads = 1;       // portfolio worker threads (0 = all hardware)
  std::int32_t iterations = 100;  // QBP iteration budget (qbp method only)
  /// Master seed and determinism anchor, in [0, 2^53): every such integer
  /// survives a JSON number unrounded.
  std::uint64_t seed = 1993;
  /// Shadow-validate every portfolio start (core/validate.hpp); absent =
  /// the process default.
  std::optional<bool> validate;
  bool presolve = true;  // bit-identical to off whenever no rule fires
  /// RN threshold: remainders with at most this many free components are
  /// solved exactly.
  std::int32_t presolve_rn = 4;
  /// Comma-separated reduction rules, any of r0,r1,r2,rn (empty = none).
  std::string presolve_rules = "r0,r1,r2,rn";
  /// Multilevel V-cycle shape (multilevel method only).  The sentinels keep
  /// the core/multilevel.hpp defaults.
  std::int32_t ml_levels = 0;       // total levels incl. finest; 1 = flat
  double ml_min_shrink = 0.0;       // stop when a level shrinks less than this
  std::int32_t ml_refine_passes = -1;  // polish sweeps per uncoarsened level
};

/// The message for the first out-of-range field; empty when the spec is
/// valid.  The method name is make_solver's to judge.
[[nodiscard]] std::string check_spec(const SolverSpec& spec);

/// The solver `spec.method` names, with the spec's iteration budget and
/// V-cycle shape; nullptr for an unknown method.
[[nodiscard]] std::unique_ptr<Solver> make_solver(const SolverSpec& spec);

/// SolvePipeline settings: presolve switch, rules and RN threshold,
/// portfolio seed and threads, validate override; the rest default.
[[nodiscard]] PipelineOptions pipeline_options(const SolverSpec& spec);

}  // namespace qbp::engine
