// Multilevel V-cycle QBP partitioning (extension beyond the paper).
//
// The paper's heuristic scales to hundreds of components; the standard way
// to push it further (and the direction the field took after 1993) is a
// multilevel scheme:
//
//   1. COARSEN: heavy-edge matching merges strongly-connected component
//      pairs into clusters (sizes add, wires re-accumulate between
//      clusters, timing constraints keep the tightest bound across the cut
//      pairs; intra-cluster constraints vanish -- co-location has delay
//      D(i,i) = 0, so merging can never violate a pairwise bound).  The
//      hierarchy grows until `max_levels` levels exist, the coarsest level
//      reaches `coarsest_target` clusters, or a level shrinks by less than
//      the `min_shrink` floor.
//   2. SOLVE the coarsest PP with the Burkard heuristic (cheap: few
//      clusters, same partitions).  Warm-start compatible: the caller's
//      `initial` is projected down the hierarchy and seeds this solve, so
//      the engine Portfolio's warm-start injection flows straight through.
//   3. UNCOARSEN one level: every component inherits its cluster's
//      partition.  The projection is exact -- it preserves C1 (cluster
//      sizes are member sums), C2 (the coarse bound is the tightest fine
//      bound) and the objective (intra-cluster wires cost B(i,i) = 0).
//   4. REFINE at that level: `refine_passes` bounded best-improvement
//      sweeps through the shared DeltaEvaluator (cached, commit-patched
//      incident rows) on the penalized objective.  Repeat 3-4 up to the
//      finest level.  Only there, when timing constraints still break, a
//      min-conflicts repair walk (capped at 10*N moves) restores C2; its
//      answer is the one the V-cycle returns.  On the measured ladder every
//      coarse level's answer is infeasible (MultilevelResult's
//      `level_violations`), so all feasibility comes from that one walk.
//
// Determinism: bit-identical results at every thread count.  The matching
// runs as parallel proposal rounds (each vertex's preferred partner is a
// pure function of the round's frozen matching state) followed by a serial
// commit in a seeded deterministic order; refinement inherits the
// determinism of polish_iterate / repair_timing.
#pragma once

#include <cstdint>
#include <vector>

#include "core/burkard.hpp"
#include "core/problem.hpp"

namespace qbp {

struct CoarseProblem {
  PartitionProblem problem;
  /// cluster_of[fine_component] = coarse component id.
  std::vector<std::int32_t> cluster_of;
  std::int32_t num_clusters = 0;
};

struct CoarsenOptions {
  /// A pair may merge only if the merged size fits the largest partition
  /// times this factor (guards against unplaceable super-components).
  double max_cluster_capacity_fraction = 0.5;
  /// Deterministic tie-breaking seed for the matching commit order.
  std::uint64_t seed = 1;
  /// Read by nothing: the coarsening runs on the caller's thread.  Kept
  /// only because the benchmark program still sets it.
  std::int32_t inner_threads = 1;
};

/// One level of heavy-edge-matching coarsening.  Unmatched components
/// become singleton clusters.  num_clusters < N whenever any wire connects
/// two mergeable components.
[[nodiscard]] CoarseProblem coarsen(const PartitionProblem& problem,
                                    const CoarsenOptions& options = {});

/// Project a coarse assignment back to the fine components.
[[nodiscard]] Assignment uncoarsen(const CoarseProblem& coarse,
                                   const Assignment& coarse_assignment);

struct MultilevelOptions {
  /// Total levels in the hierarchy *including* the finest: 1 disables
  /// coarsening entirely (the run is then bit-identical to solve_qbp with
  /// `coarse_solver` on the original problem), 2 adds one coarse level, and
  /// so on.  Values above kMaxLevels are clamped.
  std::int32_t max_levels = 20;
  /// Stop coarsening when a level shrinks the problem by less than this
  /// factor (next_clusters >= min_shrink * current_components).
  double min_shrink = 0.9;
  /// Stop coarsening once a level has at most this many clusters; the
  /// Burkard heuristic is strong at this size, so going deeper only loses
  /// structure.
  std::int32_t coarsest_target = 200;
  /// Bounded best-improvement refinement sweeps per uncoarsened level
  /// (polish_iterate: DeltaEvaluator move sweep + swap sweeps, C1
  /// invariant).  0 disables the polish; the finest level still walks.
  std::int32_t refine_passes = 3;
  /// Burkard budget on the coarsest problem.
  BurkardOptions coarse_solver;
  /// The V-cycle reads only `penalty`: it drives the polish on every level
  /// and the finest result's penalized value.  A whole BurkardOptions stays
  /// only because the benchmark program sets its `inner_threads`.
  BurkardOptions refine_solver;
  CoarsenOptions coarsen;
  /// Cooperative cancellation hook, forwarded into the coarsest solve and
  /// checked between levels (a fired hook skips the remaining refinement
  /// work while the projection still reaches the finest level).  Empty =
  /// never stop.
  std::function<bool()> should_stop;

  /// Hard cap on hierarchy depth (the level storage is reserved up front so
  /// the per-level problem pointers stay stable).
  static constexpr std::int32_t kMaxLevels = 64;

  MultilevelOptions() { coarse_solver.iterations = 80; }
};

struct MultilevelResult {
  BurkardResult finest;             // the finest level's refined answer
  std::int32_t levels_used = 0;     // coarsening levels actually applied
  std::vector<std::int32_t> level_sizes;  // component count per level, fine->coarse
  double seconds = 0.0;
  /// Wall clock spent building the coarsening hierarchy (subset of
  /// `seconds`).
  double coarsen_seconds = 0.0;
  /// Wall clock of the Burkard solve on the coarsest level (subset of
  /// `seconds`).
  double coarse_solve_seconds = 0.0;
  /// Per refined level, finest first (`levels_used` entries): the timing
  /// violations left after the polish (after the projection on a level the
  /// stop hook skipped), and the moves of the repair walk (0 where none
  /// ran, which is every level above the finest).
  std::vector<std::int64_t> level_violations;
  std::vector<std::int64_t> level_repair_moves;
  /// Wall clock of the polish on every level and of the repair walk
  /// (subsets of `seconds`).
  double polish_seconds = 0.0;
  double repair_seconds = 0.0;
};

/// Full V-cycle from `initial` (used only to seed the coarsest solve).
[[nodiscard]] MultilevelResult solve_qbp_multilevel(
    const PartitionProblem& problem, const Assignment& initial,
    const MultilevelOptions& options = {});

}  // namespace qbp
