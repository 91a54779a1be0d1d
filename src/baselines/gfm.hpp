// GFM: generalized Fiduccia-Mattheyses baseline (paper Section 5).
//
// "The first one is a generalization of Fiduccia & Mattheyses' approach --
// GFM, moving one component at a time.  Associated with each component are
// (M - 1) gain entries, each entry representing the potential gain if that
// component is moved to the corresponding partition."
//
// Pass structure is classic FM, generalized to M-way with an arbitrary
// interconnection cost metric and an arbitrary linear term:
//   * all components start unlocked;
//   * repeatedly apply the highest-gain *feasible* move (a move is feasible
//     when it keeps both capacity C1 and timing C2 satisfied -- "moves are
//     allowed to take place only when they do not introduce timing or
//     capacity violations"), lock the moved component, update the gains of
//     its neighbors;
//   * negative-gain moves are taken too (hill-climbing within a pass); at
//     the end of the pass the suffix after the best prefix is rolled back;
//   * passes repeat until one yields no improvement ("runs till no more
//     improvement is possible").
//
// Each component keeps its M - 1 gain entries as one list sorted by gain
// descending, then target ascending, with a cursor; a max-heap keyed by
// (gain, component, target) holds only each list's current head, stamped
// with the component's version, instead of the classic bucket array,
// because costs here are real-valued (Manhattan / quadratic metrics,
// arbitrary P).  A head that capacity or timing rejects hands over to its
// component's next entry, and a neighbor refresh re-sorts the list and
// bumps the version.  No entry's key changes once made, so the heap pops
// the same entries in the same order as one holding every entry would.
#pragma once

#include <cstdint>
#include <stop_token>

#include "core/problem.hpp"

namespace qbp {

struct GfmOptions {
  /// Hard cap on passes; the natural stop is a no-improvement pass.
  std::int32_t max_passes = 64;
  /// Minimum pass improvement to continue.
  double min_improvement = 1e-9;
  /// Cooperative cancellation, polled between passes.  The default
  /// token never fires.
  std::stop_token stop;
};

struct GfmResult {
  Assignment assignment;
  double objective = 0.0;
  std::int32_t passes = 0;
  std::int64_t moves_applied = 0;   // accepted moves over all passes (pre-revert)
  std::int64_t moves_kept = 0;      // moves surviving prefix rollback
  double seconds = 0.0;
};

/// `initial` must be complete and feasible (C1 and C2); the result stays
/// feasible move by move.
[[nodiscard]] GfmResult solve_gfm(const PartitionProblem& problem,
                                  const Assignment& initial,
                                  const GfmOptions& options = {});

}  // namespace qbp
