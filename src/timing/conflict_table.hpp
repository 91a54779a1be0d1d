// Per-(component, partition) timing-conflict counts for a complete
// assignment: the C2 counterpart of DeltaEvaluator's incident table.
//
//   conflicts(j, i) = #{ partners x of j : breaks(i, A(x), Dc(j, x)) }
//
// i.e. how many of j's timing constraints would break if j sat in i, every
// partner where the assignment has it.  j may move to i alone without
// breaking C2 iff the entry is 0, and the entry at j's own partition is its
// violated-constraint count.  Local searches read it through core/placement:
// the min-conflicts repair walk picks its targets from these rows, and GFM,
// GKL, SA and the ECO polish gate their moves and swaps on them.
//
// A move of c from s to t changes only the rows of c's partners, each by
// one branch-free O(M) pass over two contiguous rows of the symmetric reach
// matrix max(D, D^T), rows t and s.  The table never looks at the
// assignment after it is built: the placement reports every move.
#pragma once

#include <cstdint>

#include "partition/assignment.hpp"
#include "partition/topology.hpp"
#include "sparse/dense.hpp"
#include "timing/constraints.hpp"

namespace qbp {

class ConflictTable {
 public:
  /// Counts for `assignment`, which must be complete.  O(nnz(Dc) * M).
  /// `timing` and `topology` must outlive the table.
  ConflictTable(const TimingConstraints& timing,
                const PartitionTopology& topology, const Assignment& assignment);

  /// How many of j's timing partners break with j at partition i.
  [[nodiscard]] std::int32_t operator()(std::int32_t j, PartitionId i) const {
    return count_(j, i);
  }

  /// Component `c` moved from partition `from` to `to`: patch the row of
  /// every timing partner of c.  O(degree(c) * M).
  void move(std::int32_t c, PartitionId from, PartitionId to);

  /// Recounts the rows of `mover`'s partners from scratch against
  /// `assignment` and compares them with the patched rows: the Debug-only
  /// audit (QBP_DCHECK) behind the callers' moves.
  [[nodiscard]] bool partner_rows_match(const Assignment& assignment,
                                        std::int32_t mover) const;

 private:
  const TimingConstraints* timing_;
  const PartitionTopology* topology_;
  /// reach(a, i) = fmax(D(a, i), D(i, a)), symmetric: a constraint of
  /// bound b breaks with its ends in a and i iff reach(a, i) > b.
  Matrix<double> reach_;
  Matrix<std::int32_t> count_;
};

}  // namespace qbp
