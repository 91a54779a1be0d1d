// Timing constraints: the paper's sparse Dc matrix and the C2 check
//
//   D(A(j1), A(j2)) <= Dc(j1, j2)   for all j1, j2
//
// Dc entries are symmetric maximum routing delays between component pairs;
// an absent entry means "no constraint" (Dc = infinity).  Section 5:
// "Strictly speaking, the total number of Timing Constraints should be N^2
// ... We discarded these [vacuous] constraints and only list the total
// number of critical constraints" -- this container stores exactly that
// critical subset.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "partition/assignment.hpp"
#include "partition/topology.hpp"
#include "sparse/csr.hpp"
#include "util/check.hpp"

namespace qbp {

class TimingConstraints {
 public:
  static constexpr double kUnconstrained = std::numeric_limits<double>::infinity();

  TimingConstraints() = default;
  explicit TimingConstraints(std::int32_t num_components)
      : num_components_(num_components) {}

  [[nodiscard]] std::int32_t num_components() const noexcept {
    return num_components_;
  }

  /// Add (or tighten) a symmetric constraint between distinct components.
  /// Multiple adds for a pair keep the minimum (tightest) bound at
  /// finalize().
  void add(ComponentId j1, ComponentId j2, double max_delay);

  /// Sort the pairs added so far, keep each pair's tightest bound and fill
  /// Dc; idempotent.  Every reader below fails a contract check when a
  /// pair was added since the last finalize(), so a finalized set is only
  /// ever read, never written, by its const members.  PartitionProblem's
  /// constructor finalizes its constraints.
  void finalize();

  /// Number of constrained unordered pairs -- the paper's "# of Timing
  /// Constraints" column in Table I.
  [[nodiscard]] std::int64_t count() const {
    return static_cast<std::int64_t>(matrix().nonzeros() / 2);
  }

  [[nodiscard]] bool empty() const { return count() == 0; }

  /// Max routing delay allowed between j1 and j2 (kUnconstrained if no
  /// constraint was added for the pair).
  [[nodiscard]] double max_delay(ComponentId j1, ComponentId j2) const {
    return matrix().value_or(j1, j2, kUnconstrained);
  }

  /// The symmetric sparse Dc matrix (both directions stored).
  [[nodiscard]] const Csr<double>& matrix() const {
    QBP_CHECK(finalized_)
        << "timing constraints read before finalize() or after an add";
    return matrix_;
  }

  /// Components constrained against `j`, with their bounds.
  [[nodiscard]] std::span<const std::int32_t> partners(ComponentId j) const {
    return matrix().row_indices(j);
  }
  [[nodiscard]] std::span<const double> bounds(ComponentId j) const {
    return matrix().row_values(j);
  }

  /// Does a constraint of `bound` break with its ends in partitions i1 and
  /// i2?  D is checked in both directions; every C2 check here uses this.
  [[nodiscard]] static bool breaks(const PartitionTopology& topology,
                                   PartitionId i1, PartitionId i2,
                                   double bound) noexcept {
    return topology.delay(i1, i2) > bound || topology.delay(i2, i1) > bound;
  }

  /// C2 check for a complete assignment; counts violated unordered pairs.
  [[nodiscard]] std::int64_t violations(const Assignment& assignment,
                                        const PartitionTopology& topology) const;

  [[nodiscard]] bool is_feasible(const Assignment& assignment,
                                 const PartitionTopology& topology) const {
    return violations(assignment, topology) == 0;
  }

  /// Would every constraint involving `component` hold if it sat in
  /// `target` (all other components as in `assignment`)?  O(degree in Dc).
  /// Constraints against unassigned partners are ignored.
  [[nodiscard]] bool component_feasible_at(const Assignment& assignment,
                                           const PartitionTopology& topology,
                                           ComponentId component,
                                           PartitionId target) const;

  /// As above but with one partner's partition overridden -- used when
  /// evaluating a pairwise swap.
  [[nodiscard]] bool component_feasible_at(const Assignment& assignment,
                                           const PartitionTopology& topology,
                                           ComponentId component,
                                           PartitionId target,
                                           ComponentId override_component,
                                           PartitionId override_partition) const;

 private:
  std::int32_t num_components_ = 0;
  // The (j1 < j2) constraints as added; merged by finalize().
  std::vector<Triplet<double>> pairs_;
  Csr<double> matrix_;
  bool finalized_ = false;
};

/// Configuration for synthesizing a critical-constraint set.  No cycle time
/// is involved: pairs are ranked by the longest path through them, and
/// each bound is the reference placement's delay plus a random margin.
struct TimingSpec {
  /// Exact number of constrained unordered pairs to produce.
  std::int64_t target_count = 0;
  /// Intrinsic component delays, uniform in [delay_min, delay_max], set
  /// the path lengths that rank the pairs.
  double delay_min = 1.0;
  double delay_max = 10.0;
  /// Routing-delay margin above the reference placement's delay: 1 with
  /// probability margin_p1, 2 with margin_p2, otherwise 3; smaller margins
  /// = tighter problem.  Bounds are floored at 1 (a 0 bound would force
  /// co-location).
  double margin_p1 = 0.35;
  double margin_p2 = 0.40;
  std::uint64_t seed = 1;
};

/// Synthesize `spec.target_count` critical constraints for `netlist`.
///
/// Pairs are ranked by timing criticality (longest path through the
/// connection, from a TimingGraph built with the given seed); the most
/// critical connected pairs are constrained first, then 2-hop pairs if the
/// target exceeds the number of connected pairs.  Every constraint is set to
/// D(reference(j1), reference(j2)) + margin, so `reference` (the generator's
/// hidden placement) is timing-feasible by construction and the instance is
/// guaranteed to be satisfiable.
[[nodiscard]] TimingConstraints generate_timing_constraints(
    const Netlist& netlist, std::span<const std::int32_t> reference,
    const PartitionTopology& topology, const TimingSpec& spec);

}  // namespace qbp
