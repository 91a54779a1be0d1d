#include "core/repair.hpp"

#include <bit>
#include <vector>

#include "util/check.hpp"
#include "util/prof.hpp"
#include "util/rng.hpp"

namespace qbp {

namespace {

/// WalkSAT-style noise: probability of moving a conflicted component to a
/// random capacity-feasible partition instead of the min-conflict one;
/// breaks deadlocks where every single move looks non-improving.
constexpr double kNoise = 0.08;

/// 0/1 membership over component ids with O(log n) update and O(log n)
/// select-kth (Fenwick tree).  Selecting the k-th smallest member id is
/// index-compatible with scanning components in ascending order, so the
/// min-conflicts loop below draws the same component the old full-rescan
/// implementation drew -- bit-identical walks, O(n) less work per move.
class ConflictedSet {
 public:
  explicit ConflictedSet(std::int32_t n)
      : member_(static_cast<std::size_t>(n), 0),
        tree_(static_cast<std::size_t>(n) + 1, 0) {}

  void set(std::int32_t id, bool member) {
    const auto slot = static_cast<std::size_t>(id);
    if (static_cast<bool>(member_[slot]) == member) return;
    member_[slot] = member ? 1 : 0;
    const std::int32_t delta = member ? 1 : -1;
    for (std::size_t i = slot + 1; i < tree_.size(); i += i & (~i + 1)) {
      tree_[i] += delta;
    }
    count_ += delta;
  }

  [[nodiscard]] std::int64_t count() const noexcept { return count_; }

  /// Id of the k-th smallest member (0-based; requires k < count()).
  [[nodiscard]] std::int32_t select(std::int64_t k) const {
    std::size_t pos = 0;
    std::int64_t remaining = k + 1;
    for (std::size_t mask = std::bit_floor(tree_.size() - 1); mask > 0;
         mask >>= 1) {
      const std::size_t next = pos + mask;
      if (next < tree_.size() && tree_[next] < remaining) {
        pos = next;
        remaining -= tree_[next];
      }
    }
    return static_cast<std::int32_t>(pos);
  }

 private:
  std::vector<char> member_;
  std::vector<std::int32_t> tree_;
  std::int64_t count_ = 0;
};

}  // namespace

bool legalize_capacity(Placement& placement, std::int64_t& moves) {
  const PartitionProblem& problem = placement.problem();
  const Assignment& assignment = placement.assignment();
  const CapacityLedger& ledger = placement.ledger();
  const std::vector<double>& sizes = problem.netlist().sizes();
  const std::int32_t n = problem.num_components();
  const std::int32_t m = problem.num_partitions();
  const std::int64_t budget = 4 * static_cast<std::int64_t>(n) + 16;
  std::int64_t used = 0;
  for (PartitionId i = 0; i < m; ++i) {
    while (ledger.slack(i) < -CapacityLedger::kTolerance) {
      if (++used > budget) return false;
      std::int32_t mover = -1;
      for (std::int32_t j = 0; j < n; ++j) {
        if (assignment[j] != i) continue;
        if (mover < 0 || sizes[static_cast<std::size_t>(j)] >
                             sizes[static_cast<std::size_t>(mover)]) {
          mover = j;
        }
      }
      if (mover < 0) return false;  // empty yet overfull: capacities < 0
      PartitionId target = -1;
      for (PartitionId t = 0; t < m; ++t) {
        if (t == i || !placement.fits(mover, t)) continue;
        if (target < 0 || ledger.slack(t) > ledger.slack(target)) target = t;
      }
      if (target < 0) return false;
      placement.move(mover, target);
      ++moves;
    }
  }
  return true;
}

RepairResult repair_timing(Placement& placement, const RepairOptions& options) {
  QBP_PROF_SCOPE("repair.walk");
  const PartitionProblem& problem = placement.problem();
  const Assignment& assignment = placement.assignment();
  QBP_CHECK(assignment.is_complete()) << "repair requires a complete assignment";
  const std::int32_t n = problem.num_components();
  const std::int32_t m = problem.num_partitions();

  RepairResult result;
  Rng rng(options.seed);

  const std::int64_t budget =
      options.max_moves >= 0 ? options.max_moves
                             : 200 * static_cast<std::int64_t>(n);

  // conflicts(j, i): how many of j's timing partners break with j at i.
  // Built once in O(nnz(Dc) * M); a move patches its partners' rows in
  // O(degree * M), and only those rows -- and so only the movers' and
  // their partners' conflicted flags -- can change.
  placement.attach_conflicts();
  ConflictedSet conflicted(n);
  for (std::int32_t j = 0; j < n; ++j) {
    conflicted.set(j, placement.conflicts(j, assignment[j]) > 0);
  }

  std::vector<PartitionId> best_targets;
  while (result.moves < budget) {
    if (conflicted.count() == 0) break;

    const std::int32_t j =
        conflicted.select(static_cast<std::int64_t>(rng.next_below(
            static_cast<std::uint64_t>(conflicted.count()))));
    const PartitionId source = assignment[j];

    // Best capacity-feasible target by conflict count (<= current; sideways
    // allowed so the walk can escape plateaus), random tie-break.  With
    // probability kNoise take any capacity-feasible target instead.
    best_targets.clear();
    if (rng.next_bool(kNoise)) {
      for (PartitionId i = 0; i < m; ++i) {
        if (i != source && placement.fits(j, i)) best_targets.push_back(i);
      }
    } else {
      std::int32_t best_conflicts = placement.conflicts(j, source);
      for (PartitionId i = 0; i < m; ++i) {
        if (i == source || !placement.fits(j, i)) continue;
        const std::int32_t at_i = placement.conflicts(j, i);
        if (at_i < best_conflicts) {
          best_conflicts = at_i;
          best_targets.assign(1, i);
        } else if (at_i == best_conflicts) {
          best_targets.push_back(i);
        }
      }
    }
    if (best_targets.empty()) {
      ++result.moves;  // stuck on this component this round; try another
      continue;
    }
    const PartitionId target = best_targets[rng.pick_index(best_targets)];
    placement.move(j, target);
    ++result.moves;
    conflicted.set(j, placement.conflicts(j, target) > 0);
    for (const std::int32_t partner : problem.timing().partners(j)) {
      conflicted.set(partner,
                     placement.conflicts(partner, assignment[partner]) > 0);
    }
  }

  // C2 holds iff no component has a conflicting partner where it sits; C1
  // is the ledger's (every move kept it).
  result.feasible =
      conflicted.count() == 0 && placement.ledger().violations() == 0;
  return result;
}

}  // namespace qbp
