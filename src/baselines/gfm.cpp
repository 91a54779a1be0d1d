#include "baselines/gfm.hpp"

#include <algorithm>
#include <queue>
#include <span>
#include <vector>

#include "core/delta_evaluator.hpp"
#include "core/placement.hpp"
#include "util/prof.hpp"
#include "util/timer.hpp"

#include "util/check.hpp"

namespace qbp {

namespace {

struct Move {
  std::int32_t component;
  PartitionId from;
};

/// One of a component's M - 1 gain entries.
struct Gain {
  double gain;             // positive = objective decreases
  PartitionId target;
  /// The queue's pop order within one component: gain descending, then
  /// target ascending.
  bool operator<(const Gain& other) const noexcept {
    if (gain != other.gain) return gain > other.gain;
    return target < other.target;
  }
};

/// The head of a component's gain list, as queued.
struct HeapEntry {
  double gain;
  std::int32_t component;
  PartitionId target;
  std::int64_t version;    // stamp of the component when pushed
  bool operator<(const HeapEntry& other) const noexcept {
    if (gain != other.gain) return gain < other.gain;
    if (component != other.component) return component > other.component;
    return target > other.target;
  }
};

}  // namespace

GfmResult solve_gfm(const PartitionProblem& problem, const Assignment& initial,
                    const GfmOptions& options) {
  QBP_CHECK(initial.is_complete());
  QBP_CHECK(problem.is_feasible(initial))
      << "GFM requires a feasible starting solution (Section 5)";
  static const prof::PhaseId kQueuePush = prof::register_phase("gfm.queue_push");

  const Timer timer;
  const std::int32_t n = problem.num_components();
  const std::int32_t m = problem.num_partitions();
  const auto& adjacency = problem.netlist().connection_matrix();

  GfmResult result;
  result.assignment = initial;
  Assignment& assignment = result.assignment;
  // Gains come off the evaluator's incident rows; the placement commits
  // every move and rollback through it, so a neighbor's row is patched in
  // O(M) rather than re-scored target by target.
  DeltaEvaluator evaluator(problem);
  Placement placement(problem, assignment);
  placement.attach(evaluator);
  placement.attach_conflicts();
  std::vector<std::int64_t> version(static_cast<std::size_t>(n), 0);
  std::vector<bool> locked(static_cast<std::size_t>(n), false);
  // Component j's M - 1 gain entries, sorted in pop order, at
  // gains[j * (M - 1) ...]; next[j] is the offset of the one queued.
  const auto width = static_cast<std::size_t>(std::max(m - 1, 0));
  std::vector<Gain> gains(static_cast<std::size_t>(n) * width);
  std::vector<std::size_t> next(static_cast<std::size_t>(n), 0);

  for (std::int32_t pass = 0; pass < options.max_passes; ++pass) {
    if (options.stop.stop_requested()) break;
    QBP_PROF_SCOPE("gfm.pass");
    std::fill(locked.begin(), locked.end(), false);
    // Only each component's best untried entry is queued, so the heap pops
    // the same entries in the same order as one holding all M - 1 of them.
    std::priority_queue<HeapEntry> heap;
    std::int64_t pushes = 0;
    const auto push_next = [&](std::int32_t j) {
      const auto index = static_cast<std::size_t>(j);
      if (next[index] == width) return;
      const Gain& head = gains[index * width + next[index]];
      heap.push({head.gain, j, head.target, version[index]});
      ++pushes;
    };
    const auto refresh = [&](std::int32_t j) {
      const std::span<const double> deltas = evaluator.move_deltas(assignment, j);
      Gain* const list = gains.data() + static_cast<std::size_t>(j) * width;
      Gain* out = list;
      for (PartitionId i = 0; i < m; ++i) {
        if (i == assignment[j]) continue;
        *out++ = {-deltas[static_cast<std::size_t>(i)], i};
      }
      std::sort(list, out);
      next[static_cast<std::size_t>(j)] = 0;
      push_next(j);
    };
    for (std::int32_t j = 0; j < n; ++j) refresh(j);

    std::vector<Move> applied;
    double cumulative = 0.0;
    double best_prefix_gain = 0.0;
    std::size_t best_prefix_length = 0;

    while (!heap.empty()) {
      const HeapEntry entry = heap.top();
      heap.pop();
      const std::int32_t j = entry.component;
      if (locked[static_cast<std::size_t>(j)]) continue;
      if (entry.version != version[static_cast<std::size_t>(j)]) continue;
      if (!placement.fits(j, entry.target) ||
          placement.conflicts(j, entry.target) != 0) {
        ++next[static_cast<std::size_t>(j)];
        push_next(j);
        continue;
      }
      // The gain is still exact: any move that changes j's row (a wire
      // neighbor's) bumped j's version, and a locked j is skipped above.
      const double gain = entry.gain;

      const PartitionId from = assignment[j];
      placement.move(j, entry.target);
      locked[static_cast<std::size_t>(j)] = true;
      ++version[static_cast<std::size_t>(j)];
      applied.push_back({j, from});
      ++result.moves_applied;

      cumulative += gain;
      if (cumulative > best_prefix_gain) {
        best_prefix_gain = cumulative;
        best_prefix_length = applied.size();
      }

      // Refresh the gain entries of unlocked neighbors.
      for (const std::int32_t neighbor : adjacency.row_indices(j)) {
        if (locked[static_cast<std::size_t>(neighbor)]) continue;
        ++version[static_cast<std::size_t>(neighbor)];
        refresh(neighbor);
      }
    }
    prof::record_events(kQueuePush, pushes);

    // Roll back the suffix after the best prefix.
    for (std::size_t k = applied.size(); k-- > best_prefix_length;) {
      const Move& move = applied[k];
      placement.move(move.component, move.from);
      ++version[static_cast<std::size_t>(move.component)];
    }
    result.moves_kept += static_cast<std::int64_t>(best_prefix_length);
    result.passes = pass + 1;

    if (best_prefix_gain <= options.min_improvement) break;
  }

  result.objective = problem.objective(result.assignment);
  result.seconds = timer.seconds();
  return result;
}

}  // namespace qbp
