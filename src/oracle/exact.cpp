#include "oracle/exact.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "util/check.hpp"

namespace qbp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

class Search {
 public:
  Search(const PartitionProblem& problem, const ExactOptions& options)
      : problem_(problem),
        options_(options),
        n_(problem.num_components()),
        m_(problem.num_partitions()),
        sizes_(problem.netlist().sizes()),
        assignment_(n_, m_),
        slack_(problem.topology().capacities()) {
    // Branch order: most connected (weighted degree), biggest first --
    // decisions with the most propagation happen at the top of the tree.
    order_.resize(static_cast<std::size_t>(n_));
    std::iota(order_.begin(), order_.end(), 0);
    const auto& adjacency = problem.netlist().connection_matrix();
    std::vector<double> score(static_cast<std::size_t>(n_), 0.0);
    for (std::int32_t j = 0; j < n_; ++j) {
      for (const auto w : adjacency.row_values(j)) {
        score[static_cast<std::size_t>(j)] += w;
      }
      score[static_cast<std::size_t>(j)] += sizes_[static_cast<std::size_t>(j)];
    }
    std::stable_sort(order_.begin(), order_.end(),
                     [&](std::int32_t a, std::int32_t b) {
                       return score[static_cast<std::size_t>(a)] >
                              score[static_cast<std::size_t>(b)];
                     });
  }

  ExactResult run() {
    if (options_.warm_start != nullptr &&
        problem_.is_feasible(*options_.warm_start)) {
      result_.best = *options_.warm_start;
      result_.objective = problem_.objective(*options_.warm_start);
      result_.found = true;
    }
    result_.proven_optimal = dfs(0, 0.0);
    return std::move(result_);
  }

 private:
  /// Placement cost of `component` at `partition` against placed partners.
  double placement_cost(std::int32_t component, PartitionId partition) const {
    double cost = problem_.alpha() * problem_.linear_cost(partition, component);
    const auto& adjacency = problem_.netlist().connection_matrix();
    const auto neighbors = adjacency.row_indices(component);
    const auto wires = adjacency.row_values(component);
    const auto& topology = problem_.topology();
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      const PartitionId other = assignment_[neighbors[k]];
      if (other == Assignment::kUnassigned) continue;
      cost += problem_.beta() * wires[k] *
              (topology.wire_cost(partition, other) +
               topology.wire_cost(other, partition));
    }
    return cost;
  }

  bool timing_ok(std::int32_t component, PartitionId partition) const {
    return problem_.timing().component_feasible_at(assignment_,
                                                   problem_.topology(),
                                                   component, partition);
  }

  /// Admissible completion bound for components order_[depth..): each can
  /// pay no less than its cheapest feasible-ignoring-capacity placement.
  double completion_bound(std::size_t depth) const {
    double bound = 0.0;
    for (std::size_t at = depth; at < order_.size(); ++at) {
      const std::int32_t j = order_[at];
      double cheapest = kInf;
      for (PartitionId i = 0; i < m_; ++i) {
        if (!timing_ok(j, i)) continue;
        cheapest = std::min(cheapest, placement_cost(j, i));
      }
      if (cheapest == kInf) return kInf;  // dead end regardless of capacity
      bound += cheapest;
    }
    return bound;
  }

  /// Returns false when the node budget ran out (result not proven).
  bool dfs(std::size_t depth, double cost_so_far) {
    if (++result_.nodes > options_.max_nodes) return false;
    if (depth == order_.size()) {
      if (!result_.found || cost_so_far < result_.objective) {
        result_.found = true;
        result_.objective = cost_so_far;
        result_.best = assignment_;
      }
      return true;
    }
    if (result_.found &&
        cost_so_far + completion_bound(depth) >= result_.objective) {
      return true;  // pruned, still exact
    }

    const std::int32_t j = order_[depth];
    // Try partitions cheapest-first so the incumbent tightens early.
    struct Option {
      PartitionId partition;
      double cost;
    };
    std::vector<Option> candidates;
    candidates.reserve(static_cast<std::size_t>(m_));
    for (PartitionId i = 0; i < m_; ++i) {
      if (slack_[static_cast<std::size_t>(i)] +
              CapacityLedger::kTolerance <
          sizes_[static_cast<std::size_t>(j)]) {
        continue;
      }
      if (!timing_ok(j, i)) continue;
      candidates.push_back({i, placement_cost(j, i)});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Option& a, const Option& b) {
                return a.cost != b.cost ? a.cost < b.cost
                                        : a.partition < b.partition;
              });

    bool proven = true;
    for (const Option& option : candidates) {
      if (result_.found &&
          cost_so_far + option.cost >= result_.objective) {
        // Candidates are cost-sorted but the completion bound can still
        // shrink for later ones; only the immediate-cost test is monotone,
        // so keep scanning (cheap) rather than break.
        continue;
      }
      assignment_.set(j, option.partition);
      slack_[static_cast<std::size_t>(option.partition)] -=
          sizes_[static_cast<std::size_t>(j)];
      proven = dfs(depth + 1, cost_so_far + option.cost) && proven;
      slack_[static_cast<std::size_t>(option.partition)] +=
          sizes_[static_cast<std::size_t>(j)];
      assignment_.set(j, Assignment::kUnassigned);
      if (!proven && result_.nodes > options_.max_nodes) break;
    }
    return proven;
  }

  const PartitionProblem& problem_;
  const ExactOptions& options_;
  const std::int32_t n_;
  const std::int32_t m_;
  const std::vector<double> sizes_;
  std::vector<std::int32_t> order_;
  Assignment assignment_;
  std::vector<double> slack_;
  ExactResult result_;
};

}  // namespace

ExactResult solve_exact(const PartitionProblem& problem,
                        const ExactOptions& options) {
  QBP_CHECK(problem.validate().empty()) << problem.validate();
  Search search(problem, options);
  return search.run();
}

}  // namespace qbp
