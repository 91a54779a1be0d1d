#include "oracle/gap_bound.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace qbp {

double gap_lower_bound(const GapProblem& problem, std::int32_t iterations) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::int32_t m = problem.num_agents();
  const std::int32_t n = problem.num_items();
  std::vector<double> lambda(static_cast<std::size_t>(m), 0.0);
  std::vector<double> usage(static_cast<std::size_t>(m), 0.0);
  double best_bound = -kInf;

  // Step size normalization: scale by the cost range so the schedule is
  // instance-independent.
  double cost_span = 0.0;
  for (std::int32_t i = 0; i < m; ++i) {
    for (std::int32_t j = 0; j < n; ++j) {
      cost_span = std::max(cost_span, std::abs(problem.cost_at(i, j)));
    }
  }
  if (cost_span == 0.0) cost_span = 1.0;

  for (std::int32_t k = 0; k < iterations; ++k) {
    // Evaluate L(lambda): each item independently picks its cheapest agent
    // under the penalized costs.
    std::fill(usage.begin(), usage.end(), 0.0);
    double value = 0.0;
    for (std::int32_t j = 0; j < n; ++j) {
      std::int32_t best_agent = 0;
      double best_cost = kInf;
      for (std::int32_t i = 0; i < m; ++i) {
        const double c = problem.cost_at(i, j) +
                         lambda[static_cast<std::size_t>(i)] *
                             problem.sizes[static_cast<std::size_t>(j)];
        if (c < best_cost) {
          best_cost = c;
          best_agent = i;
        }
      }
      value += best_cost;
      usage[static_cast<std::size_t>(best_agent)] +=
          problem.sizes[static_cast<std::size_t>(j)];
    }
    for (std::int32_t i = 0; i < m; ++i) {
      value -= lambda[static_cast<std::size_t>(i)] *
               problem.capacities[static_cast<std::size_t>(i)];
    }
    best_bound = std::max(best_bound, value);

    // Projected subgradient step on g_i = usage_i - capacity_i.
    const double step = 0.1 * cost_span / (1.0 + static_cast<double>(k));
    for (std::int32_t i = 0; i < m; ++i) {
      const double gradient = usage[static_cast<std::size_t>(i)] -
                              problem.capacities[static_cast<std::size_t>(i)];
      lambda[static_cast<std::size_t>(i)] =
          std::max(0.0, lambda[static_cast<std::size_t>(i)] + step * gradient);
    }
  }
  return best_bound;
}

}  // namespace qbp
