#include "oracle/embedding.hpp"

namespace qbp {

EmbeddingAnalysis analyze_embedding(const PartitionProblem& problem,
                                    double penalty) {
  EmbeddingAnalysis analysis;

  // Sum |q| over the un-embedded Q.  With non-negative P and B this is
  //   beta * (sum of A entries, ordered) * max-block... exactly:
  //   sum_{j1 j2} sum_{i1 i2} beta * a_{j1 j2} * b_{i1 i2}
  //   = beta * sum(A) * sum(B), plus the diagonal alpha * sum(P).
  double sum_b = 0.0;
  const auto& topology = problem.topology();
  for (std::int32_t i1 = 0; i1 < topology.num_partitions(); ++i1) {
    for (std::int32_t i2 = 0; i2 < topology.num_partitions(); ++i2) {
      const double b = topology.wire_cost(i1, i2);
      sum_b += b < 0.0 ? -b : b;
    }
  }
  const double sum_a =
      static_cast<double>(problem.netlist().connection_matrix().sum());
  double sum_p = 0.0;
  const auto& p = problem.linear_cost_matrix();
  if (!p.empty()) {
    for (std::int32_t i = 0; i < p.rows(); ++i) {
      for (std::int32_t j = 0; j < p.cols(); ++j) {
        sum_p += p(i, j) < 0.0 ? -p(i, j) : p(i, j);
      }
    }
  }

  analysis.abs_sum = problem.beta() * sum_a * sum_b + problem.alpha() * sum_p;
  analysis.theorem1_threshold = 2.0 * analysis.abs_sum;
  analysis.penalty = penalty;
  analysis.provably_exact = penalty > analysis.theorem1_threshold;
  return analysis;
}

double theorem1_penalty(const PartitionProblem& problem) {
  return analyze_embedding(problem, 0.0).theorem1_threshold + 1.0;
}

BruteForceResult brute_force_penalized(const PartitionProblem& problem,
                                       double penalty) {
  BruteForceResult result;
  enumerate_assignments(
      problem.num_components(), problem.num_partitions(),
      [&](const Assignment& assignment) {
        if (!problem.satisfies_capacity(assignment)) return;
        ++result.feasible_count;
        const double value = problem.penalized_value(assignment, penalty);
        if (!result.found || value < result.value) {
          result.found = true;
          result.value = value;
          result.best = assignment;
        }
      });
  return result;
}

}  // namespace qbp
