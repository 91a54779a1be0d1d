// The Quadratic Assignment Problem special case (paper Section 2.2.3):
// M = N, all sizes and capacities equal, no timing constraints -- the
// assignment must be a permutation.  Burkard's heuristic was originally
// designed for exactly this, so the demo builds a small QAP through the
// reduction (oracle/special_cases.hpp), solves it with the generalized
// solver and checks it against brute force.
//
//   ./qap_demo [--size 7] [--seed 11] [--iterations 200]
#include <cstdio>

#include "core/brute_force.hpp"
#include "core/burkard.hpp"
#include "core/initial.hpp"
#include "oracle/special_cases.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  std::int64_t size = 7;
  std::int64_t seed = 11;
  std::int64_t iterations = 200;

  qbp::CliParser cli("qap_demo",
                     "QAP as the M = N, unit-size special case of PP(0,1)");
  cli.add_int("size", size, "facilities = locations (<= 8 for brute force)");
  cli.add_int("seed", seed, "random seed");
  cli.add_int("iterations", iterations, "QBP iterations");
  if (const auto exit_code = cli.run(argc, argv)) return *exit_code;
  const auto n = static_cast<std::int32_t>(size);
  if (n < 2 || n > 8) {
    std::fprintf(stderr, "--size must be in [2, 8] (brute force oracle)\n");
    return 1;
  }

  // Random flows between facilities (a < b only: the reduction adds
  // f + f^T) and a ring-distance matrix between locations.  The reduction's
  // unit sizes and capacities make assignments permutations.
  qbp::Rng rng(static_cast<std::uint64_t>(seed));
  qbp::Matrix<std::int32_t> flow(n, n, 0);
  for (std::int32_t a = 0; a < n; ++a) {
    for (std::int32_t b = a + 1; b < n; ++b) {
      if (rng.next_bool(0.6)) {
        flow(a, b) = static_cast<std::int32_t>(rng.next_int(1, 9));
      }
    }
  }

  qbp::Matrix<double> distance(n, n, 0.0);
  for (std::int32_t i1 = 0; i1 < n; ++i1) {
    for (std::int32_t i2 = 0; i2 < n; ++i2) {
      const std::int32_t ring = std::abs(i1 - i2);
      distance(i1, i2) = std::min(ring, n - ring);
    }
  }
  const qbp::PartitionProblem problem = qbp::make_qap_problem(flow, distance);

  const qbp::BruteForceResult exact = qbp::brute_force_constrained(problem);
  std::printf("QAP n=%d: %lld feasible assignments (= n! permutations), "
              "optimum %.0f\n",
              n, static_cast<long long>(exact.feasible_count), exact.value);

  const qbp::InitialResult initial =
      qbp::make_initial(problem, qbp::InitialStrategy::kGreedyBalanced,
                        static_cast<std::uint64_t>(seed));
  qbp::BurkardOptions options;
  options.iterations = static_cast<std::int32_t>(iterations);
  options.gap_step4.swap_improvement = true;  // permutation moves need swaps
  const qbp::BurkardResult heuristic =
      qbp::solve_qbp(problem, initial.assignment, options);

  std::printf("Burkard heuristic: %.0f (%s optimal), %.3f s\n",
              heuristic.best_feasible_objective,
              heuristic.best_feasible_objective == exact.value ? "matches"
                                                               : "above",
              heuristic.seconds);
  std::printf("permutation found:");
  for (std::int32_t j = 0; j < n; ++j) {
    std::printf(" %d->%d", j, heuristic.best_feasible[j]);
  }
  std::printf("\n");
  return 0;
}
