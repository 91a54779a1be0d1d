// The worked example of Section 3.3: three components a, b, c assigned into
// four partitions laid out as a 2 x 2 array.
//
//   A = [0 5 0; 5 0 2; 0 2 0]        (5 wires a-b, 2 wires b-c)
//   Dc = [0 1 inf; 1 0 1; inf 1 0]   (a-b and b-c must be adjacent)
//   B = D = 2 x 2 grid Manhattan distances
//
// Prints the constraint-embedded cost matrix Q-hat in the paper's layout
// (penalty entries are 50) and solves the instance with both brute force
// and the Burkard heuristic.
#include <cstdio>

#include "core/brute_force.hpp"
#include "core/burkard.hpp"
#include "oracle/embedding.hpp"
#include "oracle/qhat.hpp"

namespace {

qbp::PartitionProblem make_paper_problem() {
  qbp::Netlist netlist("section-3.3");
  const auto a = netlist.add_component("a", 1.0);
  const auto b = netlist.add_component("b", 1.0);
  const auto c = netlist.add_component("c", 1.0);
  netlist.add_wires(a, b, 5);
  netlist.add_wires(b, c, 2);

  // 2 x 2 grid: partitions 1..4 of the paper are ids 0..3 here.  Unit
  // capacities force one component per partition, so the optimizer has to
  // spread them subject to the adjacency (timing) constraints.
  qbp::PartitionTopology topology =
      qbp::PartitionTopology::grid(2, 2, qbp::CostKind::kManhattan, 1.0);

  qbp::TimingConstraints timing(3);
  timing.add(a, b, 1.0);
  timing.add(b, c, 1.0);
  // Dc(a, c) = infinity: simply no constraint.

  return qbp::PartitionProblem(std::move(netlist), std::move(topology),
                               std::move(timing));
}

}  // namespace

int main() {
  const qbp::PartitionProblem problem = make_paper_problem();

  // Print Q-hat in the paper's layout: rows/columns ordered (a,1)..(a,4),
  // (b,1)..(b,4), (c,1)..(c,4) -- which is exactly flat order r = i + j*M.
  const auto size = static_cast<std::int32_t>(problem.flat_size());
  std::printf("Q-hat (penalty entries = 50, '-' = zero):\n      ");
  for (std::int32_t r = 0; r < size; ++r) {
    std::printf("%3c%d ", 'a' + problem.component_of(r),
                problem.partition_of(r) + 1);
  }
  std::printf("\n");
  for (std::int32_t r1 = 0; r1 < size; ++r1) {
    std::printf("  %c%d ", 'a' + problem.component_of(r1),
                problem.partition_of(r1) + 1);
    for (std::int32_t r2 = 0; r2 < size; ++r2) {
      const double value = qbp::qhat_entry(problem, 50.0, r1, r2);
      if (value == 0.0) {
        std::printf("   - ");
      } else {
        std::printf("%4.0f ", value);
      }
    }
    std::printf("\n");
  }

  // Exact optimum of the constrained problem vs. the embedded problem.
  const qbp::BruteForceResult constrained = qbp::brute_force_constrained(problem);
  const qbp::BruteForceResult penalized = qbp::brute_force_penalized(problem, 50.0);
  std::printf("\nbrute force, constrained:   objective %.0f  (a->%d, b->%d, c->%d)\n",
              constrained.value, constrained.best[0] + 1, constrained.best[1] + 1,
              constrained.best[2] + 1);
  std::printf("brute force, Q-hat embedded: value    %.0f  (a->%d, b->%d, c->%d)\n",
              penalized.value, penalized.best[0] + 1, penalized.best[1] + 1,
              penalized.best[2] + 1);

  // The Burkard heuristic lands on the same optimum.
  qbp::Assignment start(3, 4);
  for (std::int32_t j = 0; j < 3; ++j) start.set(j, 0);
  qbp::BurkardOptions options;
  options.iterations = 30;
  const qbp::BurkardResult heuristic = qbp::solve_qbp(problem, start, options);
  std::printf("Burkard heuristic:           objective %.0f  (a->%d, b->%d, c->%d), "
              "feasible: %s\n",
              heuristic.best_feasible_objective, heuristic.best_feasible[0] + 1,
              heuristic.best_feasible[1] + 1, heuristic.best_feasible[2] + 1,
              heuristic.found_feasible ? "yes" : "no");

  const bool match = heuristic.found_feasible &&
                     heuristic.best_feasible_objective == constrained.value &&
                     penalized.value == constrained.value;
  std::printf("\nall three agree: %s\n", match ? "yes" : "NO (unexpected)");
  return match ? 0 : 1;
}
