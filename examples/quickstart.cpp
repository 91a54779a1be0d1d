// Quickstart: build a small circuit, state a 2 x 2 partition topology with
// capacities and timing constraints, and solve it with the QBP heuristic.
//
//   ./quickstart [--components N] [--wires W] [--iterations K] [--seed S]
//
// Walks through the whole public API surface in ~100 lines:
//   Netlist -> PartitionTopology -> TimingConstraints -> PartitionProblem
//   -> make_initial -> solve_qbp -> inspect the result.
#include <cstdio>

#include "core/burkard.hpp"
#include "core/initial.hpp"
#include "core/problem.hpp"
#include "netlist/generator.hpp"
#include "timing/constraints.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  std::int64_t components = 60;
  std::int64_t wires = 240;
  std::int64_t iterations = 60;
  std::int64_t seed = 7;

  qbp::CliParser cli("quickstart", "minimal end-to-end QBP partitioning run");
  cli.add_int("components", components, "number of circuit components");
  cli.add_int("wires", wires, "total wire count");
  cli.add_int("iterations", iterations, "QBP iterations (STEP 8 budget)");
  cli.add_int("seed", seed, "random seed");
  if (const auto exit_code = cli.run(argc, argv)) return *exit_code;

  // 1. A synthetic circuit: components with sizes spanning ~2 orders of
  //    magnitude, locality-biased wires, and a hidden feasible placement.
  qbp::RandomNetlistSpec spec;
  spec.name = "quickstart";
  spec.num_components = static_cast<std::int32_t>(components);
  spec.total_wires = wires;
  spec.num_slots = 4;
  spec.grid_width = 2;
  spec.seed = static_cast<std::uint64_t>(seed);
  qbp::GeneratedNetlist generated = qbp::generate_netlist(spec);

  // 2. Partition topology: 2 x 2 grid, Manhattan wire cost and delay.
  qbp::PartitionTopology topology =
      qbp::PartitionTopology::grid(2, 2, qbp::CostKind::kManhattan);
  {
    std::vector<double> usage(4, 0.0);
    for (std::int32_t j = 0; j < spec.num_components; ++j) {
      usage[generated.hidden_slot[j]] += generated.netlist.component_size(j);
    }
    for (qbp::PartitionId i = 0; i < 4; ++i) {
      topology.set_capacity(i, usage[i] * 1.25);
    }
  }

  // 3. Timing constraints on the most critical quarter of the connections.
  qbp::TimingSpec timing_spec;
  timing_spec.target_count = generated.netlist.num_connected_pairs() / 4;
  timing_spec.seed = spec.seed;
  qbp::TimingConstraints timing = qbp::generate_timing_constraints(
      generated.netlist, generated.hidden_slot, topology, timing_spec);

  // 4. The problem PP(alpha=1, beta=1) with no linear term.
  qbp::PartitionProblem problem(std::move(generated.netlist),
                                std::move(topology), std::move(timing));
  if (const auto message = problem.validate(); !message.empty()) {
    std::fprintf(stderr, "invalid problem: %s\n", message.c_str());
    return 1;
  }

  // 5. Start from the paper's initializer (QBP with B = 0) and solve.
  const qbp::InitialResult initial = qbp::make_initial(
      problem, qbp::InitialStrategy::kQbpZeroWireCost, spec.seed);
  std::printf("circuit: %d components, %lld wires, %lld timing constraints\n",
              problem.num_components(),
              static_cast<long long>(problem.netlist().total_wires()),
              static_cast<long long>(problem.timing().count()));
  std::printf("initial: wirelength %.0f, feasible: %s\n",
              problem.wirelength(initial.assignment),
              initial.feasible ? "yes" : "no");

  qbp::BurkardOptions options;
  options.iterations = static_cast<std::int32_t>(iterations);
  const qbp::BurkardResult result =
      qbp::solve_qbp(problem, initial.assignment, options);

  if (result.found_feasible) {
    const double final_cost = problem.wirelength(result.best_feasible);
    std::printf("QBP (%d iterations, %.2f s): wirelength %.0f (%.1f%% better)\n",
                result.iterations_run, result.seconds, final_cost,
                (problem.wirelength(initial.assignment) - final_cost) /
                    problem.wirelength(initial.assignment) * 100.0);
    std::printf("capacity ok: %s, timing ok: %s\n",
                problem.satisfies_capacity(result.best_feasible) ? "yes" : "no",
                problem.satisfies_timing(result.best_feasible) ? "yes" : "no");
  } else {
    std::printf("QBP found no fully feasible solution in %d iterations "
                "(best penalized value %.1f)\n",
                result.iterations_run, result.best_penalized);
    return 2;
  }
  return 0;
}
