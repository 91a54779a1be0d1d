// MCM/TCM assignment repair (paper Section 2.2.1) -- the PP(1, 0) special
// case.
//
// Scenario: an experienced designer hand-assigned functional blocks to the
// 16 chip slots of a thermal-conduction module.  The manual assignment
// violates capacity and timing constraints; we want a *legal* assignment
// that deviates minimally from it, where moving component j from slot i0 to
// slot i costs  s_j * manhattan(i, i0)  (bigger blocks are worse to move).
//
//   ./mcm_repair [--circuit cktb] [--shuffle 0.15] [--seed 3]
#include <cstdio>

#include "bench_support/circuits.hpp"
#include "core/burkard.hpp"
#include "partition/deviation.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  std::string circuit = "cktb";
  double shuffle = 0.15;
  std::int64_t seed = 3;
  std::int64_t iterations = 80;

  qbp::CliParser cli("mcm_repair",
                     "repair an infeasible manual TCM assignment with minimum "
                     "deviation (PP(1,0))");
  cli.add_string("circuit", circuit, "preset circuit (ckta..cktg)");
  cli.add_double("shuffle", shuffle,
                 "fraction of components the 'designer' misplaces");
  cli.add_int("seed", seed, "random seed");
  cli.add_int("iterations", iterations, "QBP iterations");
  if (const auto exit_code = cli.run(argc, argv)) return *exit_code;

  const qbp::CircuitPreset* preset = qbp::find_preset(circuit);
  if (preset == nullptr) {
    std::fprintf(stderr, "unknown circuit '%s'\n", circuit.c_str());
    return 1;
  }
  const qbp::CircuitInstance instance = qbp::make_circuit(*preset);
  const qbp::PartitionProblem& base = instance.problem;

  // The "manual" assignment: the feasible reference placement with a
  // fraction of components dropped into random slots -- realistic
  // violations of both capacity and timing.
  qbp::Rng rng(static_cast<std::uint64_t>(seed));
  qbp::Assignment manual = instance.hidden_placement;
  std::int32_t misplaced = 0;
  for (std::int32_t j = 0; j < base.num_components(); ++j) {
    if (rng.next_bool(shuffle)) {
      manual.set(j, static_cast<qbp::PartitionId>(rng.next_below(16)));
      ++misplaced;
    }
  }

  std::printf("circuit %s: %d components, 16 slots; designer misplaced %d\n",
              preset->name.c_str(), base.num_components(), misplaced);
  std::printf("manual assignment: capacity ok: %s, timing ok: %s\n",
              base.satisfies_capacity(manual) ? "yes" : "no",
              base.satisfies_timing(manual) ? "yes" : "no");

  // PP(1, 0): linear deviation term only, quadratic term off.
  const qbp::Matrix<double> p = qbp::deviation_cost_matrix(
      base.topology(), base.netlist().sizes(), manual);
  const qbp::PartitionProblem repair(base.netlist(), base.topology(),
                                     base.timing(), p, /*alpha=*/1.0,
                                     /*beta=*/0.0);

  qbp::BurkardOptions options;
  options.iterations = static_cast<std::int32_t>(iterations);
  const qbp::BurkardResult result = qbp::solve_qbp(repair, manual, options);
  if (!result.found_feasible) {
    std::printf("no feasible repair found within %lld iterations\n",
                static_cast<long long>(iterations));
    return 2;
  }

  const qbp::Assignment& repaired = result.best_feasible;
  std::printf("repaired assignment: capacity ok: %s, timing ok: %s\n",
              base.satisfies_capacity(repaired) ? "yes" : "no",
              base.satisfies_timing(repaired) ? "yes" : "no");
  std::printf("total deviation (sum size x distance): %.1f\n",
              qbp::total_deviation(base.topology(), base.netlist().sizes(),
                                   manual, repaired));
  std::printf("components moved from the manual assignment: %d of %d\n",
              qbp::components_moved(manual, repaired), base.num_components());
  return 0;
}
