// Timing-driven 16-way partitioning (the FPGA / MCM use case of the paper's
// introduction): run QBP, GFM, GKL and SA on one preset circuit with timing
// constraints active and compare quality and runtime -- a single row of
// Table III.
//
//   ./fpga_timing [--circuit ckte] [--iterations 100] [--relax-timing]
#include <cstdio>

#include "bench_support/circuits.hpp"
#include "bench_support/experiment.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  std::string circuit = "ckte";
  std::int64_t iterations = 100;
  bool relax_timing = false;

  qbp::CliParser cli("fpga_timing",
                     "one circuit through QBP / GFM / GKL / SA under timing "
                     "and capacity constraints");
  cli.add_string("circuit", circuit, "preset circuit (ckta..cktg)");
  cli.add_int("iterations", iterations, "QBP iterations");
  cli.add_flag("relax-timing", relax_timing,
               "drop timing constraints (Table II style)");
  if (const auto exit_code = cli.run(argc, argv)) return *exit_code;

  const qbp::CircuitPreset* preset = qbp::find_preset(circuit);
  if (preset == nullptr) {
    std::fprintf(stderr, "unknown circuit '%s'\n", circuit.c_str());
    return 1;
  }

  std::printf("building %s: %d components, %lld wires, %lld timing constraints, "
              "16 partitions (4x4)\n",
              preset->name.c_str(), preset->num_components,
              static_cast<long long>(preset->num_wires),
              static_cast<long long>(preset->num_timing_constraints));
  const qbp::CircuitInstance instance = qbp::make_circuit(*preset);

  qbp::ExperimentConfig config;
  config.qbp_iterations = static_cast<std::int32_t>(iterations);

  const qbp::PartitionProblem problem =
      relax_timing ? instance.problem.without_timing() : instance.problem;
  const qbp::ExperimentRow row =
      qbp::run_experiment(preset->name, problem, config);

  std::printf("\nstart wirelength: %.0f\n", row.start_cost);
  const auto report = [](const char* name, const qbp::MethodOutcome& outcome) {
    std::printf("%-4s final %.0f  (-%.1f%%)  cpu %.2fs  feasible: %s\n", name,
                outcome.final_cost, outcome.improvement_pct,
                outcome.cpu_seconds, outcome.feasible ? "yes" : "no");
  };
  report("QBP", row.qbp);
  report("GFM", row.gfm);
  report("GKL", row.gkl);
  report("SA", row.sa);
  return 0;
}
