#include <gtest/gtest.h>

#include "baselines/gfm.hpp"
#include "baselines/gkl.hpp"
#include "bench_support/circuits.hpp"
#include "bench_support/experiment.hpp"
#include "bench_support/netlist_stats.hpp"
#include "core/burkard.hpp"
#include "core/initial.hpp"

namespace qbp {
namespace {

// ---------------------------------------------------- circuit presets ----

TEST(Presets, SevenCircuitsInPaperOrder) {
  const auto& presets = shihkuh_presets();
  ASSERT_EQ(presets.size(), 7u);
  EXPECT_EQ(presets[0].name, "ckta");
  EXPECT_EQ(presets[6].name, "cktg");
  EXPECT_NE(find_preset("cktc"), nullptr);
  EXPECT_EQ(find_preset("cktx"), nullptr);
}

class PresetSweep : public ::testing::TestWithParam<int> {};

TEST_P(PresetSweep, MatchesTableOneStatistics) {
  const auto& preset = shihkuh_presets()[static_cast<std::size_t>(GetParam())];
  const auto instance = make_circuit(preset);
  const auto& problem = instance.problem;
  // Table I columns, hit exactly.
  EXPECT_EQ(problem.num_components(), preset.num_components);
  EXPECT_EQ(problem.netlist().total_wires(), preset.num_wires);
  EXPECT_EQ(problem.timing().count(), preset.num_timing_constraints);
  // "The number of partitions is 16."
  EXPECT_EQ(problem.num_partitions(), 16);
}

TEST_P(PresetSweep, HiddenPlacementIsFeasible) {
  const auto& preset = shihkuh_presets()[static_cast<std::size_t>(GetParam())];
  const auto instance = make_circuit(preset);
  // F_R is nonempty by construction (Theorem 1's precondition).
  EXPECT_TRUE(instance.problem.is_feasible(instance.hidden_placement));
}

TEST_P(PresetSweep, SizesSpanAboutTwoOrdersOfMagnitude) {
  const auto& preset = shihkuh_presets()[static_cast<std::size_t>(GetParam())];
  const auto instance = make_circuit(preset);
  const auto stats = compute_stats(instance.problem.netlist());
  EXPECT_GE(stats.size_ratio, 15.0);
  EXPECT_LE(stats.size_ratio, 150.0);
}

TEST_P(PresetSweep, ValidatesCleanly) {
  const auto& preset = shihkuh_presets()[static_cast<std::size_t>(GetParam())];
  const auto instance = make_circuit(preset);
  EXPECT_EQ(instance.problem.validate(), "");
}

INSTANTIATE_TEST_SUITE_P(AllSeven, PresetSweep, ::testing::Range(0, 7));

TEST(Presets, DeterministicConstruction) {
  const auto a = make_circuit(shihkuh_presets()[1]);
  const auto b = make_circuit(shihkuh_presets()[1]);
  EXPECT_EQ(a.hidden_placement, b.hidden_placement);
  EXPECT_EQ(a.problem.netlist().bundles(), b.problem.netlist().bundles());
  EXPECT_EQ(a.problem.timing().matrix(), b.problem.timing().matrix());
}

// ----------------------------------------- end-to-end (small circuit) ----

struct SmallCircuit {
  CircuitPreset preset{"mini", 90, 420, 180, 0x1234u};
};

TEST(EndToEnd, ThreeMethodsOnSmallCircuitWithTiming) {
  const SmallCircuit small;
  const auto instance = make_circuit(small.preset);
  const auto& problem = instance.problem;

  const auto initial =
      make_initial(problem, InitialStrategy::kQbpZeroWireCost, 7);
  ASSERT_TRUE(initial.feasible);
  const double start = problem.wirelength(initial.assignment);

  BurkardOptions qbp_options;
  qbp_options.iterations = 40;
  const auto qbp = solve_qbp(problem, initial.assignment, qbp_options);
  ASSERT_TRUE(qbp.found_feasible);
  EXPECT_TRUE(problem.is_feasible(qbp.best_feasible));
  EXPECT_LT(problem.wirelength(qbp.best_feasible), start);

  const auto gfm = solve_gfm(problem, initial.assignment);
  EXPECT_TRUE(problem.is_feasible(gfm.assignment));
  EXPECT_LE(problem.wirelength(gfm.assignment), start);

  GklOptions gkl_options;
  gkl_options.max_outer_loops = 3;
  const auto gkl = solve_gkl(problem, initial.assignment, gkl_options);
  EXPECT_TRUE(problem.is_feasible(gkl.assignment));
  EXPECT_LE(problem.wirelength(gkl.assignment), start);
}

TEST(EndToEnd, QbpImprovesFromArbitraryStart) {
  // Section 5: "QBP can start from any random solution."
  const SmallCircuit small;
  const auto instance = make_circuit(small.preset);
  const auto& problem = instance.problem;
  const auto random_start =
      make_initial(problem, InitialStrategy::kRandom, 99).assignment;

  BurkardOptions options;
  options.iterations = 50;
  const auto result = solve_qbp(problem, random_start, options);
  EXPECT_TRUE(result.found_feasible);
}

TEST(EndToEnd, TimingTableIsHarderThanRelaxedTable) {
  // The II -> III pattern: with the same start, the reachable wirelength
  // under timing constraints is no better than without them.
  const SmallCircuit small;
  const auto instance = make_circuit(small.preset);
  const auto& problem = instance.problem;
  const auto initial =
      make_initial(problem, InitialStrategy::kQbpZeroWireCost, 3);
  ASSERT_TRUE(initial.feasible);

  BurkardOptions options;
  options.iterations = 40;
  const auto with_timing = solve_qbp(problem, initial.assignment, options);
  const auto relaxed =
      solve_qbp(problem.without_timing(), initial.assignment, options);
  ASSERT_TRUE(with_timing.found_feasible);
  ASSERT_TRUE(relaxed.found_feasible);
  EXPECT_LE(problem.wirelength(relaxed.best_feasible),
            problem.wirelength(with_timing.best_feasible) * 1.05);
}

// ------------------------------------------------------------ harness ----

TEST(Harness, RunExperimentProducesConsistentRow) {
  const SmallCircuit small;
  const auto instance = make_circuit(small.preset);
  ExperimentConfig config;
  config.qbp_iterations = 25;
  config.gkl_outer_loops = 2;
  const auto row = run_experiment("mini", instance.problem, config);

  EXPECT_EQ(row.circuit, "mini");
  EXPECT_GT(row.start_cost, 0.0);
  EXPECT_TRUE(row.qbp.feasible);
  EXPECT_TRUE(row.gfm.feasible);
  EXPECT_TRUE(row.gkl.feasible);
  EXPECT_TRUE(row.sa.feasible);
  // Improvement percentages consistent with final costs.
  EXPECT_NEAR(row.qbp.improvement_pct,
              (row.start_cost - row.qbp.final_cost) / row.start_cost * 100.0,
              1e-6);
  EXPECT_LE(row.qbp.final_cost, row.start_cost);
  EXPECT_LE(row.gfm.final_cost, row.start_cost);
  EXPECT_LE(row.gkl.final_cost, row.start_cost);
  EXPECT_LE(row.sa.final_cost, row.start_cost);
}

TEST(Harness, SharedStartVariantUsesGivenAssignment) {
  const SmallCircuit small;
  const auto instance = make_circuit(small.preset);
  const auto initial = make_initial(instance.problem,
                                    InitialStrategy::kQbpZeroWireCost, 7);
  ASSERT_TRUE(initial.feasible);
  ExperimentConfig config;
  config.qbp_iterations = 10;
  const auto row = run_experiment_from("mini", instance.problem,
                                       initial.assignment, initial.feasible,
                                       config);
  EXPECT_DOUBLE_EQ(row.start_cost,
                   instance.problem.wirelength(initial.assignment));
}

TEST(Harness, TableFormatting) {
  ExperimentRow row;
  row.circuit = "cktx";
  row.start_cost = 20756;
  row.qbp = {17457, 15.9, 86.8, true};
  row.gfm = {18894, 9.0, 12.2, true};
  row.gkl = {17526, 15.6, 544.3, true};
  row.sa = {17300, 16.6, 9.5, true};
  const json::Value rows = rows_to_json({row});
  ASSERT_EQ(rows.size(), 1u);
  const json::Value& entry = rows.at(0);
  EXPECT_EQ(entry.get_string("circuit"), "cktx");
  EXPECT_EQ(entry.get_number("start", 0.0), 20756.0);
  ASSERT_NE(entry.find("qbp"), nullptr);
  EXPECT_EQ(entry.find("qbp")->get_number("final", 0.0), 17457.0);
  EXPECT_EQ(entry.find("gkl")->get_number("cpu_s", 0.0), 544.3);
  EXPECT_TRUE(entry.find("gfm")->get_bool("feasible", false));
  ASSERT_NE(entry.find("sa"), nullptr);
  EXPECT_EQ(entry.find("sa")->get_number("final", 0.0), 17300.0);
}

}  // namespace
}  // namespace qbp
