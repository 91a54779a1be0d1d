// Workload-configuration coverage: the circuit factory under non-default
// metrics, localities and capacity slacks -- the knobs the benches hold
// fixed.
#include <gtest/gtest.h>

#include <tuple>

#include "bench_support/circuits.hpp"
#include "core/burkard.hpp"
#include "core/initial.hpp"
#include "partition/cost.hpp"

namespace qbp {
namespace {

CircuitPreset small_preset(std::uint64_t seed) {
  return {"wl" + std::to_string(seed), 120, 520, 260, seed};
}

using MetricParam = std::tuple<CostKind, std::uint64_t>;

class MetricSweep : public ::testing::TestWithParam<MetricParam> {};

TEST_P(MetricSweep, InstanceValidAndFeasible) {
  const auto [metric, seed] = GetParam();
  CircuitConfig config;
  config.metric = metric;
  const auto instance = make_circuit(small_preset(seed), config);
  EXPECT_EQ(instance.problem.validate(), "");
  EXPECT_TRUE(instance.problem.is_feasible(instance.hidden_placement));
}

TEST_P(MetricSweep, MetricShapesTheCostMatrix) {
  const auto [metric, seed] = GetParam();
  CircuitConfig config;
  config.metric = metric;
  const auto instance = make_circuit(small_preset(seed), config);
  const auto& b = instance.problem.topology().wire_cost();
  // Opposite grid corners of the 4 x 4 array: ids 0 and 15, distance 6.
  switch (metric) {
    case CostKind::kUnit: EXPECT_DOUBLE_EQ(b(0, 15), 1.0); break;
    case CostKind::kManhattan: EXPECT_DOUBLE_EQ(b(0, 15), 6.0); break;
    case CostKind::kQuadratic: EXPECT_DOUBLE_EQ(b(0, 15), 36.0); break;
  }
  // The delay matrix stays Manhattan regardless of the cost metric.
  EXPECT_DOUBLE_EQ(instance.problem.topology().delay(0, 15), 6.0);
}

TEST_P(MetricSweep, SolvableUnderEveryMetric) {
  const auto [metric, seed] = GetParam();
  CircuitConfig config;
  config.metric = metric;
  const auto instance = make_circuit(small_preset(seed), config);
  // The generator's hidden placement proves the instance feasible, so the
  // start must be too.
  ASSERT_TRUE(instance.problem.is_feasible(instance.hidden_placement));
  const auto initial = make_initial(instance.problem,
                                    InitialStrategy::kQbpZeroWireCost, seed);
  ASSERT_TRUE(initial.feasible) << "no feasible start";
  BurkardOptions options;
  options.iterations = 25;
  const auto result = solve_qbp(instance.problem, initial.assignment, options);
  EXPECT_TRUE(result.found_feasible);
  if (result.found_feasible) {
    EXPECT_LE(instance.problem.objective(result.best_feasible),
              instance.problem.objective(initial.assignment) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Metrics, MetricSweep,
    ::testing::Combine(::testing::Values(CostKind::kUnit, CostKind::kManhattan,
                                         CostKind::kQuadratic),
                       ::testing::Values(31u, 32u)));

TEST(WorkloadConfig, TighterSlackMeansTighterCapacities) {
  CircuitConfig loose;
  loose.capacity_slack = 0.5;
  CircuitConfig tight;
  tight.capacity_slack = 0.05;
  const auto preset = small_preset(33);
  const auto loose_instance = make_circuit(preset, loose);
  const auto tight_instance = make_circuit(preset, tight);
  EXPECT_GT(loose_instance.problem.topology().total_capacity(),
            tight_instance.problem.topology().total_capacity());
  // Both still feasible by construction.
  EXPECT_TRUE(tight_instance.problem.is_feasible(
      tight_instance.hidden_placement));
}

TEST(WorkloadConfig, LocalityLowersTheReferenceWirelength) {
  CircuitConfig local;
  local.locality = 0.9;
  CircuitConfig spread;
  spread.locality = 0.0;
  const auto preset = small_preset(34);
  const auto local_instance = make_circuit(preset, local);
  const auto spread_instance = make_circuit(preset, spread);
  EXPECT_LT(
      local_instance.problem.wirelength(local_instance.hidden_placement),
      spread_instance.problem.wirelength(spread_instance.hidden_placement));
}

}  // namespace
}  // namespace qbp
