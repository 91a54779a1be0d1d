#include <gtest/gtest.h>

#include "bench_support/netlist_stats.hpp"
#include "netlist/generator.hpp"
#include "netlist/netlist.hpp"
#include "test_support.hpp"
#include "util/check.hpp"

namespace qbp {
namespace {

// ------------------------------------------------------------ Netlist ----

TEST(Netlist, AddComponentsAssignsDenseIds) {
  Netlist netlist("n");
  EXPECT_EQ(netlist.add_component("a", 1.0), 0);
  EXPECT_EQ(netlist.add_component("b", 2.0), 1);
  EXPECT_EQ(netlist.num_components(), 2);
  EXPECT_EQ(netlist.component(1).name, "b");
  EXPECT_DOUBLE_EQ(netlist.component_size(1), 2.0);
}

TEST(Netlist, TotalAndSizesVector) {
  Netlist netlist;
  netlist.add_component("a", 1.5);
  netlist.add_component("b", 2.5);
  EXPECT_DOUBLE_EQ(netlist.total_size(), 4.0);
  EXPECT_EQ(netlist.sizes(), (std::vector<double>{1.5, 2.5}));
}

TEST(Netlist, WiresAccumulateAcrossCalls) {
  Netlist netlist;
  netlist.add_component("a", 1.0);
  netlist.add_component("b", 1.0);
  netlist.add_wires(0, 1, 2);
  netlist.add_wires(1, 0, 3);  // reversed order, same pair
  netlist.finalize();
  ASSERT_EQ(netlist.bundles().size(), 1u);
  EXPECT_EQ(netlist.bundles()[0].multiplicity, 5);
  EXPECT_EQ(netlist.total_wires(), 5);
  EXPECT_EQ(netlist.num_connected_pairs(), 1);
}

TEST(Netlist, ConnectionMatrixIsSymmetric) {
  Netlist netlist;
  netlist.add_component("a", 1.0);
  netlist.add_component("b", 1.0);
  netlist.add_component("c", 1.0);
  netlist.add_wires(0, 1, 5);
  netlist.add_wires(1, 2, 2);
  netlist.finalize();
  const auto& a = netlist.connection_matrix();
  EXPECT_EQ(a.value_or(0, 1, 0), 5);
  EXPECT_EQ(a.value_or(1, 0, 0), 5);
  EXPECT_EQ(a.value_or(1, 2, 0), 2);
  EXPECT_EQ(a.value_or(2, 1, 0), 2);
  EXPECT_EQ(a.value_or(0, 2, 0), 0);
}

TEST(Netlist, ReadAfterAddFailsUntilFinalized) {
  Netlist netlist;
  netlist.add_component("a", 1.0);
  netlist.add_component("b", 1.0);
  {
    const test::FailModeGuard guard(check::FailMode::kThrow);
    EXPECT_THROW((void)netlist.connection_matrix(), ContractViolation);
    netlist.finalize();
    EXPECT_EQ(netlist.connection_matrix().value_or(0, 1, 0), 0);
    netlist.add_wires(1, 0, 1);
    EXPECT_THROW((void)netlist.connection_matrix(), ContractViolation);
    EXPECT_THROW((void)netlist.bundles(), ContractViolation);
    EXPECT_THROW((void)netlist.degree(0), ContractViolation);
    EXPECT_THROW((void)netlist.num_connected_pairs(), ContractViolation);
    netlist.finalize();
    // A new component changes A's dimension: it counts as an add.
    netlist.add_component("c", 1.0);
    EXPECT_THROW((void)netlist.connection_matrix(), ContractViolation);
    netlist.add_wires(0, 2, 3);
    netlist.add_wires(0, 1, 2);
    netlist.finalize();
    netlist.finalize();  // idempotent
  }

  Netlist fresh;
  fresh.add_component("a", 1.0);
  fresh.add_component("b", 1.0);
  fresh.add_component("c", 1.0);
  fresh.add_wires(0, 1, 3);
  fresh.add_wires(0, 2, 3);
  fresh.finalize();
  EXPECT_EQ(netlist.bundles(), fresh.bundles());
  EXPECT_TRUE(netlist.connection_matrix() == fresh.connection_matrix());
  EXPECT_EQ(netlist.degree(0), 2);
}

TEST(Netlist, DegreeCountsDistinctNeighbors) {
  Netlist netlist;
  for (int k = 0; k < 4; ++k) netlist.add_component("c", 1.0);
  netlist.add_wires(0, 1, 7);
  netlist.add_wires(0, 2, 1);
  netlist.finalize();
  EXPECT_EQ(netlist.degree(0), 2);
  EXPECT_EQ(netlist.degree(1), 1);
  EXPECT_EQ(netlist.degree(3), 0);
}

TEST(Netlist, ValidateAcceptsGoodNetlist) {
  Netlist netlist;
  netlist.add_component("a", 1.0);
  netlist.add_component("b", 0.5);
  netlist.add_wires(0, 1, 1);
  EXPECT_TRUE(netlist.validate().empty());
}

TEST(Netlist, ValidateRejectsNonPositiveSize) {
  Netlist netlist;
  netlist.add_component("a", 0.0);
  EXPECT_FALSE(netlist.validate().empty());
}

// -------------------------------------------------------------- stats ----

TEST(Stats, ComputesBasics) {
  Netlist netlist("s");
  netlist.add_component("a", 1.0);
  netlist.add_component("b", 10.0);
  netlist.add_component("c", 5.0);
  netlist.add_wires(0, 1, 4);
  netlist.finalize();
  const auto stats = compute_stats(netlist);
  EXPECT_EQ(stats.num_components, 3);
  EXPECT_EQ(stats.total_wires, 4);
  EXPECT_EQ(stats.num_connected_pairs, 1);
  EXPECT_DOUBLE_EQ(stats.min_size, 1.0);
  EXPECT_DOUBLE_EQ(stats.max_size, 10.0);
  EXPECT_DOUBLE_EQ(stats.size_ratio, 10.0);
  EXPECT_EQ(stats.isolated_components, 1);
  EXPECT_EQ(stats.max_degree, 1);
  EXPECT_FALSE(to_string(stats).empty());
}

TEST(Stats, EmptyNetlist) {
  Netlist empty("empty");
  empty.finalize();
  const auto stats = compute_stats(empty);
  EXPECT_EQ(stats.num_components, 0);
  EXPECT_DOUBLE_EQ(stats.min_size, 0.0);
  EXPECT_DOUBLE_EQ(stats.avg_degree, 0.0);
}

// ---------------------------------------------------------- generator ----

class GeneratorSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorSweep, HitsSpecTargetsExactly) {
  RandomNetlistSpec spec;
  spec.num_components = 120;
  spec.total_wires = 600;
  spec.seed = GetParam();
  const auto generated = generate_netlist(spec);
  EXPECT_EQ(generated.netlist.num_components(), spec.num_components);
  EXPECT_EQ(generated.netlist.total_wires(), spec.total_wires);
  EXPECT_TRUE(generated.netlist.validate().empty());
}

TEST_P(GeneratorSweep, NoIsolatedComponents) {
  RandomNetlistSpec spec;
  spec.num_components = 80;
  spec.total_wires = 200;
  spec.seed = GetParam();
  const auto generated = generate_netlist(spec);
  EXPECT_EQ(compute_stats(generated.netlist).isolated_components, 0);
}

TEST_P(GeneratorSweep, HiddenSlotsInRange) {
  RandomNetlistSpec spec;
  spec.num_components = 60;
  spec.total_wires = 150;
  spec.num_slots = 16;
  spec.seed = GetParam();
  const auto generated = generate_netlist(spec);
  ASSERT_EQ(generated.hidden_slot.size(), 60u);
  for (const auto slot : generated.hidden_slot) {
    EXPECT_GE(slot, 0);
    EXPECT_LT(slot, 16);
  }
}

TEST_P(GeneratorSweep, SizesSpanRoughlyTwoOrdersOfMagnitude) {
  RandomNetlistSpec spec;
  spec.num_components = 400;
  spec.total_wires = 1200;
  spec.seed = GetParam();
  const auto stats = compute_stats(generate_netlist(spec).netlist);
  EXPECT_GE(stats.size_ratio, 15.0);
  EXPECT_LE(stats.size_ratio, 120.0);
}

TEST_P(GeneratorSweep, DeterministicInSeed) {
  RandomNetlistSpec spec;
  spec.num_components = 50;
  spec.total_wires = 120;
  spec.seed = GetParam();
  const auto a = generate_netlist(spec);
  const auto b = generate_netlist(spec);
  EXPECT_EQ(a.hidden_slot, b.hidden_slot);
  EXPECT_EQ(a.netlist.bundles(), b.netlist.bundles());
  EXPECT_EQ(a.netlist.sizes(), b.netlist.sizes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSweep,
                         ::testing::Values(1u, 2u, 3u, 17u, 1993u));

TEST(Generator, HiddenPlacementIsSizeBalanced) {
  RandomNetlistSpec spec;
  spec.num_components = 320;
  spec.total_wires = 900;
  spec.num_slots = 16;
  spec.seed = 5;
  const auto generated = generate_netlist(spec);
  std::vector<double> usage(16, 0.0);
  for (std::int32_t j = 0; j < spec.num_components; ++j) {
    usage[generated.hidden_slot[j]] += generated.netlist.component_size(j);
  }
  const double mean = generated.netlist.total_size() / 16.0;
  for (const double u : usage) {
    EXPECT_GT(u, 0.55 * mean);
    EXPECT_LT(u, 1.45 * mean);
  }
}

TEST(Generator, LocalityBiasesWiresTowardNearbySlots) {
  RandomNetlistSpec local;
  local.num_components = 200;
  local.total_wires = 2000;
  local.locality = 0.9;
  local.seed = 9;
  RandomNetlistSpec uniform = local;
  uniform.locality = 0.0;

  const auto count_local = [](const GeneratedNetlist& generated) {
    std::int64_t local_wires = 0;
    const std::int32_t width = generated.spec.grid_width;
    for (const auto& bundle : generated.netlist.bundles()) {
      const auto a = generated.hidden_slot[bundle.a];
      const auto b = generated.hidden_slot[bundle.b];
      const std::int32_t dist = std::abs(a % width - b % width) +
                                std::abs(a / width - b / width);
      if (dist <= 1) local_wires += bundle.multiplicity;
    }
    return local_wires;
  };
  EXPECT_GT(count_local(generate_netlist(local)),
            count_local(generate_netlist(uniform)) * 2);
}

}  // namespace
}  // namespace qbp
