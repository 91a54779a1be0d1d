// Robustness: the text parsers must reject malformed input with clean
// line-numbered diagnostics and never crash -- exercised with structured
// mutations and random garbage.
#include <gtest/gtest.h>

#include <sstream>

#include "core/brute_force.hpp"
#include "core/problem_io.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace qbp {
namespace {

// --------------------------------------------------- structured damage ----

class DamagedProblemLine : public ::testing::TestWithParam<const char*> {};

TEST_P(DamagedProblemLine, RejectedWithDiagnostic) {
  std::ostringstream source;
  source << "problem p\n"
         << "topology grid 1 2 manhattan\n"
         << "capacities 10 10\n"
         << "component a 1\ncomponent b 1\n"
         << GetParam() << "\n";
  PartitionProblem parsed;
  std::istringstream in(source.str());
  const auto result = read_problem(in, parsed);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.message.find("line"), std::string::npos) << result.message;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DamagedProblemLine,
    ::testing::Values("wire 0 1",                 // missing multiplicity
                      "wire 0 1 0",               // zero multiplicity
                      "wire 0 9 1",               // out-of-range endpoint
                      "wire 1 1 2",               // self loop
                      "component c -4",           // negative size
                      "component c",              // missing size
                      "constraint 0 1 -2",        // negative bound
                      "constraint 0 1 nan",       // non-numeric bound
                      "net 1 0",                  // single-pin net
                      "net 0 0 1",                // zero weight
                      "net 1 0 0",                // duplicate pin
                      "netstar 1 0 9",            // pin out of range
                      "linear 9 0 1",             // partition out of range
                      "linear 0 0 -1",            // negative cost
                      "capacities 1 2 3",         // wrong arity
                      "alpha -1",                 // negative scale
                      "topology grid 2 2 manhattan",  // duplicate topology
                      "frobnicate 1 2 3"));       // unknown keyword

// ------------------------------------------------------ random garbage ----

class GarbageSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GarbageSweep, ProblemParserSurvivesRandomBytes) {
  Rng rng(GetParam());
  std::string garbage;
  for (int k = 0; k < 2000; ++k) {
    const char c = static_cast<char>(rng.next_int(9, 126));
    garbage.push_back(c == 11 || c == 12 ? ' ' : c);
    if (rng.next_bool(0.05)) garbage.push_back('\n');
  }
  PartitionProblem parsed;
  std::istringstream in(garbage);
  const auto result = read_problem(in, parsed);
  // Virtually certain to be rejected; the property under test is "no crash,
  // coherent result flag".
  if (!result.ok) {
    EXPECT_FALSE(result.message.empty());
  }
}

TEST_P(GarbageSweep, AssignmentParserSurvives) {
  Rng rng(GetParam() ^ 0x77);
  std::ostringstream source;
  for (int k = 0; k < 50; ++k) {
    source << "assign " << rng.next_int(-2, 8) << " " << rng.next_int(-2, 8)
           << "\n";
  }
  Assignment parsed;
  std::istringstream in(source.str());
  const auto result = read_assignment(in, 4, 3, parsed);
  // Out-of-range and duplicate lines must be flagged, never crash.
  EXPECT_FALSE(result.ok);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GarbageSweep,
                         ::testing::Range<std::uint64_t>(1, 9));

// ------------------------------------------------- semantic edge cases ----

TEST(EdgeCases, SingleComponentProblem) {
  Netlist netlist;
  netlist.add_component("only", 1.0);
  auto topo = PartitionTopology::grid(1, 2, CostKind::kManhattan, 2.0);
  const PartitionProblem problem(std::move(netlist), std::move(topo),
                                 TimingConstraints(1));
  const auto exact = brute_force_constrained(problem);
  ASSERT_TRUE(exact.found);
  EXPECT_DOUBLE_EQ(exact.value, 0.0);
  EXPECT_EQ(exact.feasible_count, 2);
}

TEST(EdgeCases, SinglePartitionProblem) {
  Netlist netlist;
  netlist.add_component("a", 1.0);
  netlist.add_component("b", 1.0);
  netlist.add_wires(0, 1, 5);
  auto topo = PartitionTopology::grid(1, 1, CostKind::kManhattan, 5.0);
  const PartitionProblem problem(std::move(netlist), std::move(topo),
                                 TimingConstraints(2));
  const auto exact = brute_force_constrained(problem);
  ASSERT_TRUE(exact.found);
  EXPECT_DOUBLE_EQ(exact.value, 0.0);  // all intra-partition wires free
}

TEST(EdgeCases, WirelessProblemOptimizedByCapacityOnly) {
  Netlist netlist;
  netlist.add_component("a", 2.0);
  netlist.add_component("b", 2.0);
  auto topo = PartitionTopology::grid(1, 2, CostKind::kManhattan, 2.0);
  const PartitionProblem problem(std::move(netlist), std::move(topo),
                                 TimingConstraints(2));
  // Both components cannot share a partition; any split is optimal (cost 0).
  const auto exact = brute_force_constrained(problem);
  ASSERT_TRUE(exact.found);
  EXPECT_EQ(exact.feasible_count, 2);
  EXPECT_DOUBLE_EQ(exact.value, 0.0);
}

}  // namespace
}  // namespace qbp
