#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "core/problem_io.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace qbp {
namespace {

// --------------------------------------------------------- round trips ----

TEST(ProblemIo, GridProblemRoundTrip) {
  const auto original = test::make_paper_example();
  std::ostringstream out;
  write_problem(out, original);

  PartitionProblem parsed;
  std::istringstream in(out.str());
  const auto result = read_problem(in, parsed);
  ASSERT_TRUE(result.ok) << result.message;

  EXPECT_EQ(parsed.num_components(), 3);
  EXPECT_EQ(parsed.num_partitions(), 4);
  EXPECT_EQ(parsed.netlist().bundles(), original.netlist().bundles());
  EXPECT_EQ(parsed.topology().wire_cost(), original.topology().wire_cost());
  EXPECT_EQ(parsed.topology().delay(), original.topology().delay());
  EXPECT_EQ(parsed.topology().capacities(), original.topology().capacities());
  EXPECT_EQ(parsed.timing().matrix(), original.timing().matrix());
  // The grid header survives the round trip (written as `topology grid`).
  EXPECT_NE(out.str().find("topology grid 2 2 manhattan"), std::string::npos);
}

class ProblemIoSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProblemIoSweep, RandomProblemRoundTripPreservesSemantics) {
  auto spec = test::TinySpec{};
  spec.with_linear_term = true;
  spec.seed = GetParam();
  const auto original = test::make_tiny_problem(spec);

  std::ostringstream out;
  write_problem(out, original);
  PartitionProblem parsed;
  std::istringstream in(out.str());
  const auto result = read_problem(in, parsed);
  ASSERT_TRUE(result.ok) << result.message;

  // Semantics: identical objective and feasibility on random assignments.
  Rng rng(GetParam() ^ 0xfeed);
  for (int trial = 0; trial < 20; ++trial) {
    const auto assignment = test::random_complete(
        original.num_components(), original.num_partitions(), rng);
    // The text format stores 6 decimals; error accumulates over ~N entries.
    EXPECT_NEAR(parsed.objective(assignment), original.objective(assignment),
                1e-4);
    EXPECT_EQ(parsed.is_feasible(assignment), original.is_feasible(assignment));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProblemIoSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(ProblemIo, CustomTopologyRoundTrip) {
  Netlist netlist;
  netlist.add_component("a", 1.0);
  netlist.add_component("b", 2.0);
  netlist.add_wires(0, 1, 4);
  auto b = Matrix<double>::from_rows({{0, 3}, {5, 0}});   // asymmetric B
  auto d = Matrix<double>::from_rows({{0, 1}, {2, 0}});   // asymmetric D
  const PartitionProblem original(
      std::move(netlist),
      PartitionTopology::custom(b, d, {4.0, 4.0}), TimingConstraints(2));

  std::ostringstream out;
  write_problem(out, original);
  EXPECT_NE(out.str().find("topology custom 2"), std::string::npos);

  PartitionProblem parsed;
  std::istringstream in(out.str());
  const auto result = read_problem(in, parsed);
  ASSERT_TRUE(result.ok) << result.message;
  EXPECT_EQ(parsed.topology().wire_cost(), b);
  EXPECT_EQ(parsed.topology().delay(), d);
}

TEST(ProblemIo, AlphaBetaSurvive) {
  auto spec = test::TinySpec{};
  spec.with_linear_term = true;
  const auto base = test::make_tiny_problem(spec);
  const PartitionProblem original(base.netlist(), base.topology(),
                                  base.timing(), base.linear_cost_matrix(),
                                  2.0, 0.5);
  std::ostringstream out;
  write_problem(out, original);
  PartitionProblem parsed;
  std::istringstream in(out.str());
  ASSERT_TRUE(read_problem(in, parsed).ok);
  EXPECT_DOUBLE_EQ(parsed.alpha(), 2.0);
  EXPECT_DOUBLE_EQ(parsed.beta(), 0.5);
}

// --------------------------------------------------------- net parsing ----

TEST(ProblemIo, NetLinesExpandAsClique) {
  std::istringstream in(
      "problem nets\n"
      "topology grid 1 2 manhattan\n"
      "capacities 10 10\n"
      "component a 1\ncomponent b 1\ncomponent c 1\n"
      "net 2 0 1 2\n");
  PartitionProblem parsed;
  ASSERT_TRUE(read_problem(in, parsed).ok);
  EXPECT_EQ(parsed.netlist().connection_matrix().value_or(0, 1, 0), 2);
  EXPECT_EQ(parsed.netlist().connection_matrix().value_or(0, 2, 0), 2);
  EXPECT_EQ(parsed.netlist().connection_matrix().value_or(1, 2, 0), 2);
}

TEST(ProblemIo, NetstarLinesExpandAsStar) {
  std::istringstream in(
      "problem nets\n"
      "topology grid 1 2 manhattan\n"
      "capacities 10 10\n"
      "component a 1\ncomponent b 1\ncomponent c 1\n"
      "netstar 1 0 1 2\n");
  PartitionProblem parsed;
  ASSERT_TRUE(read_problem(in, parsed).ok);
  EXPECT_EQ(parsed.netlist().connection_matrix().value_or(0, 1, 0), 1);
  EXPECT_EQ(parsed.netlist().connection_matrix().value_or(0, 2, 0), 1);
  EXPECT_EQ(parsed.netlist().connection_matrix().value_or(1, 2, 0), 0);
}

TEST(ProblemIo, HugeNetstarLineParsesInUnderFiveSeconds) {
  // A k-pin `netstar` line expands to k - 1 bundles, far inside the bundle
  // cap, so its duplicate-pin check must not cost k^2 / 2 comparisons
  // (about 17 s at this size): a hostile line must not hold a worker.
  constexpr std::int32_t kPins = 300000;
  std::string text =
      "problem star\ntopology grid 1 2 manhattan\ncapacities 300000 300000\n";
  for (std::int32_t j = 0; j < kPins; ++j) {
    text += "component c" + std::to_string(j) + " 1\n";
  }
  text += "netstar 1";
  for (std::int32_t j = 0; j < kPins; ++j) text += " " + std::to_string(j);
  PartitionProblem parsed;
  {
    std::istringstream in(text + "\n");
    const Timer timer;
    const ParseResult result = read_problem(in, parsed);
    EXPECT_LT(timer.seconds(), 5.0);
    ASSERT_TRUE(result.ok) << result.message;
  }
  EXPECT_EQ(parsed.netlist().num_connected_pairs(), kPins - 1);
  EXPECT_EQ(parsed.netlist().degree(0), kPins - 1);

  // The same line with the driver listed again at its end is refused.
  std::istringstream twice(text + " 0\n");
  const ParseResult result = read_problem(twice, parsed);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.message.find("net lists a pin twice"), std::string::npos)
      << result.message;
}

// ------------------------------------------------------------- errors ----

TEST(ProblemIo, MissingTopologyRejected) {
  std::istringstream in("problem x\ncomponent a 1\n");
  PartitionProblem parsed;
  const auto result = read_problem(in, parsed);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.message.find("topology"), std::string::npos);
}

TEST(ProblemIo, MissingCapacitiesRejected) {
  std::istringstream in("topology grid 1 2 manhattan\ncomponent a 1\n");
  PartitionProblem parsed;
  EXPECT_FALSE(read_problem(in, parsed).ok);
}

TEST(ProblemIo, IncompleteCustomMatrixRejected) {
  std::istringstream in(
      "topology custom 2\n"
      "bcost 0 0 1\n"
      "delay 0 0 1\n"
      "capacities 1 1\n"
      "component a 0.5\n");
  PartitionProblem parsed;
  const auto result = read_problem(in, parsed);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.message.find("row 1"), std::string::npos);
}

TEST(ProblemIo, WireBeforeComponentsRejected) {
  std::istringstream in(
      "topology grid 1 2 manhattan\ncapacities 5 5\nwire 0 1 1\n");
  PartitionProblem parsed;
  EXPECT_FALSE(read_problem(in, parsed).ok);
}

TEST(ProblemIo, BadConstraintRejected) {
  std::istringstream in(
      "topology grid 1 2 manhattan\ncapacities 5 5\n"
      "component a 1\ncomponent b 1\nconstraint 0 0 1\n");
  PartitionProblem parsed;
  EXPECT_FALSE(read_problem(in, parsed).ok);
}

TEST(ProblemIo, NegativeLinearRejected) {
  std::istringstream in(
      "topology grid 1 2 manhattan\ncapacities 5 5\n"
      "component a 1\nlinear 0 0 -3\n");
  PartitionProblem parsed;
  EXPECT_FALSE(read_problem(in, parsed).ok);
}

TEST(ProblemIo, NanEntriesRejectedByValidate) {
  // The reader takes "nan" as a number; NaN passes every sign check, so
  // validate names it wherever B, D, P, a capacity or a scale holds one.
  const auto source = [](const std::string& b_row, const std::string& d_row,
                         const std::string& capacities, const std::string& tail) {
    return "topology custom 2\nbcost 0 0 1\nbcost 1 " + b_row +
           "\ndelay 0 0 1\ndelay 1 " + d_row + "\ncapacities " + capacities +
           "\ncomponent a 1\ncomponent b 1\nconstraint 0 1 1\n" + tail;
  };
  const std::pair<std::string, std::string> cases[] = {
      {source("1 0", "nan 0", "2 2", ""), "D(1, 0) is NaN"},
      {source("nan 0", "1 0", "2 2", ""), "B(1, 0) is NaN"},
      {source("1 0", "1 0", "2 nan", ""), "partition 1 has a NaN capacity"},
      {source("1 0", "1 0", "2 2", "linear 1 0 nan\n"), "P(1, 0) is NaN"},
      {source("1 0", "1 0", "2 2", "beta nan\n"), "alpha and beta"},
  };
  for (const auto& [text, message] : cases) {
    SCOPED_TRACE(message);
    std::istringstream in(text);
    PartitionProblem parsed;
    const auto result = read_problem(in, parsed);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.message.find(message), std::string::npos) << result.message;
  }
  // The same file without a NaN is read.
  std::istringstream in(source("1 0", "1 0", "2 2", "linear 1 0 3\nbeta 2\n"));
  PartitionProblem parsed;
  EXPECT_TRUE(read_problem(in, parsed).ok);
}

TEST(ProblemIo, OverfullProblemRejectedByValidate) {
  std::istringstream in(
      "topology grid 1 2 manhattan\ncapacities 1 1\ncomponent a 5\n");
  PartitionProblem parsed;
  const auto result = read_problem(in, parsed);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.message.find("inconsistent"), std::string::npos);
}

// Service-boundary hardening: malformed, truncated or hostile input must
// produce a descriptive ParseResult -- never an abort, uncaught throw, or
// multi-gigabyte allocation.  qbpartd feeds untrusted bytes through here.

TEST(ProblemIo, EveryTruncationOfAValidFileFailsGracefully) {
  const auto original = test::make_tiny_problem({.seed = 7});
  std::ostringstream out;
  write_problem(out, original);
  const std::string full = out.str();

  // Any strict prefix is missing at least the trailing structure (wires /
  // constraints come last but capacities, components, or the topology are
  // gone for shorter cuts); none may crash and all must carry a message.
  for (std::size_t cut = 0; cut < full.size(); cut += full.size() / 37 + 1) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    std::istringstream in(full.substr(0, cut));
    PartitionProblem parsed;
    const auto result = read_problem(in, parsed);
    if (!result.ok) {
      EXPECT_FALSE(result.message.empty());
    } else {
      // A cut can only succeed once every section is complete; the parsed
      // problem must then be internally consistent.
      EXPECT_TRUE(parsed.validate().empty());
      EXPECT_GT(parsed.num_components(), 0);
    }
  }
}

TEST(ProblemIo, EmptyAndComponentFreeInputRejected) {
  PartitionProblem parsed;
  std::istringstream empty("");
  EXPECT_FALSE(read_problem(empty, parsed).ok);

  // Topology + capacities but zero components: the classic truncation shape.
  std::istringstream headless("topology grid 1 2 manhattan\ncapacities 5 5\n");
  const auto result = read_problem(headless, parsed);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.message.find("no components"), std::string::npos);
}

TEST(ProblemIo, NegativeSizesRejected) {
  PartitionProblem parsed;
  std::istringstream size(
      "topology grid 1 2 manhattan\ncapacities 5 5\ncomponent a -1\n");
  EXPECT_FALSE(read_problem(size, parsed).ok);

  std::istringstream topo("topology custom -3\n");
  EXPECT_FALSE(read_problem(topo, parsed).ok);

  std::istringstream grid("topology grid -1 2 manhattan\n");
  EXPECT_FALSE(read_problem(grid, parsed).ok);

  std::istringstream capacity(
      "topology grid 1 2 manhattan\ncapacities -5 5\ncomponent a 1\n");
  EXPECT_FALSE(read_problem(capacity, parsed).ok);
}

TEST(ProblemIo, OutOfRangePartitionIndicesRejected) {
  PartitionProblem parsed;
  // `linear` partition index beyond M.
  std::istringstream linear(
      "topology grid 1 2 manhattan\ncapacities 5 5\n"
      "component a 1\nlinear 2 0 1.0\n");
  const auto result = read_problem(linear, parsed);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.message.find("linear"), std::string::npos);

  // `bcost` row index beyond M.
  std::istringstream row(
      "topology custom 2\nbcost 2 0 1\n");
  EXPECT_FALSE(read_problem(row, parsed).ok);

  // Constraint endpoint beyond N.
  std::istringstream constraint(
      "topology grid 1 2 manhattan\ncapacities 5 5\n"
      "component a 1\ncomponent b 1\nconstraint 0 7 1\n");
  EXPECT_FALSE(read_problem(constraint, parsed).ok);
}

TEST(ProblemIo, HostileResourceRequestsRejected) {
  PartitionProblem parsed;
  // 1e9 partitions would allocate ~16 exabytes of matrices.
  std::istringstream custom("topology custom 1000000000\n");
  const auto result = read_problem(custom, parsed);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.message.find("limit"), std::string::npos);

  std::istringstream grid("topology grid 100000 100000 manhattan\n");
  EXPECT_FALSE(read_problem(grid, parsed).ok);

  // Wire multiplicity that would overflow the int32 accumulation.
  std::istringstream wire(
      "topology grid 1 2 manhattan\ncapacities 5 5\n"
      "component a 1\ncomponent b 1\nwire 0 1 99999999999\n");
  EXPECT_FALSE(read_problem(wire, parsed).ok);
}

// -------------------------------------------------------- assignments ----

TEST(AssignmentIo, RoundTrip) {
  Assignment assignment(4, 3);
  assignment.set(0, 2);
  assignment.set(1, 0);
  assignment.set(2, 1);
  assignment.set(3, 2);
  std::ostringstream out;
  write_assignment(out, assignment);

  Assignment parsed;
  std::istringstream in(out.str());
  const auto result = read_assignment(in, 4, 3, parsed);
  ASSERT_TRUE(result.ok) << result.message;
  EXPECT_EQ(parsed, assignment);
}

TEST(AssignmentIo, RejectsDuplicateAssignment) {
  std::istringstream in("assign 0 1\nassign 0 2\nassign 1 0\n");
  Assignment parsed;
  EXPECT_FALSE(read_assignment(in, 2, 3, parsed).ok);
}

TEST(AssignmentIo, RejectsMissingComponent) {
  std::istringstream in("assign 0 1\n");
  Assignment parsed;
  const auto result = read_assignment(in, 2, 3, parsed);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.message.find("misses"), std::string::npos);
}

TEST(AssignmentIo, RejectsOutOfRange) {
  std::istringstream in("assign 0 9\n");
  Assignment parsed;
  EXPECT_FALSE(read_assignment(in, 1, 3, parsed).ok);
}

}  // namespace
}  // namespace qbp
