// util/prof: the phase profiler under its four contract corners --
// disabled scopes record nothing, nested scopes bucket independently,
// thread-local accumulation merges across a real portfolio pool, and phase
// reports round-trip through JSON.
//
// The profiler is process-global state; every test starts from
// set_enabled(false) + reset() and restores that on exit so test order
// never matters.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "core/burkard.hpp"
#include "engine/adapters.hpp"
#include "engine/portfolio.hpp"
#include "test_support.hpp"
#include "util/prof.hpp"
#include "util/rng.hpp"

namespace qbp::prof {
namespace {

class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(false);
    reset();
  }
  void TearDown() override {
    set_enabled(false);
    reset();
  }
};

void spin_for(std::chrono::microseconds at_least) {
  const auto until = std::chrono::steady_clock::now() + at_least;
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST_F(ProfTest, DisabledScopesRecordNothing) {
  ASSERT_FALSE(enabled());
  for (int i = 0; i < 1000; ++i) {
    QBP_PROF_SCOPE("prof_test.disabled");
    spin_for(std::chrono::microseconds(1));
  }
  const PhaseReport report = snapshot();
  EXPECT_EQ(report.find("prof_test.disabled"), nullptr);
  EXPECT_EQ(report.seconds("prof_test.disabled"), 0.0);
}

TEST_F(ProfTest, EnabledAtEntryDecidesRecording) {
  // The enabled flag is sampled at scope entry: a scope opened while
  // disabled stays inert even if profiling turns on before it closes, and a
  // scope opened while enabled records even if profiling turns off.
  {
    QBP_PROF_SCOPE("prof_test.entry_disabled");
    set_enabled(true);
  }
  EXPECT_EQ(snapshot().find("prof_test.entry_disabled"), nullptr);

  {
    QBP_PROF_SCOPE("prof_test.entry_enabled");
    set_enabled(false);
  }
  const PhaseReport report = snapshot();  // outlives `stat`
  const PhaseStat* stat = report.find("prof_test.entry_enabled");
  ASSERT_NE(stat, nullptr);
  EXPECT_EQ(stat->count, 1);
}

TEST_F(ProfTest, NestedScopesBucketIndependently) {
  set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    QBP_PROF_SCOPE("prof_test.outer");
    spin_for(std::chrono::microseconds(200));
    {
      QBP_PROF_SCOPE("prof_test.inner");
      spin_for(std::chrono::microseconds(200));
    }
  }
  const PhaseReport report = snapshot();
  const PhaseStat* outer = report.find("prof_test.outer");
  const PhaseStat* inner = report.find("prof_test.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 3);
  EXPECT_EQ(inner->count, 3);
  // A parent's seconds INCLUDE its instrumented children (self time is
  // parent - child, computed by the reader).
  EXPECT_GE(outer->seconds, inner->seconds);
  EXPECT_GT(inner->seconds, 0.0);
}

TEST_F(ProfTest, ResetZeroesBucketsButKeepsNames) {
  set_enabled(true);
  {
    QBP_PROF_SCOPE("prof_test.reset_me");
  }
  ASSERT_NE(snapshot().find("prof_test.reset_me"), nullptr);
  reset();
  EXPECT_EQ(snapshot().find("prof_test.reset_me"), nullptr);
  // The site's interned id stays valid: recording after reset works.
  {
    QBP_PROF_SCOPE("prof_test.reset_me");
  }
  const PhaseReport report = snapshot();  // outlives `stat`
  const PhaseStat* stat = report.find("prof_test.reset_me");
  ASSERT_NE(stat, nullptr);
  EXPECT_EQ(stat->count, 1);
}

TEST_F(ProfTest, ThreadBucketsMergeIntoOneSnapshot) {
  set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kIterations = 50;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([] {
      for (int i = 0; i < kIterations; ++i) {
        QBP_PROF_SCOPE("prof_test.worker");
        spin_for(std::chrono::microseconds(10));
      }
    });
  }
  for (auto& thread : pool) thread.join();
  // The workers have exited: their buckets folded into the retired totals,
  // and the merged snapshot sees every sample.
  const PhaseReport report = snapshot();  // outlives `stat`
  const PhaseStat* stat = report.find("prof_test.worker");
  ASSERT_NE(stat, nullptr);
  EXPECT_EQ(stat->count, kThreads * kIterations);
  EXPECT_GT(stat->seconds, 0.0);
}

TEST_F(ProfTest, PortfolioPoolAccumulatesAcrossWorkerThreads) {
  set_enabled(true);
  const PartitionProblem problem = test::make_tiny_problem(
      {.num_components = 12, .num_partitions = 4, .seed = 42});
  BurkardOptions options;
  options.iterations = 4;
  const engine::BurkardSolver solver(options);

  engine::PortfolioOptions portfolio_options;
  portfolio_options.seed = 7;
  portfolio_options.threads = 2;
  constexpr std::int32_t kStarts = 6;
  const auto result =
      engine::Portfolio(portfolio_options).run(problem, solver, kStarts);
  ASSERT_EQ(result.starts_run, kStarts);

  const PhaseReport report = snapshot();
  const PhaseStat* starts = report.find("portfolio.start");
  ASSERT_NE(starts, nullptr);
  EXPECT_EQ(starts->count, kStarts);
  // The solver's instrumented inner phases surfaced through the same merge.
  const PhaseStat* step6 = report.find("burkard.step6_gap");
  ASSERT_NE(step6, nullptr);
  EXPECT_GT(step6->count, 0);
  EXPECT_LE(report.seconds("burkard.step6_gap"),
            report.seconds("portfolio.start"));
}

TEST_F(ProfTest, SinceReportsClampedDeltas) {
  set_enabled(true);
  {
    QBP_PROF_SCOPE("prof_test.since");
  }
  const PhaseReport before = snapshot();
  for (int i = 0; i < 2; ++i) {
    QBP_PROF_SCOPE("prof_test.since");
    spin_for(std::chrono::microseconds(50));
  }
  const PhaseReport delta = snapshot().since(before);
  const PhaseStat* stat = delta.find("prof_test.since");
  ASSERT_NE(stat, nullptr);
  EXPECT_EQ(stat->count, 2);
  // A phase that did not move since `before` drops out of the delta.
  EXPECT_EQ(before.since(before).find("prof_test.since"), nullptr);
}

TEST_F(ProfTest, JsonRoundTripPreservesTheReport) {
  set_enabled(true);
  for (int i = 0; i < 5; ++i) {
    QBP_PROF_SCOPE("prof_test.json_a");
    QBP_PROF_SCOPE("prof_test.json_b");
    spin_for(std::chrono::microseconds(20));
  }
  const PhaseReport report = snapshot();
  ASSERT_FALSE(report.empty());

  const json::Value encoded = to_json(report);
  const auto decoded = from_json(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, report);

  // And through a full serialize/parse cycle, as bench_runner stores it.
  json::Value reparsed;
  const auto parse_result = json::parse(encoded.dump(), reparsed);
  ASSERT_TRUE(parse_result.ok) << parse_result.message;
  const auto decoded_again = from_json(reparsed);
  ASSERT_TRUE(decoded_again.has_value());
  EXPECT_EQ(*decoded_again, report);
}

TEST_F(ProfTest, FromJsonRejectsWrongShapes) {
  EXPECT_FALSE(from_json(json::Value(3.0)).has_value());
  json::Value missing_count = json::Value::object();
  json::Value entry = json::Value::object();
  entry.set("seconds", 1.0);
  missing_count.set("phase", std::move(entry));
  EXPECT_FALSE(from_json(missing_count).has_value());
}

}  // namespace
}  // namespace qbp::prof
