// Kernel-level micro-benchmarks (google-benchmark): the inner pieces whose
// costs dominate a QBP run -- eta gathers, penalized evaluations, move/swap
// deltas, GAP and LAP solves -- plus the baselines' primitives.
#include <benchmark/benchmark.h>

#include "assign/gap.hpp"
#include "assign/lap.hpp"
#include "baselines/gfm.hpp"
#include "bench_support/circuits.hpp"
#include "core/burkard.hpp"
#include "core/delta_evaluator.hpp"
#include "core/multilevel.hpp"
#include "core/initial.hpp"
#include "core/qhat.hpp"
#include "util/rng.hpp"

namespace qbp {
namespace {

const CircuitInstance& cktb_instance() {
  static const CircuitInstance instance = make_circuit(*find_preset("cktb"));
  return instance;
}

const Assignment& cktb_start() {
  static const Assignment start =
      make_initial(cktb_instance().problem, InitialStrategy::kQbpZeroWireCost,
                   1993)
          .assignment;
  return start;
}

void BM_EtaGatherSparse(benchmark::State& state) {
  const auto& problem = cktb_instance().problem;
  const QhatMatrix qhat(problem, 50.0);
  std::vector<double> eta(static_cast<std::size_t>(problem.flat_size()));
  for (auto _ : state) {
    qhat.eta(cktb_start(), eta);
    benchmark::DoNotOptimize(eta.data());
  }
}
BENCHMARK(BM_EtaGatherSparse);

void BM_PenalizedValue(benchmark::State& state) {
  const auto& problem = cktb_instance().problem;
  const QhatMatrix qhat(problem, 50.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qhat.penalized_value(cktb_start()));
  }
}
BENCHMARK(BM_PenalizedValue);

void BM_Wirelength(benchmark::State& state) {
  const auto& problem = cktb_instance().problem;
  for (auto _ : state) {
    benchmark::DoNotOptimize(problem.wirelength(cktb_start()));
  }
}
BENCHMARK(BM_Wirelength);

void BM_MoveDeltaPenalized(benchmark::State& state) {
  const auto& problem = cktb_instance().problem;
  const DeltaEvaluator evaluator(problem, 50.0);
  Rng rng(1);
  for (auto _ : state) {
    const auto j = static_cast<std::int32_t>(
        rng.next_below(problem.num_components()));
    const auto target =
        static_cast<PartitionId>(rng.next_below(problem.num_partitions()));
    benchmark::DoNotOptimize(evaluator.move_delta(cktb_start(), j, target));
  }
}
BENCHMARK(BM_MoveDeltaPenalized);

void BM_SwapDeltaPenalized(benchmark::State& state) {
  const auto& problem = cktb_instance().problem;
  const DeltaEvaluator evaluator(problem, 50.0);
  Rng rng(2);
  for (auto _ : state) {
    const auto a = static_cast<std::int32_t>(
        rng.next_below(problem.num_components()));
    const auto b = static_cast<std::int32_t>(
        rng.next_below(problem.num_components()));
    if (a == b) continue;
    benchmark::DoNotOptimize(evaluator.swap_delta(cktb_start(), a, b));
  }
}
BENCHMARK(BM_SwapDeltaPenalized);

void BM_GapSolve(benchmark::State& state) {
  const auto& problem = cktb_instance().problem;
  Rng rng(3);
  GapProblem gap;
  gap.sizes = problem.netlist().sizes();
  gap.capacities = problem.topology().capacities();
  gap.cost = Matrix<double>(problem.num_partitions(), problem.num_components());
  for (std::int32_t i = 0; i < gap.cost.rows(); ++i) {
    for (std::int32_t j = 0; j < gap.cost.cols(); ++j) {
      gap.cost(i, j) = rng.next_double(0, 100);
    }
  }
  GapOptions options;
  options.swap_improvement = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_gap(gap, options));
  }
}
BENCHMARK(BM_GapSolve)->Arg(0)->Arg(1)->ArgName("swaps");

void BM_LapSolve(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  Rng rng(4);
  Matrix<double> cost(n, n, 0.0);
  for (std::int32_t r = 0; r < n; ++r) {
    for (std::int32_t c = 0; c < n; ++c) cost(r, c) = rng.next_double(0, 100);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_lap(cost));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_LapSolve)->Arg(16)->Arg(64)->Arg(128)->Complexity();

void BM_QbpIteration(benchmark::State& state) {
  // One full Burkard iteration (amortized): 5-iteration solves divided by 5.
  const auto& problem = cktb_instance().problem;
  BurkardOptions options;
  options.iterations = 5;
  options.record_history = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_qbp(problem, cktb_start(), options));
  }
}
BENCHMARK(BM_QbpIteration)->Unit(benchmark::kMillisecond);

void BM_GfmPass(benchmark::State& state) {
  const auto& problem = cktb_instance().problem;
  GfmOptions options;
  options.max_passes = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_gfm(problem, cktb_start(), options));
  }
}
BENCHMARK(BM_GfmPass)->Unit(benchmark::kMillisecond);

void BM_Coarsen(benchmark::State& state) {
  const auto& problem = cktb_instance().problem;
  for (auto _ : state) {
    benchmark::DoNotOptimize(coarsen(problem));
  }
}
BENCHMARK(BM_Coarsen)->Unit(benchmark::kMillisecond);

void BM_TimingViolationCount(benchmark::State& state) {
  const auto& problem = cktb_instance().problem;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        problem.timing().violations(cktb_start(), problem.topology()));
  }
}
BENCHMARK(BM_TimingViolationCount);

void BM_CircuitGeneration(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_circuit(*find_preset("cktb")));
  }
}
BENCHMARK(BM_CircuitGeneration)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace qbp
