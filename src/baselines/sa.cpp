#include "baselines/sa.hpp"

#include <cmath>

#include "core/delta_evaluator.hpp"
#include "core/placement.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

#include "util/check.hpp"

namespace qbp {

namespace {

/// Initial acceptance probability of the mean uphill move (sets T0).
constexpr double kInitialAcceptance = 0.8;
/// Geometric cooling factor per temperature step.
constexpr double kCooling = 0.95;

struct Proposal {
  bool is_swap = false;
  std::int32_t a = -1;
  std::int32_t b = -1;          // swap partner
  PartitionId target = -1;      // move target
  double delta = 0.0;
};

}  // namespace

SaResult solve_sa(const PartitionProblem& problem, const Assignment& initial,
                  const SaOptions& options) {
  QBP_CHECK(initial.is_complete());
  QBP_CHECK(problem.is_feasible(initial))
      << "SA requires a feasible starting solution";

  const Timer timer;
  const std::int32_t n = problem.num_components();
  const std::int32_t m = problem.num_partitions();
  const DeltaEvaluator evaluator(problem);
  Rng rng(options.seed);

  Assignment current = initial;
  Placement placement(problem, current);
  placement.attach_conflicts();

  // Propose a feasible random move or swap; returns false when the draw is
  // infeasible (counts as a rejected proposal, as usual for SA).
  const auto propose = [&](Proposal& proposal) {
    proposal.is_swap = rng.next_bool(options.swap_fraction);
    if (proposal.is_swap) {
      proposal.a = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      proposal.b = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      if (proposal.a == proposal.b ||
          current[proposal.a] == current[proposal.b] ||
          !placement.swap_fits(proposal.a, proposal.b) ||
          !placement.swap_keeps_timing(proposal.a, proposal.b)) {
        return false;
      }
      proposal.delta = evaluator.swap_delta(current, proposal.a, proposal.b);
    } else {
      proposal.a = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      proposal.target =
          static_cast<PartitionId>(rng.next_below(static_cast<std::uint64_t>(m)));
      if (proposal.target == current[proposal.a] ||
          !placement.fits(proposal.a, proposal.target) ||
          placement.conflicts(proposal.a, proposal.target) != 0) {
        return false;
      }
      proposal.delta = evaluator.move_delta(current, proposal.a, proposal.target);
    }
    return true;
  };

  const auto apply = [&](const Proposal& proposal) {
    if (proposal.is_swap) {
      placement.swap(proposal.a, proposal.b);
    } else {
      placement.move(proposal.a, proposal.target);
    }
  };

  // Calibrate T0 from the mean uphill delta of a feasibility-respecting
  // random-walk sample: P(accept) = exp(-mean_uphill / T0) = target.
  double mean_uphill = 0.0;
  {
    std::int32_t uphill_samples = 0;
    Proposal probe;
    for (std::int32_t trial = 0; trial < 4 * n && uphill_samples < n; ++trial) {
      if (!propose(probe)) continue;
      if (probe.delta > 0.0) {
        mean_uphill += probe.delta;
        ++uphill_samples;
      }
    }
    mean_uphill = uphill_samples > 0 ? mean_uphill / uphill_samples : 1.0;
  }
  const double t0 =
      mean_uphill / std::max(1e-12, -std::log(kInitialAcceptance));

  SaResult result;
  result.assignment = current;
  result.objective = problem.objective(current);
  double current_objective = result.objective;

  const std::int64_t moves_per_step =
      static_cast<std::int64_t>(options.moves_per_component) * n;
  for (double temperature = t0; temperature > t0 * options.freeze_ratio;
       temperature *= kCooling) {
    if (options.stop.stop_requested()) break;
    ++result.temperature_steps;
    for (std::int64_t step = 0; step < moves_per_step; ++step) {
      ++result.proposed;
      Proposal proposal;
      if (!propose(proposal)) continue;
      const bool accept =
          proposal.delta <= 0.0 ||
          rng.next_double() < std::exp(-proposal.delta / temperature);
      if (!accept) continue;
      apply(proposal);
      ++result.accepted;
      current_objective += proposal.delta;
      if (current_objective < result.objective) {
        result.objective = current_objective;
        result.assignment = current;
      }
    }
  }

  // Exact re-evaluation (incremental deltas accumulate float error).
  result.objective = problem.objective(result.assignment);
  result.seconds = timer.seconds();
  return result;
}

}  // namespace qbp
