#include "core/report.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "partition/cost.hpp"
#include "util/strings.hpp"

#include "util/check.hpp"

namespace qbp {

SolutionReport make_report(const PartitionProblem& problem,
                           const Assignment& assignment) {
  QBP_CHECK(assignment.is_complete());
  SolutionReport report;

  report.wirelength = problem.wirelength(assignment);
  report.quadratic_term =
      quadratic_cost(problem.netlist(), problem.topology(), assignment);
  report.linear_term = linear_cost(problem.linear_cost_matrix(), assignment);
  report.objective = problem.alpha() * report.linear_term +
                     problem.beta() * report.quadratic_term;

  report.capacity_ok = problem.satisfies_capacity(assignment);
  report.timing_violations =
      problem.timing().violations(assignment, problem.topology());
  report.timing_ok = report.timing_violations == 0;

  // Per-partition usage.
  const auto& sizes = problem.netlist().sizes();
  report.partitions.resize(static_cast<std::size_t>(problem.num_partitions()));
  for (PartitionId i = 0; i < problem.num_partitions(); ++i) {
    auto& usage = report.partitions[static_cast<std::size_t>(i)];
    usage.partition = i;
    usage.capacity = problem.topology().capacity(i);
  }
  for (std::int32_t j = 0; j < problem.num_components(); ++j) {
    auto& usage = report.partitions[static_cast<std::size_t>(assignment[j])];
    usage.usage += sizes[static_cast<std::size_t>(j)];
    ++usage.components;
  }

  // Wire distribution by routing distance (delay matrix).
  for (const WireBundle& bundle : problem.netlist().bundles()) {
    const double distance =
        problem.topology().delay(assignment[bundle.a], assignment[bundle.b]);
    const auto bucket = static_cast<std::size_t>(std::lround(distance));
    if (report.wires_at_distance.size() <= bucket) {
      report.wires_at_distance.resize(bucket + 1, 0);
    }
    report.wires_at_distance[bucket] += bundle.multiplicity;
  }

  // Timing slack statistics over the constrained pairs.
  report.min_timing_slack = std::numeric_limits<double>::infinity();
  report.critical_constraints = 0;
  bool any_constraint = false;
  problem.timing().matrix().for_each(
      [&](std::int32_t j1, std::int32_t j2, double bound) {
        if (j1 >= j2) return;
        any_constraint = true;
        const double used = std::max(
            problem.topology().delay(assignment[j1], assignment[j2]),
            problem.topology().delay(assignment[j2], assignment[j1]));
        const double slack = bound - used;
        report.min_timing_slack = std::min(report.min_timing_slack, slack);
        if (slack == 0.0) ++report.critical_constraints;
      });
  if (!any_constraint) report.min_timing_slack = 0.0;

  if (prof::enabled()) report.phases = prof::snapshot();
  return report;
}

std::string to_string(const SolutionReport& report) {
  std::ostringstream out;
  out << "objective " << format_double(report.objective, 1) << " (linear "
      << format_double(report.linear_term, 1) << ", quadratic "
      << format_double(report.quadratic_term, 1) << ", wirelength "
      << format_double(report.wirelength, 1) << ")\n";
  out << "capacity: " << (report.capacity_ok ? "ok" : "VIOLATED")
      << ", timing: "
      << (report.timing_ok
              ? "ok"
              : "VIOLATED (" + std::to_string(report.timing_violations) +
                    " pairs)")
      << ", min slack " << format_double(report.min_timing_slack, 2)
      << ", critical constraints " << report.critical_constraints << "\n";
  out << "partition utilization:\n";
  for (const auto& usage : report.partitions) {
    const double percent =
        usage.capacity > 0.0 ? usage.usage / usage.capacity * 100.0 : 0.0;
    out << "  " << usage.partition << ": "
        << format_double(usage.usage, 1) << " / "
        << format_double(usage.capacity, 1) << " (" << format_double(percent, 0)
        << "%), " << usage.components << " components\n";
  }
  out << "wires by routing distance:";
  for (std::size_t d = 0; d < report.wires_at_distance.size(); ++d) {
    out << " d" << d << "=" << report.wires_at_distance[d];
  }
  out << "\n";
  if (!report.phases.empty()) out << prof::to_string(report.phases);
  return out.str();
}

}  // namespace qbp
