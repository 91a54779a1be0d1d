#include "timing/constraints.hpp"

#include <algorithm>
#include <cmath>

#include "timing/timing_graph.hpp"
#include "util/rng.hpp"

#include "util/check.hpp"

namespace qbp {

void TimingConstraints::add(ComponentId j1, ComponentId j2, double max_delay) {
  // Boundary checks stay on in release: constraints arrive from parsed
  // problem files and the service protocol.
  QBP_CHECK_NE(j1, j2) << "a timing constraint needs two distinct components";
  QBP_CHECK(j1 >= 0 && j1 < num_components_ && j2 >= 0 && j2 < num_components_)
      << "constraint endpoints (" << j1 << ", " << j2 << ") outside [0, "
      << num_components_ << ")";
  QBP_CHECK(max_delay >= 0.0 && std::isfinite(max_delay))
      << "constraint bound must be finite and non-negative, got " << max_delay;
  if (j1 > j2) std::swap(j1, j2);
  pairs_.push_back({j1, j2, max_delay});
  finalized_ = false;
}

void TimingConstraints::finalize() {
  if (finalized_) return;
  // Duplicate pairs keep the tightest bound; the pairs are left merged
  // and ascending by (j1, j2).
  matrix_ = Csr<double>::from_symmetric_pairs(
      num_components_, pairs_,
      [](Triplet<double>& kept, const Triplet<double>& other) {
        kept.value = std::min(kept.value, other.value);
      });
  finalized_ = true;
}

std::int64_t TimingConstraints::violations(const Assignment& assignment,
                                           const PartitionTopology& topology) const {
  std::int64_t violated = 0;
  matrix().for_each([&](std::int32_t j1, std::int32_t j2, double bound) {
    if (j1 >= j2) return;  // visit each unordered pair once
    const PartitionId p1 = assignment[j1];
    const PartitionId p2 = assignment[j2];
    if (p1 == Assignment::kUnassigned || p2 == Assignment::kUnassigned) return;
    if (breaks(topology, p1, p2, bound)) ++violated;
  });
  return violated;
}

bool TimingConstraints::component_feasible_at(const Assignment& assignment,
                                              const PartitionTopology& topology,
                                              ComponentId component,
                                              PartitionId target) const {
  return component_feasible_at(assignment, topology, component, target,
                               component, target);
}

bool TimingConstraints::component_feasible_at(
    const Assignment& assignment, const PartitionTopology& topology,
    ComponentId component, PartitionId target, ComponentId override_component,
    PartitionId override_partition) const {
  const auto partner_ids = partners(component);
  const auto partner_bounds = bounds(component);
  for (std::size_t k = 0; k < partner_ids.size(); ++k) {
    const ComponentId partner = partner_ids[k];
    PartitionId partner_partition = partner == override_component
                                        ? override_partition
                                        : assignment[partner];
    if (partner == component) partner_partition = target;  // defensive; no self pairs
    if (partner_partition == Assignment::kUnassigned) continue;
    if (breaks(topology, target, partner_partition, partner_bounds[k])) {
      return false;
    }
  }
  return true;
}

TimingConstraints generate_timing_constraints(
    const Netlist& netlist, std::span<const std::int32_t> reference,
    const PartitionTopology& topology, const TimingSpec& spec) {
  const std::int32_t n = netlist.num_components();
  QBP_CHECK_EQ(static_cast<std::size_t>(n), reference.size());
  QBP_CHECK_LE(spec.target_count, static_cast<std::int64_t>(n) * (n - 1) / 2);

  Rng rng(spec.seed);
  Rng delay_rng = rng.fork(11);
  Rng margin_rng = rng.fork(12);
  Rng fill_rng = rng.fork(13);

  std::vector<double> intrinsic(static_cast<std::size_t>(n));
  for (auto& d : intrinsic) d = delay_rng.next_double(spec.delay_min, spec.delay_max);
  const TimingGraph graph = TimingGraph::build(netlist, intrinsic, spec.seed ^ 0x51edu);

  struct Candidate {
    ComponentId a;
    ComponentId b;
    double criticality;  // longest path through the pair; larger = hotter
  };
  std::vector<Candidate> candidates;
  candidates.reserve(graph.arcs().size());
  for (const TimingArc& arc : graph.arcs()) {
    candidates.push_back({std::min(arc.from, arc.to), std::max(arc.from, arc.to),
                          graph.arc_path_delay(arc)});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& x, const Candidate& y) {
              if (x.criticality != y.criticality) return x.criticality > y.criticality;
              return x.a != y.a ? x.a < y.a : x.b < y.b;
            });

  // Membership check for "pair already selected or connected".
  const auto& adjacency = netlist.connection_matrix();
  TimingConstraints constraints(n);
  std::int64_t selected = 0;

  const auto margin_of = [&]() -> double {
    const double ticket = margin_rng.next_double();
    if (ticket < spec.margin_p1) return 1.0;
    if (ticket < spec.margin_p1 + spec.margin_p2) return 2.0;
    return 3.0;
  };

  const auto select_pair = [&](ComponentId a, ComponentId b) {
    const double base = topology.delay(reference[static_cast<std::size_t>(a)],
                                       reference[static_cast<std::size_t>(b)]);
    // Floor at 1: a bound of 0 would force exact co-location, which real
    // inter-module delay budgets do not do (driving distinct components
    // into one slot is a placement decision, not a timing constraint).
    constraints.add(a, b, std::max(1.0, base + margin_of()));
    ++selected;
  };

  std::vector<std::pair<ComponentId, ComponentId>> chosen;
  chosen.reserve(static_cast<std::size_t>(spec.target_count));
  const auto already_chosen = [&](ComponentId a, ComponentId b) {
    if (a > b) std::swap(a, b);
    return std::binary_search(chosen.begin(), chosen.end(), std::make_pair(a, b));
  };
  const auto mark_chosen = [&](ComponentId a, ComponentId b) {
    if (a > b) std::swap(a, b);
    chosen.insert(std::lower_bound(chosen.begin(), chosen.end(),
                                   std::make_pair(a, b)),
                  std::make_pair(a, b));
  };

  // Phase 1: most critical connected pairs.
  for (const Candidate& candidate : candidates) {
    if (selected >= spec.target_count) break;
    if (already_chosen(candidate.a, candidate.b)) continue;
    mark_chosen(candidate.a, candidate.b);
    select_pair(candidate.a, candidate.b);
  }

  // Phase 2: 2-hop pairs (components sharing a neighbor), hottest hubs first.
  if (selected < spec.target_count) {
    std::vector<std::int32_t> hubs(static_cast<std::size_t>(n));
    for (std::int32_t j = 0; j < n; ++j) hubs[static_cast<std::size_t>(j)] = j;
    std::sort(hubs.begin(), hubs.end(), [&](std::int32_t x, std::int32_t y) {
      const double cx = graph.up(x) + graph.down(x);
      const double cy = graph.up(y) + graph.down(y);
      return cx != cy ? cx > cy : x < y;
    });
    for (const std::int32_t hub : hubs) {
      if (selected >= spec.target_count) break;
      const auto neighbors = adjacency.row_indices(hub);
      for (std::size_t x = 0; x < neighbors.size() && selected < spec.target_count;
           ++x) {
        for (std::size_t y = x + 1;
             y < neighbors.size() && selected < spec.target_count; ++y) {
          const ComponentId a = neighbors[x];
          const ComponentId b = neighbors[y];
          if (a == b || already_chosen(a, b)) continue;
          mark_chosen(a, b);
          select_pair(a, b);
        }
      }
    }
  }

  // Phase 3 (degenerate specs only): random unrelated pairs.
  while (selected < spec.target_count) {
    const auto a = static_cast<ComponentId>(
        fill_rng.next_below(static_cast<std::uint64_t>(n)));
    const auto b = static_cast<ComponentId>(
        fill_rng.next_below(static_cast<std::uint64_t>(n)));
    if (a == b || already_chosen(a, b)) continue;
    mark_chosen(a, b);
    select_pair(a, b);
  }

  constraints.finalize();
  QBP_CHECK_EQ(constraints.count(), spec.target_count);
  return constraints;
}

}  // namespace qbp
