#include "timing/timing_graph.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"

namespace qbp {

TimingGraph TimingGraph::build(const Netlist& netlist,
                               std::span<const double> intrinsic_delay,
                               std::uint64_t seed) {
  const std::int32_t n = netlist.num_components();
  QBP_CHECK_EQ(static_cast<std::size_t>(n), intrinsic_delay.size());

  TimingGraph graph;
  Rng rng(seed);
  graph.rank_ = random_permutation(n, rng);

  graph.arcs_.reserve(netlist.bundles().size());
  for (const WireBundle& bundle : netlist.bundles()) {
    const bool forward = graph.rank_[static_cast<std::size_t>(bundle.a)] <
                         graph.rank_[static_cast<std::size_t>(bundle.b)];
    graph.arcs_.push_back({forward ? bundle.a : bundle.b,
                           forward ? bundle.b : bundle.a, bundle.multiplicity});
  }

  // Process components in rank order; arcs always go from lower to higher
  // rank, so a single forward sweep computes `up` and a backward sweep
  // computes `down`.
  std::vector<std::int32_t> by_rank(static_cast<std::size_t>(n));
  std::iota(by_rank.begin(), by_rank.end(), 0);
  std::sort(by_rank.begin(), by_rank.end(), [&](std::int32_t a, std::int32_t b) {
    return graph.rank_[static_cast<std::size_t>(a)] <
           graph.rank_[static_cast<std::size_t>(b)];
  });

  // Adjacency by arc (successors and predecessors).
  std::vector<std::vector<std::int32_t>> successors(static_cast<std::size_t>(n));
  std::vector<std::vector<std::int32_t>> predecessors(static_cast<std::size_t>(n));
  for (const TimingArc& arc : graph.arcs_) {
    successors[static_cast<std::size_t>(arc.from)].push_back(arc.to);
    predecessors[static_cast<std::size_t>(arc.to)].push_back(arc.from);
  }

  graph.up_.assign(static_cast<std::size_t>(n), 0.0);
  graph.down_.assign(static_cast<std::size_t>(n), 0.0);
  for (const std::int32_t v : by_rank) {
    double best = 0.0;
    for (const std::int32_t u : predecessors[static_cast<std::size_t>(v)]) {
      best = std::max(best, graph.up_[static_cast<std::size_t>(u)]);
    }
    graph.up_[static_cast<std::size_t>(v)] =
        best + intrinsic_delay[static_cast<std::size_t>(v)];
  }
  for (auto it = by_rank.rbegin(); it != by_rank.rend(); ++it) {
    const std::int32_t v = *it;
    double best = 0.0;
    for (const std::int32_t w : successors[static_cast<std::size_t>(v)]) {
      best = std::max(best, graph.down_[static_cast<std::size_t>(w)]);
    }
    graph.down_[static_cast<std::size_t>(v)] =
        best + intrinsic_delay[static_cast<std::size_t>(v)];
  }

  graph.critical_path_ = 0.0;
  for (std::int32_t v = 0; v < n; ++v) {
    graph.critical_path_ =
        std::max(graph.critical_path_, graph.up_[static_cast<std::size_t>(v)]);
  }
  return graph;
}

}  // namespace qbp
