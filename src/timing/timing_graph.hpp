// Static-timing substrate.
//
// The paper says timing constraints "are driven by system cycle time and can
// be derived from the delay equations and intrinsic delay in combinational
// circuit components" but, evaluating on proprietary circuits, never shows
// that derivation.  This module supplies the missing substrate: a levelized
// combinational DAG over the netlist with per-component intrinsic delays,
// longest-path arrival/required analysis, and per-connection criticality.
// The constraint generator (timing/constraints.hpp) uses the criticality
// ranking to decide *which* pairs receive max-routing-delay constraints,
// exactly the "large number of these constraints are ... discarded; only
// critical constraints" selection of Section 5.
//
// Orientation: a netlist's wire bundles are undirected, so the graph orients
// every bundle from the lower-ranked to the higher-ranked endpoint of a
// deterministic random ranking -- acyclic by construction, with rank
// playing the role of logic depth.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace qbp {

struct TimingArc {
  ComponentId from = 0;
  ComponentId to = 0;
  std::int32_t multiplicity = 1;
};

class TimingGraph {
 public:
  /// Build from a netlist.  `intrinsic_delay[j]` is the paper's intrinsic
  /// delay of component j; `seed` fixes the rank permutation.
  static TimingGraph build(const Netlist& netlist,
                           std::span<const double> intrinsic_delay,
                           std::uint64_t seed);

  [[nodiscard]] std::int32_t num_components() const noexcept {
    return static_cast<std::int32_t>(up_.size());
  }
  [[nodiscard]] const std::vector<TimingArc>& arcs() const noexcept { return arcs_; }

  /// Topological rank of each component (a permutation of 0..N-1).
  [[nodiscard]] const std::vector<std::int32_t>& rank() const noexcept {
    return rank_;
  }

  /// Longest delay of any path ending at (and including) component j.
  [[nodiscard]] double up(ComponentId j) const noexcept {
    return up_[static_cast<std::size_t>(j)];
  }

  /// Longest delay of any path starting at (and including) component j.
  [[nodiscard]] double down(ComponentId j) const noexcept {
    return down_[static_cast<std::size_t>(j)];
  }

  /// Longest path delay through the whole graph (the critical path).
  [[nodiscard]] double critical_path() const noexcept { return critical_path_; }

  /// Longest path passing through the arc (from -> to):
  /// up(from) + down(to).  Larger = more timing-critical.
  [[nodiscard]] double arc_path_delay(const TimingArc& arc) const noexcept {
    return up(arc.from) + down(arc.to);
  }

 private:
  std::vector<TimingArc> arcs_;
  std::vector<std::int32_t> rank_;
  std::vector<double> up_;
  std::vector<double> down_;
  double critical_path_ = 0.0;
};

}  // namespace qbp
