// The seven benchmark circuits of the paper's Table I, reproduced as
// synthetic instances matched to the published statistics.
//
//   ckt   # components   # wires   # timing constraints
//   ckta      339          8200          3464
//   cktb      357          3017          1325
//   cktc      545         12141         11545
//   cktd      521          6309          6009
//   ckte      380          3831          3760
//   cktf      607          4809          4683
//   cktg      472          3376          3376
//
// "In each circuit, the components correspond to functional blocks in the
// high level design and have different sizes ranging about 2 orders of
// magnitude in the same circuit.  The number of partitions is 16."
//
// Component/wire/constraint counts are hit *exactly* (tests pin this);
// sizes, connectivity locality and constraint tightness are synthesized --
// see DESIGN.md section 2 for the substitution argument.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "partition/topology.hpp"

namespace qbp {

struct CircuitPreset {
  std::string name;
  std::int32_t num_components = 0;
  std::int64_t num_wires = 0;
  std::int64_t num_timing_constraints = 0;
  std::uint64_t seed = 0;
};

/// The seven Table I presets, in paper order.
[[nodiscard]] const std::array<CircuitPreset, 7>& shihkuh_presets();

/// Lookup by name ("ckta".."cktg"); returns nullptr when unknown.
[[nodiscard]] const CircuitPreset* find_preset(const std::string& name);

struct CircuitInstance {
  /// Full problem: 16 partitions on a 4 x 4 grid, Manhattan B = D, timing
  /// constraints attached, no linear term (the tables optimize pure
  /// Manhattan wirelength).
  PartitionProblem problem;
  /// The generator's hidden placement: feasible for both C1 and C2 by
  /// construction (proof that F_R is nonempty, as Theorem 1 requires).
  Assignment hidden_placement;
  CircuitPreset preset;
};

struct CircuitConfig {
  /// Capacity headroom over the hidden placement's per-partition usage.
  double capacity_slack = 0.12;
  /// Interconnection cost metric for B (the tables use Manhattan length).
  CostKind metric = CostKind::kManhattan;
  /// Wire locality of the generator (fraction of near-placement wires).
  double locality = 0.65;
};

/// Build a full instance for a preset; deterministic in preset.seed.
[[nodiscard]] CircuitInstance make_circuit(const CircuitPreset& preset,
                                           const CircuitConfig& config = {});

/// Fixed-density scaling instance (the bench_runner scaling/vcycle sweeps):
/// N components, wires ~ 6N, timing constraints ~ 3N, M = 16 on a 4 x 4
/// Manhattan grid, capacities 15% above the generator's hidden placement.
/// Deterministic in (n, seed).
[[nodiscard]] PartitionProblem make_scaling_problem(std::int32_t n,
                                                    std::uint64_t seed);

/// Scaling instance with deliberately reducible structure (the bench_runner
/// `presolve` suite).  Built like make_scaling_problem, then ~20% of the N
/// components are replaced by reduction bait while keeping a feasible
/// placement by construction:
///   - R2 companions (~15%): tiny components wired to a host with a
///     co-location timing bound (0.5, below the grid's minimum separable
///     delay of 1), so presolve must merge them into the host;
///   - R1 stragglers (~5%): tiny timing-free pendants with one wire, so
///     presolve can fold them out with a response table;
///   - R0 macros (up to 16): components so large they fit exactly one
///     partition, forcing a fix cascade (largest first, freed capacity
///     never re-admits a smaller macro elsewhere).
/// The standard circuits reduce to nothing by design; this family is how
/// the reduction rules (and their speedup) are actually measured.
/// Deterministic in (n, seed).
[[nodiscard]] PartitionProblem make_presolve_problem(std::int32_t n,
                                                     std::uint64_t seed);

}  // namespace qbp
