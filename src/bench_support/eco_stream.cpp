#include "bench_support/eco_stream.hpp"

#include <algorithm>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace qbp {

PartitionProblem make_eco_variant(const PartitionProblem& base,
                                  std::uint64_t seed, std::int32_t variant,
                                  const EcoVariantConfig& config) {
  const std::int32_t n = base.num_components();
  Rng master(seed);
  Rng stream = master.fork(static_cast<std::uint64_t>(variant));

  std::vector<double> sizes = base.netlist().sizes();
  const std::int32_t size_edits = std::max<std::int32_t>(
      1, n / 64 * config.size_edits_per_64);
  for (std::int32_t k = 0; k < size_edits; ++k) {
    const auto j = static_cast<std::size_t>(
        stream.next_below(static_cast<std::uint64_t>(n)));
    sizes[j] *= config.shrink;  // shrink-only: base-feasible stays feasible
  }

  // The merged bundles (a < b, ascending), so the perturbation is
  // invariant to how the base netlist listed its wires.
  std::vector<WireBundle> bundles = base.netlist().bundles();
  if (!bundles.empty()) {
    const std::int32_t wire_edits = std::max<std::int32_t>(
        1, n / 64 * config.wire_edits_per_64);
    for (std::int32_t k = 0; k < wire_edits; ++k) {
      WireBundle& bundle = bundles[static_cast<std::size_t>(
          stream.next_below(bundles.size()))];
      const std::int32_t delta = (stream() & 1) == 0 ? 1 : -1;
      bundle.multiplicity = std::max(1, bundle.multiplicity + delta);
    }
  }

  Netlist netlist(base.netlist().name());
  for (std::int32_t j = 0; j < n; ++j) {
    netlist.add_component(base.netlist().component(j).name,
                          sizes[static_cast<std::size_t>(j)]);
  }
  for (const WireBundle& bundle : bundles) {
    netlist.add_wires(bundle.a, bundle.b, bundle.multiplicity);
  }

  return PartitionProblem(std::move(netlist), base.topology(), base.timing(),
                          base.linear_cost_matrix(), base.alpha(),
                          base.beta());
}

}  // namespace qbp
