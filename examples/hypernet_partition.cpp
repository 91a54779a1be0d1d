// Multi-pin nets end to end: build a hypergraph netlist (buses connecting
// several blocks), compare the clique and star expansion models, and
// partition both onto a 2 x 4 module array.
//
//   ./hypernet_partition [--blocks 48] [--buses 30] [--seed 5]
#include <cstdio>

#include "core/burkard.hpp"
#include "core/initial.hpp"
#include "netlist/nets.hpp"
#include "timing/constraints.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  std::int64_t blocks = 48;
  std::int64_t buses = 30;
  std::int64_t seed = 5;

  qbp::CliParser cli("hypernet_partition",
                     "partition a multi-pin-net design under clique vs star "
                     "net models");
  cli.add_int("blocks", blocks, "number of functional blocks");
  cli.add_int("buses", buses, "number of multi-pin buses");
  cli.add_int("seed", seed, "random seed");
  if (const auto exit_code = cli.run(argc, argv)) return *exit_code;

  // A design with 2-pin wires plus wide multi-pin buses.
  qbp::Rng rng(static_cast<std::uint64_t>(seed));
  qbp::HyperNetlist hyper("busdesign");
  for (std::int64_t j = 0; j < blocks; ++j) {
    hyper.add_component("blk" + std::to_string(j), rng.next_double(1.0, 6.0));
  }
  for (std::int64_t k = 0; k < buses; ++k) {
    const auto pin_count = 2 + static_cast<std::int32_t>(rng.next_below(5));
    std::vector<qbp::ComponentId> pins;
    while (static_cast<std::int32_t>(pins.size()) < pin_count) {
      const auto pin = static_cast<qbp::ComponentId>(
          rng.next_below(static_cast<std::uint64_t>(blocks)));
      if (std::find(pins.begin(), pins.end(), pin) == pins.end()) {
        pins.push_back(pin);
      }
    }
    hyper.add_net("bus" + std::to_string(k), std::move(pins),
                  static_cast<std::int32_t>(rng.next_int(1, 4)));
  }
  if (const auto message = hyper.validate(); !message.empty()) {
    std::fprintf(stderr, "invalid hypernetlist: %s\n", message.c_str());
    return 1;
  }
  std::printf("design: %d blocks, %zu buses, %lld pins total\n",
              hyper.num_components(), hyper.nets().size(),
              static_cast<long long>(hyper.total_pins()));

  for (const auto model :
       {qbp::NetExpansion::kClique, qbp::NetExpansion::kStar}) {
    qbp::Netlist flat = hyper.expand(model);
    const char* model_name =
        model == qbp::NetExpansion::kClique ? "clique" : "star";

    auto topology = qbp::PartitionTopology::grid(2, 4, qbp::CostKind::kManhattan);
    const double per_slot = flat.total_size() / 8.0 * 1.3;
    for (qbp::PartitionId i = 0; i < 8; ++i) topology.set_capacity(i, per_slot);

    qbp::PartitionProblem problem(std::move(flat), std::move(topology),
                                  qbp::TimingConstraints(hyper.num_components()));
    const auto initial = qbp::make_initial(
        problem, qbp::InitialStrategy::kQbpZeroWireCost,
        static_cast<std::uint64_t>(seed));
    qbp::BurkardOptions options;
    options.iterations = 60;
    const auto result = qbp::solve_qbp(problem, initial.assignment, options);
    if (!result.found_feasible) {
      std::printf("%-6s model: no feasible result\n", model_name);
      continue;
    }
    std::printf("%-6s model: %lld expanded pairs, start WL %.0f -> final WL "
                "%.0f (%.2f s)\n",
                model_name,
                static_cast<long long>(
                    problem.netlist().num_connected_pairs()),
                problem.wirelength(initial.assignment),
                problem.wirelength(result.best_feasible), result.seconds);
  }
  std::printf("\nnote: clique counts every pin pair (quadratic in net size), "
              "star only driver->sink pairs;\nthe models bracket the true "
              "routed wirelength of a multi-pin net.\n");
  return 0;
}
