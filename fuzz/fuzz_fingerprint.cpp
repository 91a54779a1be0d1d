// Fuzz target for the canonical instance fingerprint (core/fingerprint.hpp)
// -- the cache key of warm-start serving.  A fingerprint that drifts across
// equivalent spellings of one instance silently turns cache hits into
// misses; one that collides across *different* instances would serve a
// wrong cached answer.  This target attacks the first failure mode:
//
// Properties checked on every accepted .qp input:
//   * serializer round-trip: write_problem -> read_problem yields the same
//     fingerprint (the daemon fingerprints what it parsed, so a formatting
//     change between producer and consumer must not change the key);
//   * duplicate-wire normalization: rebuilding the netlist with every
//     bundle's wires re-emitted in reverse order and split as
//     (multiplicity - 1) + 1 yields the same fingerprint -- the hash reads
//     the merged connection matrix, not the submission order;
//   * self-consistency: fingerprinting twice yields identical bits (no
//     hidden state in the streaming hasher).
//
// Build modes (fuzz/CMakeLists.txt): libFuzzer under QBPART_SANITIZE=fuzzer,
// a corpus-replay main otherwise (also registered as a ctest regression
// test over fuzz/corpus/fingerprint/).
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/fingerprint.hpp"
#include "core/problem_io.hpp"
#include "netlist/netlist.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  qbp::PartitionProblem problem;
  {
    std::istringstream in(text);
    if (const auto parsed = qbp::read_problem(in, problem); !parsed.ok) {
      return 0;  // rejected with a message: the expected hostile-input path
    }
  }

  const qbp::Hash128 fingerprint = qbp::problem_fingerprint(problem);
  if (!(qbp::problem_fingerprint(problem) == fingerprint)) {
    std::abort();  // fingerprinting must be a pure function of the problem
  }

  {
    std::ostringstream serialized;
    qbp::write_problem(serialized, problem);
    qbp::PartitionProblem reparsed;
    std::istringstream in(serialized.str());
    if (const auto parsed = qbp::read_problem(in, reparsed); !parsed.ok) {
      std::abort();  // an accepted problem must serialize to parseable text
    }
    if (!(qbp::problem_fingerprint(reparsed) == fingerprint)) {
      std::abort();  // round-trip through .qp text changed the cache key
    }
  }

  // Re-spell the wire list: rebuild the netlist emitting its merged
  // bundles in reverse order with each bundle of multiplicity m split into
  // (m - 1) + 1.  The connection matrix -- and therefore the fingerprint --
  // must not notice.
  {
    const std::int32_t n = problem.num_components();
    const std::vector<qbp::WireBundle>& bundles = problem.netlist().bundles();

    qbp::Netlist respelled("respelled");  // names are not fingerprinted
    for (std::int32_t j = 0; j < n; ++j) {
      respelled.add_component(problem.netlist().component(j).name,
                              problem.netlist().component(j).size);
    }
    for (auto it = bundles.rbegin(); it != bundles.rend(); ++it) {
      if (it->multiplicity > 1) {
        respelled.add_wires(it->b, it->a, it->multiplicity - 1);
        respelled.add_wires(it->a, it->b, 1);
      } else {
        respelled.add_wires(it->b, it->a, it->multiplicity);
      }
    }
    const qbp::PartitionProblem equivalent(
        std::move(respelled), problem.topology(), problem.timing(),
        problem.linear_cost_matrix(), problem.alpha(), problem.beta());
    if (!(qbp::problem_fingerprint(equivalent) == fingerprint)) {
      std::abort();  // wire-order/split normalization leaked into the key
    }
  }
  return 0;
}
