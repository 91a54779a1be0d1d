// Whole-problem text format (".qp") and assignment files.
//
// A PartitionProblem bundles a netlist, a topology, timing constraints and
// an optional linear cost matrix; this module persists all of it in one
// line-oriented file so instances can be shipped to the CLI partitioner,
// diffed, and attached to bug reports.  Grammar ('#' starts a comment):
//
//   problem <name>
//   alpha <value>                       (default 1)
//   beta <value>                        (default 1)
//   topology grid <rows> <cols> <unit|manhattan|quadratic>
//   topology custom <M>                 (then M `bcost` and M `delay` rows)
//   bcost <i> <v_0> ... <v_{M-1}>
//   delay <i> <v_0> ... <v_{M-1}>
//   capacities <c_0> ... <c_{M-1}>
//   component <name> <size>
//   wire <a> <b> <multiplicity>
//   net <weight> <pin> <pin> [pin ...]  (clique-expanded on read)
//   netstar <weight> <pin> <pin> [...]  (star-expanded on read)
//   constraint <a> <b> <max_delay>
//   linear <i> <j> <cost>               (sparse P entries; P exists iff any)
//
// Components must precede wires/nets/constraints/linear entries; a
// topology line must precede capacities.  write_problem emits canonical
// form (grid topologies are preserved as `topology grid` when they were
// built that way and the metric is recoverable; otherwise `custom`).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/problem.hpp"

namespace qbp {

// Input caps of every problem reader: this text parser and the binary
// submit decoder (service/wire.cpp).  A hostile or corrupted input must
// fail with a descriptive message, never an allocation failure or an
// overflowed int32; the service boundary (qbpartd) reads untrusted bytes,
// so these are load-bearing, not cosmetic.  M partitions allocate two
// M x M double matrices (2 * 8 MB at the cap); wire multiplicities
// accumulate into int32 totals.
inline constexpr std::int64_t kMaxPartitions = 1024;
inline constexpr std::int64_t kMaxWireMultiplicity = 1000000000;  // 1e9
// Caps on the *totals*, not just per-line values: duplicate wire lines (and
// repeated nets over the same pins) are combined by addition in
// Netlist::finalize(), so per-pair multiplicities must stay int32-safe
// after any amount of combining.  Capping the input-wide sum at 1e9
// (< INT32_MAX) makes overflow unreachable.  The bundle cap
// bounds memory against nets with huge pin lists (a k-pin `net` expands to
// k*(k-1)/2 stored bundles).
inline constexpr std::int64_t kMaxTotalWires = kMaxWireMultiplicity;
inline constexpr std::int64_t kMaxWireBundles = 4000000;

/// Result of a parse; on failure `ok` is false and `message` holds a
/// line-numbered diagnostic.
struct ParseResult {
  bool ok = true;
  std::string message;
};

/// Parse a problem; on failure returns ok=false with a line-numbered
/// message and leaves `out` unspecified.
[[nodiscard]] ParseResult read_problem(std::istream& in, PartitionProblem& out);
[[nodiscard]] ParseResult read_problem_file(const std::string& path,
                                            PartitionProblem& out);

void write_problem(std::ostream& out, const PartitionProblem& problem);
[[nodiscard]] bool write_problem_file(const std::string& path,
                                      const PartitionProblem& problem);

/// Assignment files: one `assign <component> <partition>` line per
/// component, any order, every component exactly once.
[[nodiscard]] ParseResult read_assignment(std::istream& in,
                                          std::int32_t num_components,
                                          std::int32_t num_partitions,
                                          Assignment& out);
void write_assignment(std::ostream& out, const Assignment& assignment);
[[nodiscard]] bool write_assignment_file(const std::string& path,
                                         const Assignment& assignment);
[[nodiscard]] ParseResult read_assignment_file(const std::string& path,
                                               std::int32_t num_components,
                                               std::int32_t num_partitions,
                                               Assignment& out);

}  // namespace qbp
