#include "timing/conflict_table.hpp"

#include <cmath>
#include <span>

#include "util/check.hpp"

namespace qbp {

namespace {

/// Adds, over every partition i, whether a constraint of `bound` breaks
/// with its ends in i and in the partition whose reach row is `reach`.
void add_breaks(std::span<std::int32_t> row, std::span<const double> reach,
                double bound) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    row[i] += static_cast<std::int32_t>(reach[i] > bound);
  }
}

}  // namespace

ConflictTable::ConflictTable(const TimingConstraints& timing,
                             const PartitionTopology& topology,
                             const Assignment& assignment)
    : timing_(&timing),
      topology_(&topology),
      reach_(topology.num_partitions(), topology.num_partitions()),
      count_(assignment.num_components(), topology.num_partitions(), 0) {
  QBP_CHECK(assignment.is_complete())
      << "the conflict table needs a complete assignment";
  // fmax(x, y) > b iff x > b or y > b, for every x and y (fmax ignores one
  // NaN, and NaN > b is false): TimingConstraints::breaks, one load a side.
  for (PartitionId a = 0; a < reach_.rows(); ++a) {
    for (PartitionId i = 0; i < reach_.cols(); ++i) {
      reach_(a, i) = std::fmax(topology.delay(a, i), topology.delay(i, a));
    }
  }
  for (std::int32_t j = 0; j < assignment.num_components(); ++j) {
    const auto partners = timing.partners(j);
    const auto bounds = timing.bounds(j);
    for (std::size_t k = 0; k < partners.size(); ++k) {
      const PartitionId at = assignment[partners[k]];
      add_breaks(count_.row(j), reach_.row(at), bounds[k]);
    }
  }
}

void ConflictTable::move(std::int32_t c, PartitionId from, PartitionId to) {
  const auto partners = timing_->partners(c);
  const auto bounds = timing_->bounds(c);
  const auto reach_s = reach_.row(from);
  const auto reach_t = reach_.row(to);
  for (std::size_t k = 0; k < partners.size(); ++k) {
    const double bound = bounds[k];
    const auto row = count_.row(partners[k]);
    for (std::size_t i = 0; i < row.size(); ++i) {
      row[i] += static_cast<std::int32_t>(reach_t[i] > bound) -
                static_cast<std::int32_t>(reach_s[i] > bound);
    }
  }
}

bool ConflictTable::partner_rows_match(const Assignment& assignment,
                                       std::int32_t mover) const {
  // Recounted with TimingConstraints::breaks itself, not the reach matrix.
  for (const std::int32_t partner : timing_->partners(mover)) {
    const auto partners = timing_->partners(partner);
    const auto bounds = timing_->bounds(partner);
    for (PartitionId i = 0; i < count_.cols(); ++i) {
      std::int32_t fresh = 0;
      for (std::size_t k = 0; k < partners.size(); ++k) {
        fresh += TimingConstraints::breaks(*topology_, i, assignment[partners[k]],
                                           bounds[k])
                     ? 1
                     : 0;
      }
      if (fresh != count_(partner, i)) return false;
    }
  }
  return true;
}

}  // namespace qbp
