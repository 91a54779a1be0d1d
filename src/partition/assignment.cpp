#include "partition/assignment.hpp"

#include "util/check.hpp"

namespace qbp {

bool Assignment::is_complete() const noexcept {
  for (const PartitionId p : partition_of_) {
    if (p == kUnassigned) return false;
  }
  return true;
}

CapacityLedger::CapacityLedger(const Assignment& assignment,
                               std::span<const double> sizes,
                               std::span<const double> capacities)
    : usage_(capacities.size(), 0.0),
      capacity_(capacities.begin(), capacities.end()) {
  QBP_CHECK_EQ(static_cast<std::size_t>(assignment.num_components()),
               sizes.size());
  for (std::int32_t j = 0; j < assignment.num_components(); ++j) {
    const PartitionId p = assignment[j];
    if (p != Assignment::kUnassigned) {
      usage_[static_cast<std::size_t>(p)] += sizes[static_cast<std::size_t>(j)];
    }
  }
}

std::int32_t CapacityLedger::violations() const noexcept {
  std::int32_t count = 0;
  for (std::size_t i = 0; i < usage_.size(); ++i) {
    if (usage_[i] > capacity_[i] + kTolerance) ++count;
  }
  return count;
}

bool satisfies_capacity(const Assignment& assignment,
                        std::span<const double> sizes,
                        std::span<const double> capacities) {
  if (!assignment.is_complete()) return false;
  const CapacityLedger ledger(assignment, sizes, capacities);
  return ledger.violations() == 0;
}

}  // namespace qbp
