// Assignment of components to partitions (the paper's map A : J -> I) and a
// capacity ledger for incremental algorithms.
//
// The assignment is stored densely as `partition_of[j]`; kUnassigned marks
// components not yet placed (used while constructive heuristics run).  A
// complete assignment with no kUnassigned entries corresponds to an
// [x_ij] matrix satisfying constraint C3 (every component in exactly one
// partition) by construction.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "partition/topology.hpp"

namespace qbp {

class Assignment {
 public:
  static constexpr PartitionId kUnassigned = -1;

  Assignment() = default;
  Assignment(std::int32_t num_components, std::int32_t num_partitions)
      : partition_of_(static_cast<std::size_t>(num_components), kUnassigned),
        num_partitions_(num_partitions) {}

  /// Wrap an explicit mapping (values must be kUnassigned or in [0, M)).
  Assignment(std::vector<PartitionId> partition_of, std::int32_t num_partitions)
      : partition_of_(std::move(partition_of)), num_partitions_(num_partitions) {}

  [[nodiscard]] std::int32_t num_components() const noexcept {
    return static_cast<std::int32_t>(partition_of_.size());
  }
  [[nodiscard]] std::int32_t num_partitions() const noexcept {
    return num_partitions_;
  }

  [[nodiscard]] PartitionId operator[](std::int32_t component) const noexcept {
    return partition_of_[static_cast<std::size_t>(component)];
  }

  void set(std::int32_t component, PartitionId partition) noexcept {
    partition_of_[static_cast<std::size_t>(component)] = partition;
  }

  [[nodiscard]] bool is_complete() const noexcept;

  [[nodiscard]] std::span<const PartitionId> raw() const noexcept {
    return partition_of_;
  }

  friend bool operator==(const Assignment&, const Assignment&) = default;

 private:
  std::vector<PartitionId> partition_of_;
  std::int32_t num_partitions_ = 0;
};

/// Per-partition size usage, maintained incrementally; checks the paper's
/// C1 (capacity) constraints.
class CapacityLedger {
 public:
  CapacityLedger() = default;

  /// Build from a (possibly partial) assignment.
  CapacityLedger(const Assignment& assignment, std::span<const double> sizes,
                 std::span<const double> capacities);

  [[nodiscard]] double usage(PartitionId partition) const noexcept {
    return usage_[static_cast<std::size_t>(partition)];
  }
  [[nodiscard]] double capacity(PartitionId partition) const noexcept {
    return capacity_[static_cast<std::size_t>(partition)];
  }
  [[nodiscard]] double slack(PartitionId partition) const noexcept {
    return capacity(partition) - usage(partition);
  }

  /// Would moving a component of `size` into `partition` keep C1 satisfied?
  [[nodiscard]] bool fits(PartitionId partition, double size) const noexcept {
    return usage(partition) + size <= capacity(partition) + kTolerance;
  }

  void add(PartitionId partition, double size) noexcept {
    usage_[static_cast<std::size_t>(partition)] += size;
  }
  void remove(PartitionId partition, double size) noexcept {
    usage_[static_cast<std::size_t>(partition)] -= size;
  }

  /// Number of partitions whose usage exceeds capacity (plus tolerance).
  [[nodiscard]] std::int32_t violations() const noexcept;

  /// Floating-point slack for capacity comparisons; component sizes are
  /// O(1..100) so an absolute epsilon is appropriate.
  static constexpr double kTolerance = 1e-9;

 private:
  std::vector<double> usage_;
  std::vector<double> capacity_;
};

/// True when `assignment` is complete and satisfies the capacity
/// constraints C1 for the given sizes/capacities.
[[nodiscard]] bool satisfies_capacity(const Assignment& assignment,
                                      std::span<const double> sizes,
                                      std::span<const double> capacities);

}  // namespace qbp
