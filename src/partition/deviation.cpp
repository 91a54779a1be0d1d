#include "partition/deviation.hpp"

#include "util/check.hpp"


namespace qbp {

Matrix<double> deviation_cost_matrix(const PartitionTopology& topology,
                                     std::span<const double> sizes,
                                     const Assignment& initial) {
  const std::int32_t m = topology.num_partitions();
  const std::int32_t n = initial.num_components();
  QBP_DCHECK(static_cast<std::size_t>(n) == sizes.size());
  QBP_DCHECK(initial.is_complete());
  Matrix<double> p(m, n, 0.0);
  for (std::int32_t j = 0; j < n; ++j) {
    const PartitionId home = initial[j];
    for (PartitionId i = 0; i < m; ++i) {
      p(i, j) = sizes[static_cast<std::size_t>(j)] * topology.delay(i, home);
    }
  }
  return p;
}

double total_deviation(const PartitionTopology& topology,
                       std::span<const double> sizes, const Assignment& initial,
                       const Assignment& current) {
  QBP_DCHECK(initial.num_components() == current.num_components());
  double total = 0.0;
  for (std::int32_t j = 0; j < current.num_components(); ++j) {
    total += sizes[static_cast<std::size_t>(j)] *
             topology.delay(current[j], initial[j]);
  }
  return total;
}

std::int32_t components_moved(const Assignment& initial,
                              const Assignment& current) {
  QBP_DCHECK(initial.num_components() == current.num_components());
  std::int32_t moved = 0;
  for (std::int32_t j = 0; j < current.num_components(); ++j) {
    if (initial[j] != current[j]) ++moved;
  }
  return moved;
}

}  // namespace qbp
