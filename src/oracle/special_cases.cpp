#include "oracle/special_cases.hpp"

#include "util/check.hpp"


namespace qbp {

PartitionProblem make_qap_problem(const Matrix<std::int32_t>& flow,
                                  const Matrix<double>& distance) {
  const std::int32_t n = flow.rows();
  QBP_CHECK_EQ(flow.cols(), n);
  QBP_CHECK(distance.rows() == n && distance.cols() == n)
      << "distance matrix must be " << n << " x " << n;

  Netlist netlist("qap");
  for (std::int32_t j = 0; j < n; ++j) {
    netlist.add_component("f" + std::to_string(j), 1.0);
  }
  for (std::int32_t a = 0; a < n; ++a) {
    for (std::int32_t b = a + 1; b < n; ++b) {
      const std::int32_t traffic = flow(a, b) + flow(b, a);
      if (traffic > 0) netlist.add_wires(a, b, traffic);
    }
  }

  Matrix<double> b_matrix = distance;
  Matrix<double> d_matrix = distance;
  PartitionTopology topology = PartitionTopology::custom(
      std::move(b_matrix), std::move(d_matrix),
      std::vector<double>(static_cast<std::size_t>(n), 1.0));

  return PartitionProblem(std::move(netlist), std::move(topology),
                          TimingConstraints(n), Matrix<double>{},
                          /*alpha=*/0.0, /*beta=*/1.0);
}

PartitionProblem make_lap_problem(const Matrix<double>& cost) {
  QBP_CHECK_EQ(cost.cols(), cost.rows());
  const std::vector<double> units(static_cast<std::size_t>(cost.rows()), 1.0);
  return make_gap_problem(cost, units, units);
}

PartitionProblem make_gap_problem(const Matrix<double>& cost,
                                  std::span<const double> sizes,
                                  std::span<const double> capacities) {
  const std::int32_t m = cost.rows();
  const std::int32_t n = cost.cols();
  QBP_CHECK_EQ(static_cast<std::size_t>(n), sizes.size());
  QBP_CHECK_EQ(static_cast<std::size_t>(m), capacities.size());

  Netlist netlist("gap");
  for (std::int32_t j = 0; j < n; ++j) {
    netlist.add_component("item" + std::to_string(j),
                          sizes[static_cast<std::size_t>(j)]);
  }
  Matrix<double> zero_b(m, m, 0.0);
  Matrix<double> zero_d(m, m, 0.0);
  PartitionTopology topology = PartitionTopology::custom(
      std::move(zero_b), std::move(zero_d),
      std::vector<double>(capacities.begin(), capacities.end()));
  return PartitionProblem(std::move(netlist), std::move(topology),
                          TimingConstraints(n), cost, /*alpha=*/1.0,
                          /*beta=*/0.0);
}

}  // namespace qbp
