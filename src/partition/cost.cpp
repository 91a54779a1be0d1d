#include "partition/cost.hpp"

#include "util/check.hpp"


namespace qbp {

double wirelength(const Netlist& netlist, const PartitionTopology& topology,
                  const Assignment& assignment) {
  QBP_DCHECK(assignment.is_complete());
  double total = 0.0;
  for (const WireBundle& bundle : netlist.bundles()) {
    total += bundle.multiplicity *
             topology.wire_cost(assignment[bundle.a], assignment[bundle.b]);
  }
  return total;
}

double quadratic_cost(const Netlist& netlist, const PartitionTopology& topology,
                      const Assignment& assignment) {
  QBP_DCHECK(assignment.is_complete());
  double total = 0.0;
  for (const WireBundle& bundle : netlist.bundles()) {
    const PartitionId pa = assignment[bundle.a];
    const PartitionId pb = assignment[bundle.b];
    // a_{ab} = a_{ba} = multiplicity; the ordered double sum visits both.
    total += bundle.multiplicity *
             (topology.wire_cost(pa, pb) + topology.wire_cost(pb, pa));
  }
  return total;
}

double linear_cost(const Matrix<double>& p, const Assignment& assignment) {
  if (p.empty()) return 0.0;
  QBP_DCHECK(p.cols() == assignment.num_components());
  double total = 0.0;
  for (std::int32_t j = 0; j < assignment.num_components(); ++j) {
    const PartitionId partition = assignment[j];
    QBP_DCHECK(partition != Assignment::kUnassigned);
    total += p(partition, j);
  }
  return total;
}

double objective(const Netlist& netlist, const PartitionTopology& topology,
                 const Matrix<double>& p, double alpha, double beta,
                 const Assignment& assignment) {
  return alpha * linear_cost(p, assignment) +
         beta * quadratic_cost(netlist, topology, assignment);
}

}  // namespace qbp
