#include "core/placement.hpp"

#include "core/delta_evaluator.hpp"
#include "util/check.hpp"

namespace qbp {

Placement::Placement(const PartitionProblem& problem, Assignment& assignment)
    : problem_(&problem),
      assignment_(&assignment),
      sizes_(problem.netlist().sizes()),
      ledger_(assignment, sizes_, problem.topology().capacities()) {}

void Placement::attach_conflicts() {
  if (conflicts_) return;
  conflicts_.emplace(problem_->timing(), problem_->topology(), *assignment_);
}

void Placement::move(std::int32_t j, PartitionId i) {
  const PartitionId from = (*assignment_)[j];
  if (from == i) return;
  ledger_.remove(from, size(j));
  ledger_.add(i, size(j));
  if (conflicts_) conflicts_->move(j, from, i);
  if (rows_ != nullptr) {
    rows_->commit_move(*assignment_, j, i);
  } else {
    assignment_->set(j, i);
  }
  ++moves_;
  QBP_DCHECK(!conflicts_ || moves_ % kAuditStride != 0 ||
             conflicts_->partner_rows_match(*assignment_, j))
      << "a move patched a conflict row away from its recount";
}

void Placement::swap(std::int32_t a, std::int32_t b) {
  const PartitionId pa = (*assignment_)[a];
  move(a, (*assignment_)[b]);
  move(b, pa);
  QBP_DCHECK(!conflicts_ || (conflicts_->partner_rows_match(*assignment_, a) &&
                             conflicts_->partner_rows_match(*assignment_, b)))
      << "a swap patched a conflict row away from its recount";
}

}  // namespace qbp
