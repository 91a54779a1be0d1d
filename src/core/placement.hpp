// One placement state for every local search (the Burkard polish, GFM, GKL,
// SA, the core/repair legalizer, ECO's polish): a complete assignment, its
// C1 ledger and, when the caller attaches them, a DeltaEvaluator's rows and
// a ConflictTable.  move(j, to) is the one place they all change; swap(a, b)
// is the moves a -> p_b and b -> p_a.  The reads answer C1 and C2 off the
// kept state in O(1) and O(log degree), so no caller scans a component's
// timing partners per proposal.  Debug builds recount the patched conflict
// rows of every swap and of every kAuditStride-th move with
// TimingConstraints::breaks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>

#include "core/problem.hpp"
#include "timing/conflict_table.hpp"

namespace qbp {

class DeltaEvaluator;

class Placement {
 public:
  /// Wraps the complete `assignment`, which the caller keeps owning and
  /// from here on changes only through move() and swap().  `problem` and
  /// `assignment` must outlive the placement.  O(N + M).
  Placement(const PartitionProblem& problem, Assignment& assignment);

  /// Commit every later move through `rows`, whose rows must describe the
  /// wrapped assignment (DeltaEvaluator::follow).
  void attach(DeltaEvaluator& rows) noexcept { rows_ = &rows; }
  /// Count the current assignment's timing conflicts, O(nnz(Dc) * M), and
  /// keep them current for conflicts() and swap_keeps_timing().  A no-op
  /// once a table is attached: move() and swap() keep it current.
  void attach_conflicts();

  [[nodiscard]] const PartitionProblem& problem() const noexcept {
    return *problem_;
  }
  [[nodiscard]] const Assignment& assignment() const noexcept {
    return *assignment_;
  }
  [[nodiscard]] const CapacityLedger& ledger() const noexcept { return ledger_; }

  /// Would moving j to partition i keep i within capacity?
  [[nodiscard]] bool fits(std::int32_t j, PartitionId i) const noexcept {
    return ledger_.fits(i, size(j));
  }
  /// Would exchanging a's and b's partitions keep both within capacity?
  [[nodiscard]] bool swap_fits(std::int32_t a, std::int32_t b) const noexcept {
    const PartitionId pa = (*assignment_)[a];
    const PartitionId pb = (*assignment_)[b];
    return trade_fits(pa, size(a), size(b)) & trade_fits(pb, size(b), size(a));
  }

  /// a's side of swap_fits, taken once for a run of partners b: a scan
  /// tests each partner with admits(b), no branch per condition, or cuts a
  /// size-sorted run to the partners that fit with window().  Valid until
  /// the next move() or swap(); take it again after one.
  class SwapRow {
   public:
    /// Do a and b sit apart, and does swap_fits(a, b) hold?
    [[nodiscard]] bool admits(std::int32_t b) const noexcept {
      const Placement& p = *placement_;
      const PartitionId pb = (*p.assignment_)[b];
      const double sb = p.size(b);
      return (pb != part_) & within(kept_, sb, room_) &
             p.trade_fits(pb, sb, size_);
    }
    /// The run of `partners` that admits(b) accepts, for partners that all
    /// sit at one partition other than p_a, in non-decreasing size.  Both
    /// halves of swap_fits are monotone in s_b, since IEEE addition and
    /// subtraction round monotonically: a's side holds up to some size and
    /// b's side from some size on, so the accepted partners are one
    /// contiguous window, found by two binary searches with the same
    /// comparisons.  O(log |partners|).
    [[nodiscard]] std::span<const std::int32_t> window(
        std::span<const std::int32_t> partners) const {
      if (partners.empty()) return partners;
      const Placement& p = *placement_;
      const PartitionId pb = (*p.assignment_)[partners.front()];
      const auto first =
          std::partition_point(partners.begin(), partners.end(),
                               [&](std::int32_t b) {
                                 return !p.trade_fits(pb, p.size(b), size_);
                               });
      const auto last = std::partition_point(
          first, partners.end(),
          [&](std::int32_t b) { return within(kept_, p.size(b), room_); });
      return {first, last};
    }

   private:
    friend class Placement;
    SwapRow(const Placement& placement, std::int32_t a) noexcept
        : placement_(&placement),
          part_((*placement.assignment_)[a]),
          size_(placement.size(a)),
          kept_(placement.ledger_.usage(part_) - size_),
          room_(placement.room(part_)) {}

    const Placement* placement_;
    PartitionId part_;  // p_a
    double size_;       // s_a
    double kept_;       // usage(p_a) - s_a
    double room_;       // capacity(p_a) + kTolerance
  };
  [[nodiscard]] SwapRow swap_row(std::int32_t a) const noexcept {
    return SwapRow(*this, a);
  }

  /// How many of j's timing partners break with j at partition i, each
  /// where it sits now (after attach_conflicts); 0 iff j may move there alone.
  [[nodiscard]] std::int32_t conflicts(std::int32_t j, PartitionId i) const {
    return (*conflicts_)(j, i);  // NOLINT(bugprone-unchecked-optional-access)
  }
  /// Would every timing constraint of a and of b hold after they swap?  The
  /// rows of a at p_b and of b at p_a, with the a-b pair's own term
  /// corrected: each row counts the other end where it sits now, and after
  /// the swap it sits at p_a (p_b).  A non-pair's bound is infinite.
  [[nodiscard]] bool swap_keeps_timing(std::int32_t a, std::int32_t b) const {
    const PartitionId pa = (*assignment_)[a];
    const PartitionId pb = (*assignment_)[b];
    const double bound = problem_->timing().max_delay(a, b);
    const auto breaks = [&](PartitionId x, PartitionId y) {
      return TimingConstraints::breaks(problem_->topology(), x, y, bound) ? 1 : 0;
    };
    const std::int32_t apart = breaks(pa, pb);
    return conflicts(a, pb) - breaks(pb, pb) + apart == 0 &&
           conflicts(b, pa) - breaks(pa, pa) + apart == 0;
  }

  /// Move j to partition i (a no-op when j is there already).
  void move(std::int32_t j, PartitionId i);
  /// Exchange a's and b's partitions: the moves a -> p_b, then b -> p_a.
  void swap(std::int32_t a, std::int32_t b);

 private:
  static constexpr std::int64_t kAuditStride = 16;

  [[nodiscard]] double size(std::int32_t j) const noexcept {
    return sizes_[static_cast<std::size_t>(j)];
  }
  /// Does partition i stay within capacity when a component of size
  /// `leaving` leaves it and one of size `arriving` arrives?
  [[nodiscard]] bool trade_fits(PartitionId i, double leaving,
                                double arriving) const noexcept {
    return within(ledger_.usage(i) - leaving, arriving, room(i));
  }
  [[nodiscard]] double room(PartitionId i) const noexcept {
    return ledger_.capacity(i) + CapacityLedger::kTolerance;
  }
  /// The one capacity comparison of a trade: what stays plus what arrives.
  [[nodiscard]] static bool within(double kept, double arriving,
                                   double room) noexcept {
    return kept + arriving <= room;
  }

  const PartitionProblem* problem_;
  Assignment* assignment_;
  std::span<const double> sizes_;
  CapacityLedger ledger_;
  DeltaEvaluator* rows_ = nullptr;
  std::optional<ConflictTable> conflicts_;
  std::int64_t moves_ = 0;  // paces the Debug audit
};

}  // namespace qbp
