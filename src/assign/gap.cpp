#include "assign/gap.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <queue>
#include <utility>

#include "util/check.hpp"
#include "util/prof.hpp"

namespace qbp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-12;
constexpr double kCapTolerance = 1e-9;

/// GapProblem's column-major costs as a raw view: item j's M agent costs
/// are contiguous at [j*M, (j+1)*M).  Every phase of the heuristic scans
/// per-item agent costs, so this is the cache-friendly orientation.
struct ColCost {
  const double* data = nullptr;
  std::int32_t m = 0;

  [[nodiscard]] const double* col(std::int32_t item) const noexcept {
    return data + static_cast<std::size_t>(item) * static_cast<std::size_t>(m);
  }
  [[nodiscard]] double at(std::int32_t agent, std::int32_t item) const noexcept {
    return col(item)[agent];
  }
};

struct BestPair {
  std::int32_t best_agent = -1;
  double best_cost = kInf;
  double second_cost = kInf;

  /// Regret key: how much is lost if the best agent fills up.  Items with a
  /// single feasible agent get top priority.
  [[nodiscard]] double regret() const noexcept {
    if (best_agent < 0) return -kInf;  // nothing feasible; handled separately
    if (second_cost == kInf) return 1e18;
    return second_cost - best_cost;
  }
};

/// Batched Martello-Toth profit evaluation for one item: a single contiguous
/// scan over its M-entry cost column yields best and second-best feasible
/// agents.
BestPair best_agents(const ColCost& cost, std::span<const double> sizes,
                     std::span<const double> slack, std::int32_t item) {
  BestPair best;
  const double* column = cost.col(item);
  const double size = sizes[static_cast<std::size_t>(item)];
  for (std::int32_t i = 0; i < cost.m; ++i) {
    if (slack[static_cast<std::size_t>(i)] + kCapTolerance < size) continue;
    const double c = column[i];
    if (c < best.best_cost ||
        (c == best.best_cost && best.best_agent >= 0 && i < best.best_agent)) {
      best.second_cost = best.best_cost;
      best.best_cost = c;
      best.best_agent = i;
    } else if (c < best.second_cost) {
      best.second_cost = c;
    }
  }
  return best;
}

/// Phase 3's memo of the swap scan.  Costs are fixed within one solve_gap
/// call, so a pair's swap delta depends only on its two items' agents: a
/// pair whose items both kept their agents since it was last tested keeps
/// its delta, and if that delta did not improve it still does not.  A
/// logical clock stamps each item's last agent change and each row's last
/// scan start.  A row whose own item has not moved since its last scan
/// re-tests only two kinds of partner, in ascending order: those that
/// moved since that scan, and those that scan found improving but could
/// not fit (capacities change with every move), kept in the row's refused
/// list.  The first swap pass treats every item as moved, so it scans in
/// full and pays one stamp store per move and per row.
class SwapMemo {
 public:
  SwapMemo() = default;
  explicit SwapMemo(std::int32_t n)
      : moved_at_(static_cast<std::size_t>(n), 0),
        scanned_at_(static_cast<std::size_t>(n), -1),
        refused_start_(static_cast<std::size_t>(n) + 1, 0) {}

  /// Item j changed agents.
  void moved(std::int32_t j) noexcept {
    moved_at_[static_cast<std::size_t>(j)] = ++clock_;
  }
  /// Row j1's scan swapped j1 with j2 > j1.  In a pass after the first, j2
  /// joins the moved set (j1 lies below every row still to come).
  void swapped(std::int32_t j1, std::int32_t j2) noexcept {
    moved(j1);
    moved(j2);
    if (!moved_set_.empty()) set_bit(j2);
  }

  /// Start of a swap pass after the first.  The moved set starts as every
  /// item that moved since the previous pass's first row began; an item
  /// that moved during that pass's row k leaves it as row k + 1 begins
  /// (expiring_, in move order), unless it has moved again since.
  void begin_later_pass() {
    const std::int64_t first = scanned_at_.front();
    const std::int64_t last = scanned_at_.back();
    moved_set_.assign((moved_at_.size() + 63) / 64, 0);
    expiring_.clear();
    next_expiring_ = 0;
    for (std::size_t j = 0; j < moved_at_.size(); ++j) {
      const std::int64_t at = moved_at_[j];
      if (at <= first) continue;
      set_bit(static_cast<std::int32_t>(j));
      if (at <= last) expiring_.push_back({at, static_cast<std::int32_t>(j)});
    }
    std::sort(expiring_.begin(), expiring_.end());
  }

  /// Row j1's scan starts.  Returns true when its item has not moved
  /// since its previous scan: candidates() then yields every partner it
  /// must test.  Either way the row's new refused list starts empty.
  bool begin_row(std::int32_t j1) {
    const auto row = static_cast<std::size_t>(j1);
    const std::int64_t since = scanned_at_[row];
    scanned_at_[row] = clock_;
    for (; next_expiring_ < expiring_.size() &&
           expiring_[next_expiring_].first <= since;
         ++next_expiring_) {
      const auto [at, j] = expiring_[next_expiring_];
      if (moved_at_[static_cast<std::size_t>(j)] == at) clear_bit(j);
    }
    refused_ = {refused_list_.data() + refused_start_[row],
                refused_list_.data() + refused_start_[row + 1]};
    refused_start_[row] = next_refused_.size();
    return moved_at_[row] <= since;
  }
  /// The row's candidates among items [base, base + 64), base a multiple
  /// of 64, from `from` on, one bit each: the moved set and the refused
  /// list.  Call with ascending bases.
  [[nodiscard]] std::uint64_t candidates(std::int32_t base,
                                         std::int32_t from) noexcept {
    std::uint64_t bits = moved_set_[static_cast<std::size_t>(base) / 64];
    for (; !refused_.empty() && refused_.front() < base + 64;
         refused_ = refused_.subspan(1)) {
      bits |= std::uint64_t{1} << (refused_.front() - base);
    }
    return from > base ? bits & (~std::uint64_t{0} << (from - base)) : bits;
  }
  /// The current row found `j2` improving but could not fit it.
  void refuse(std::int32_t j2) { next_refused_.push_back(j2); }
  /// End of a swap pass: this pass's refused lists become the next's.
  void end_pass() {
    refused_start_.back() = next_refused_.size();
    refused_list_.swap(next_refused_);
    next_refused_.clear();
  }

 private:
  void set_bit(std::int32_t j) noexcept {
    moved_set_[static_cast<std::size_t>(j) / 64] |= std::uint64_t{1} << (j % 64);
  }
  void clear_bit(std::int32_t j) noexcept {
    moved_set_[static_cast<std::size_t>(j) / 64] &= ~(std::uint64_t{1} << (j % 64));
  }

  std::int64_t clock_ = 0;
  std::vector<std::int64_t> moved_at_;    // per item: clock of its last move
  std::vector<std::int64_t> scanned_at_;  // per row: clock at its last scan start
  // Later passes: the items that moved since the current row's previous
  // scan began, one bit each, and the (stamp, item) moves that leave it.
  std::vector<std::uint64_t> moved_set_;
  std::vector<std::pair<std::int64_t, std::int32_t>> expiring_;
  std::size_t next_expiring_ = 0;
  // Row j's refused list of the previous pass is refused_list_[
  // refused_start_[j], refused_start_[j + 1]); each row overwrites its
  // start as it begins, after reading it, with its offset in next_refused_.
  std::vector<std::size_t> refused_start_;
  std::vector<std::int32_t> refused_list_;
  std::vector<std::int32_t> next_refused_;
  std::span<const std::int32_t> refused_;
};

/// Phase 3's bound table above the crossover.  Items fall in blocks of
/// kBlock consecutive ids and superblocks of kSuperBlock items; for each
/// block, each superblock and each agent pair (a1, a2) the table keeps the
/// least c(j, a1) - c(j, a2) over the group's items j at a2 (+inf when
/// there are none).  Swapping a row j1 at a1 with a partner j2 at a2
/// changes the cost by c(j1, a2) - c(j1, a1) + c(j2, a1) - c(j2, a2), so
/// bound() -- min over a2 of [c(j1, a2) - c(j1, a1) + least(a1, a2)] --
/// is at most every such change over the group.  Each entry is the least
/// of exact per-item values, so recomputing the column an item left and
/// folding in the column it joined keeps the table equal to a fresh build.
/// The mins drop NaN values (`v < least ? v : least`): a pair whose change
/// reads a NaN term can never pass the exact test either.
class SwapBounds {
 public:
  static constexpr std::int32_t kBlock = 64;
  static constexpr std::int32_t kSuperBlock = 8 * kBlock;

  SwapBounds() = default;
  /// O(N M + (N / kBlock) M^2).
  SwapBounds(const ColCost& cost, std::int32_t n, const std::int32_t* agent)
      : cost_(cost),
        n_(n),
        block_least_(groups(n, kBlock) * cells(), kInf),
        super_least_(groups(n, kSuperBlock) * cells(), kInf) {
    for (std::int32_t j = 0; j < n; ++j) fold(block(j / kBlock), j, agent[j]);
    for (std::size_t b = 0; b < groups(n, kBlock); ++b) {
      double* super = super_least_.data() + b / 8 * cells();
      const double* least = block_least_.data() + b * cells();
      for (std::size_t k = 0; k < cells(); ++k) {
        super[k] = least[k] < super[k] ? least[k] : super[k];
      }
    }
  }

  /// Item j left agent `from`; agent[j] holds its new agent.  Recompute
  /// the column it left in its block (a pass over the block's items) and
  /// superblock (a pass over its blocks), then fold its new column in.
  void moved(std::int32_t j, std::int32_t from, const std::int32_t* agent) {
    const std::int32_t m = cost_.m;
    const std::int32_t b = j / kBlock;
    double* least = block(b);
    for (std::int32_t a1 = 0; a1 < m; ++a1) least[a1 * m + from] = kInf;
    const std::int32_t end = std::min(n_, (b + 1) * kBlock);
    for (std::int32_t k = b * kBlock; k < end; ++k) {
      if (agent[k] == from) fold(least, k, from);
    }
    fold(least, j, agent[j]);

    const std::int32_t s = j / kSuperBlock;
    double* super = super_least_.data() + static_cast<std::size_t>(s) * cells();
    const auto last =
        std::min(static_cast<std::int32_t>(groups(n_, kBlock)), (s + 1) * 8);
    for (std::int32_t a1 = 0; a1 < m; ++a1) {
      double lowest = kInf;
      for (std::int32_t sub = s * 8; sub < last; ++sub) {
        const double v = block(sub)[a1 * m + from];
        lowest = v < lowest ? v : lowest;
      }
      super[a1 * m + from] = lowest;
    }
    fold(super, j, agent[j]);
  }

  /// The bound of block b (superblock s) for a row at a1 whose term[a2] is
  /// c(j1, a2) - c(j1, a1), +inf at a1.
  [[nodiscard]] double block_bound(std::int32_t b, std::int32_t a1,
                                   const double* term) const noexcept {
    return bound(block_least_.data() + static_cast<std::size_t>(b) * cells(),
                 a1, term);
  }
  [[nodiscard]] double super_bound(std::int32_t s, std::int32_t a1,
                                   const double* term) const noexcept {
    return bound(super_least_.data() + static_cast<std::size_t>(s) * cells(),
                 a1, term);
  }

 private:
  static std::size_t groups(std::int32_t n, std::int32_t size) noexcept {
    return static_cast<std::size_t>((n + size - 1) / size);
  }
  [[nodiscard]] std::size_t cells() const noexcept {
    return static_cast<std::size_t>(cost_.m) * static_cast<std::size_t>(cost_.m);
  }
  [[nodiscard]] double* block(std::int32_t b) noexcept {
    return block_least_.data() + static_cast<std::size_t>(b) * cells();
  }
  /// least(a1, a) = min(least(a1, a), c(j, a1) - c(j, a)) for every a1:
  /// item j at agent a joins the group.
  void fold(double* least, std::int32_t j, std::int32_t a) const noexcept {
    const std::int32_t m = cost_.m;
    const double* column = cost_.col(j);
    const double own = column[a];
    for (std::int32_t a1 = 0; a1 < m; ++a1) {
      const double v = column[a1] - own;
      double& slot = least[a1 * m + a];
      slot = v < slot ? v : slot;
    }
  }
  /// Four running minimums, so the adds and compares of consecutive agents
  /// do not wait on one another; the least of a set does not depend on the
  /// order it is taken in.
  [[nodiscard]] double bound(const double* table, std::int32_t a1,
                             const double* term) const noexcept {
    const std::int32_t m = cost_.m;
    const double* least =
        table + static_cast<std::size_t>(a1) * static_cast<std::size_t>(m);
    double lowest[4] = {kInf, kInf, kInf, kInf};
    std::int32_t a2 = 0;
    for (; a2 + 3 < m; a2 += 4) {
      for (std::int32_t k = 0; k < 4; ++k) {
        const double t = term[a2 + k] + least[a2 + k];
        lowest[k] = t < lowest[k] ? t : lowest[k];
      }
    }
    for (; a2 < m; ++a2) {
      const double t = term[a2] + least[a2];
      lowest[0] = t < lowest[0] ? t : lowest[0];
    }
    const double low01 = lowest[1] < lowest[0] ? lowest[1] : lowest[0];
    const double low23 = lowest[3] < lowest[2] ? lowest[3] : lowest[2];
    return low23 < low01 ? low23 : low01;
  }

  ColCost cost_;
  std::int32_t n_ = 0;
  std::vector<double> block_least_;  // [block][a1][a2]
  std::vector<double> super_least_;  // [superblock][a1][a2]
};

/// Phase 3 keeps a SwapBounds table instead of a SwapMemo from this many
/// items on, at up to kBoundMaxAgents agents.  A bound check costs M adds
/// and a move's upkeep O(kBlock M), and the table holds 9/8 M^2 doubles per
/// block: at M = 32 the table lost to the memo up to N = 2,400 and at M = 64
/// at every N to 3,200 (EXPERIMENTS.md, "Bounded swap scans").
constexpr std::int32_t kBoundMinItems = 1024;
constexpr std::int32_t kBoundMaxAgents = 16;

/// The margin by which a bound must clear -kEps before its group is
/// skipped.  With every |cost| <= C, the swap test's ((x + y) - z) - w and
/// the bound's (x - z) + (y - w) each round at most 9 C u and 8 C u away
/// from the real change (u = 2^-53), and the table's entries only lower the
/// bound; C 2^-47 = 64 C u covers both with room.  Above 2^1000 (or for a
/// non-finite C) sums could overflow: nothing is skipped.
double skip_threshold(std::span<const double> cost) noexcept {
  double largest = 0.0;
  for (const double c : cost) {
    const double magnitude = std::abs(c);
    largest = magnitude > largest ? magnitude : largest;
  }
  return largest <= 0x1p1000 ? -kEps + largest * 0x1p-47 : kInf;
}

/// One row j1 of the swap scan: j1's cost column with its own agent's
/// entry masked to +inf (a partner on that agent gets an infinite delta
/// instead of a branch), the row of j1's agent in the row-major costs, and
/// j1's assigned cost.
struct SwapRow {
  const double* masked;
  const double* row;
  double own;

  /// The cost change if j1 and j swapped agents, in the association of the
  /// one-pair-at-a-time walk.
  [[nodiscard]] double delta(const std::int32_t* agent, const double* assigned,
                             std::int32_t j) const noexcept {
    return ((masked[agent[j]] + row[j]) - own) - assigned[j];
  }
};

/// The first j in [from, n) whose swap with the row's item gains more than
/// kEps, or n.  The profitability test runs over four sequential/L1
/// streams, four items per branch: a block whose smallest delta misses is
/// skipped whole; otherwise (and in the tail) the first hit is found one
/// item at a time.  The running minimum keeps a NaN d0 and passes over a
/// later NaN, and a NaN minimum also leaves the block to the one-at-a-time
/// scan, so no hit is ever skipped.  Taken by value, the row stays in
/// registers across the loop.
std::int32_t first_improving(const SwapRow row, const std::int32_t* agent,
                             const double* assigned, std::int32_t from,
                             std::int32_t n) noexcept {
  std::int32_t j = from;
  for (; j + 3 < n; j += 4) {
    const double d0 = row.delta(agent, assigned, j);
    const double d1 = row.delta(agent, assigned, j + 1);
    const double d2 = row.delta(agent, assigned, j + 2);
    const double d3 = row.delta(agent, assigned, j + 3);
    double least = d0;
    least = d1 < least ? d1 : least;
    least = d2 < least ? d2 : least;
    least = d3 < least ? d3 : least;
    if (!(least >= -kEps)) break;
  }
  while (j < n && !(row.delta(agent, assigned, j) < -kEps)) ++j;
  return j;
}

}  // namespace

double gap_cost(const GapProblem& problem,
                std::span<const std::int32_t> agent_of_item) {
  double total = 0.0;
  for (std::size_t j = 0; j < agent_of_item.size(); ++j) {
    total += problem.cost_at(agent_of_item[j], static_cast<std::int32_t>(j));
  }
  return total;
}

bool gap_feasible(const GapProblem& problem,
                  std::span<const std::int32_t> agent_of_item) {
  std::vector<double> usage(problem.capacities.size(), 0.0);
  for (std::size_t j = 0; j < agent_of_item.size(); ++j) {
    usage[static_cast<std::size_t>(agent_of_item[j])] += problem.sizes[j];
  }
  for (std::size_t i = 0; i < usage.size(); ++i) {
    if (usage[i] > problem.capacities[i] + kCapTolerance) return false;
  }
  return true;
}

GapResult solve_gap(const GapProblem& problem, const GapOptions& options) {
  const std::int32_t m = problem.num_agents();
  const std::int32_t n = problem.num_items();
  QBP_CHECK_EQ(static_cast<std::size_t>(n), problem.sizes.size());
  QBP_CHECK_EQ(static_cast<std::size_t>(m), problem.capacities.size());

  const ColCost cost{problem.cost.data(), m};
  const std::span<const double> sizes(problem.sizes);

  GapResult result;
  result.agent_of_item.assign(static_cast<std::size_t>(n), -1);
  std::vector<double> slack(problem.capacities.begin(), problem.capacities.end());

  // ---- Phase 1: max-regret construction (lazy priority queue). ----
  QBP_PROF_SCOPE("gap.solve");
  {
    QBP_PROF_SCOPE("gap.construct");
    // Each entry keeps the agent its key's scan found best.
    struct HeapEntry {
      double regret;
      std::int32_t item;
      std::int32_t best_agent;
      bool operator<(const HeapEntry& other) const noexcept {
        // max-heap on regret; deterministic tie-break on the smaller item id.
        if (regret != other.regret) return regret < other.regret;
        return item > other.item;
      }
    };
    std::priority_queue<HeapEntry> heap;
    std::vector<std::int32_t> hopeless;  // no feasible agent right now
    for (std::int32_t j = 0; j < n; ++j) {
      const BestPair best = best_agents(cost, sizes, slack, j);
      if (best.best_agent < 0) {
        hopeless.push_back(j);
      } else {
        heap.push({best.regret(), j, best.best_agent});
      }
    }

    const auto assign = [&](std::int32_t item, std::int32_t agent) {
      result.agent_of_item[static_cast<std::size_t>(item)] = agent;
      slack[static_cast<std::size_t>(agent)] -=
          problem.sizes[static_cast<std::size_t>(item)];
    };

    while (!heap.empty()) {
      const HeapEntry entry = heap.top();
      heap.pop();
      const std::int32_t j = entry.item;
      if (result.agent_of_item[static_cast<std::size_t>(j)] >= 0) continue;
      // Slack only shrinks here.  While the agent this key's scan found best
      // still fits the item, a rescan keeps it best and can only raise the
      // regret (the second-best cost can only grow), and the popped key is
      // the largest, so the item goes to that agent without a rescan.
      if (!(slack[static_cast<std::size_t>(entry.best_agent)] + kCapTolerance <
            sizes[static_cast<std::size_t>(j)])) {
        assign(j, entry.best_agent);
        continue;
      }
      // Its best agent filled since this key was computed: refresh.
      const BestPair best = best_agents(cost, sizes, slack, j);
      if (best.best_agent < 0) {
        hopeless.push_back(j);
        continue;
      }
      const double fresh = best.regret();
      if (!heap.empty() && fresh + kEps < heap.top().regret) {
        heap.push({fresh, j, best.best_agent});  // someone else is more urgent now
        continue;
      }
      assign(j, best.best_agent);
    }

    // Items with no capacity-feasible agent go to the agent with the most
    // slack (cheapest such agent on ties); repair sorts it out below.
    result.construction_failures = static_cast<std::int32_t>(hopeless.size());
    for (const std::int32_t j : hopeless) {
      const double* column = cost.col(j);
      std::int32_t chosen = 0;
      for (std::int32_t i = 1; i < m; ++i) {
        const double si = slack[static_cast<std::size_t>(i)];
        const double sc = slack[static_cast<std::size_t>(chosen)];
        if (si > sc + kEps ||
            (std::abs(si - sc) <= kEps && column[i] < column[chosen])) {
          chosen = i;
        }
      }
      assign(j, chosen);
    }
  }

  // ---- Phase 2: capacity repair. ----
  // At most 8 single-item moves per item: guards against cycling on
  // infeasible instances.
  const std::int64_t repair_budget = 8 * static_cast<std::int64_t>(n);
  while (result.repair_moves < repair_budget) {
    QBP_PROF_SCOPE("gap.repair");
    // Most-overflowing agent.
    std::int32_t worst = -1;
    double worst_overflow = kCapTolerance;
    for (std::int32_t i = 0; i < m; ++i) {
      const double overflow = -slack[static_cast<std::size_t>(i)];
      if (overflow > worst_overflow) {
        worst_overflow = overflow;
        worst = i;
      }
    }
    if (worst < 0) break;  // feasible

    // Cheapest move (cost delta per unit size) out of `worst` into an agent
    // with room; if no fitting target exists, fall back to the move that
    // reduces total overflow the most.  Strict comparisons: earlier items
    // win ties.
    std::int32_t move_item = -1;
    std::int32_t move_target = -1;
    double move_score = kInf;
    std::int32_t fallback_item = -1;
    std::int32_t fallback_target = -1;
    double fallback_slack = -kInf;
    for (std::int32_t j = 0; j < n; ++j) {
      if (result.agent_of_item[static_cast<std::size_t>(j)] != worst) continue;
      const double size = problem.sizes[static_cast<std::size_t>(j)];
      const double* column = cost.col(j);
      for (std::int32_t i = 0; i < m; ++i) {
        if (i == worst) continue;
        const double target_slack = slack[static_cast<std::size_t>(i)];
        if (target_slack + kCapTolerance >= size) {
          const double delta = column[i] - column[worst];
          const double score = delta / size;
          if (score < move_score) {
            move_score = score;
            move_item = j;
            move_target = i;
          }
        } else if (target_slack > fallback_slack) {
          fallback_slack = target_slack;
          fallback_item = j;
          fallback_target = i;
        }
      }
    }
    if (move_item < 0) {
      if (fallback_item < 0) break;  // agent has no items or no other agent
      move_item = fallback_item;
      move_target = fallback_target;
    }
    const double size = problem.sizes[static_cast<std::size_t>(move_item)];
    slack[static_cast<std::size_t>(worst)] += size;
    slack[static_cast<std::size_t>(move_target)] -= size;
    result.agent_of_item[static_cast<std::size_t>(move_item)] = move_target;
    ++result.repair_moves;
  }

  // ---- Phase 3: local improvement. ----
  // The swap pass visits every item pair, so its four cost reads dominate
  // the whole solve.  Two scratch arrays turn them into sequential streams:
  // a row-major transpose (cost(a1, j2) contiguous in j2 for the scan's
  // fixed a1) and the per-item assigned cost c(agent(j), j).  Values are
  // copies of the same doubles, so results are bit-identical.  Below the
  // crossover SwapMemo leaves out, from the second pass on, the pairs that
  // cannot have changed; above it SwapBounds skips the partner blocks
  // that cannot hold an improving pair, in every pass.
  static const prof::PhaseId kSwapPairs = prof::register_phase("gap.swap_pairs");
  static const prof::PhaseId kSwapBounds =
      prof::register_phase("gap.swap_bounds");
  const bool use_bounds = options.swap_improvement && n >= kBoundMinItems &&
                          m <= kBoundMaxAgents;
  std::vector<double> row_major;
  std::vector<double> assigned_cost;
  std::vector<double> masked_column;
  std::vector<double> term;
  SwapMemo memo;
  SwapBounds bounds;
  double skip_above = kInf;
  std::int64_t swap_pairs = 0;   // pairs the swap passes tested
  std::int64_t swap_bounds = 0;  // block and superblock bounds they checked
  if (options.swap_improvement) {
    row_major.resize(static_cast<std::size_t>(m) * static_cast<std::size_t>(n));
    for (std::int32_t j = 0; j < n; ++j) {
      const double* column = cost.col(j);
      for (std::int32_t i = 0; i < m; ++i) {
        row_major[static_cast<std::size_t>(i) * static_cast<std::size_t>(n) +
                  static_cast<std::size_t>(j)] = column[i];
      }
    }
    assigned_cost.resize(static_cast<std::size_t>(n));
    masked_column.resize(static_cast<std::size_t>(m));
    if (use_bounds) {
      term.resize(static_cast<std::size_t>(m));
      bounds = SwapBounds(cost, n, result.agent_of_item.data());
      skip_above = skip_threshold(problem.cost);
    } else {
      memo = SwapMemo(n);
    }
  }
  // Both improvement passes are first-improvement walks: scan ascending
  // and commit each profitable item (or pair) as soon as it is found.
  for (int pass = 0; pass < options.improvement_passes; ++pass) {
    QBP_PROF_SCOPE("gap.improve");
    bool improved = false;
    for (std::int32_t j = 0; j < n; ++j) {
      const std::int32_t from = result.agent_of_item[static_cast<std::size_t>(j)];
      const double size = problem.sizes[static_cast<std::size_t>(j)];
      const double* column = cost.col(j);
      const double from_cost = column[from];
      std::int32_t best_to = -1;
      double best_delta = -kEps;
      for (std::int32_t i = 0; i < m; ++i) {
        if (i == from) continue;
        if (slack[static_cast<std::size_t>(i)] + kCapTolerance < size) continue;
        const double delta = column[i] - from_cost;
        if (delta < best_delta) {
          best_delta = delta;
          best_to = i;
        }
      }
      if (best_to < 0) continue;
      slack[static_cast<std::size_t>(from)] += size;
      slack[static_cast<std::size_t>(best_to)] -= size;
      result.agent_of_item[static_cast<std::size_t>(j)] = best_to;
      if (use_bounds) {
        bounds.moved(j, from, result.agent_of_item.data());
      } else if (options.swap_improvement) {
        memo.moved(j);
      }
      improved = true;
    }
    if (options.swap_improvement) {
      QBP_PROF_SCOPE("gap.improve_swap");
      if (pass > 0 && !use_bounds) memo.begin_later_pass();
      std::int32_t* agent = result.agent_of_item.data();
      for (std::int32_t j = 0; j < n; ++j) {
        assigned_cost[static_cast<std::size_t>(j)] =
            cost.col(j)[agent[j]];
      }
      // The O(N^2) pair scan is the hottest loop of the whole solver.  The
      // profitability test (first_improving) runs first, and only the rare
      // candidates pay the capacity checks.  Reordering the conjunction
      // commits the exact same swaps (the conditions are independent of
      // evaluation order), and the delta arithmetic keeps the original
      // association, so results are bit-identical.
      const double* assigned = assigned_cost.data();
      double* masked = masked_column.data();
      for (std::int32_t j1 = 0; j1 < n; ++j1) {
        const bool unmoved = !use_bounds && memo.begin_row(j1);
        const double* column1 = cost.col(j1);
        const double s1 = problem.sizes[static_cast<std::size_t>(j1)];
        // j1's agent, slack bound and scan row change only when a swap
        // fires below; cache them across the inner scan, refresh on commit.
        std::int32_t a1 = -1;
        double limit1 = 0.0;
        SwapRow row{masked, nullptr, 0.0};
        const auto take_agent = [&](std::int32_t a) {
          a1 = a;
          limit1 = slack[static_cast<std::size_t>(a1)] + s1 + kCapTolerance;
          row.row = row_major.data() +
                    static_cast<std::size_t>(a1) * static_cast<std::size_t>(n);
          row.own = column1[a1];
          for (std::int32_t i = 0; i < m; ++i) masked[i] = column1[i];
          masked[a1] = kInf;
          if (use_bounds) {
            for (std::int32_t i = 0; i < m; ++i) term[i] = column1[i] - row.own;
            term[a1] = kInf;
          }
        };
        take_agent(agent[j1]);
        // An improving pair: commit it if the capacities allow, else put it
        // on the row's refused list.
        const auto try_swap = [&](std::int32_t j2) {
          const std::int32_t a2 = agent[j2];
          const double s2 = problem.sizes[static_cast<std::size_t>(j2)];
          const bool fits =
              limit1 >= s2 &&
              slack[static_cast<std::size_t>(a2)] + s2 + kCapTolerance >= s1;
          if (!fits) {
            if (!use_bounds) memo.refuse(j2);
            return false;
          }
          const double c12 = row.row[j2];  // cost(a1, j2)
          slack[static_cast<std::size_t>(a1)] += s1 - s2;
          slack[static_cast<std::size_t>(a2)] += s2 - s1;
          agent[j1] = a2;
          agent[j2] = a1;
          assigned_cost[static_cast<std::size_t>(j1)] = column1[a2];
          assigned_cost[static_cast<std::size_t>(j2)] = c12;
          if (use_bounds) {
            bounds.moved(j1, a1, agent);
            bounds.moved(j2, a2, agent);
          } else {
            memo.swapped(j1, j2);
          }
          improved = true;
          take_agent(a2);
          return true;
        };

        // The memo's candidates, up to the first commit: j1 has moved
        // then, so the rest of the row falls back to the full scan.
        const auto memo_walk = [&] {
          const SwapRow scan = row;
          for (std::int32_t base = (j1 + 1) / 64 * 64; base < n; base += 64) {
            for (std::uint64_t bits = memo.candidates(base, j1 + 1); bits != 0;
                 bits &= bits - 1) {
              const std::int32_t j = base + std::countr_zero(bits);
              ++swap_pairs;
              if (scan.delta(agent, assigned, j) < -kEps && try_swap(j)) {
                return j + 1;
              }
            }
          }
          return n;
        };
        // The exact scan of [j2, end): a candidate the capacities reject
        // resumes the scan one past itself, as does a committed swap.
        const auto exact_scan = [&](std::int32_t j2, std::int32_t end) {
          swap_pairs += end - j2;
          for (;;) {
            j2 = first_improving(row, agent, assigned, j2, end);
            if (j2 >= end) break;
            try_swap(j2);
            ++j2;
          }
        };
        // Above the crossover: a superblock or block whose bound clears
        // -kEps by the margin holds no pair the exact test would pass, so
        // the walk skips it whole and commits and refuses what the full
        // scan does.
        const auto bounded_walk = [&] {
          std::int32_t j2 = j1 + 1;
          while (j2 < n) {
            const std::int32_t super_end =
                std::min(n, (j2 / SwapBounds::kSuperBlock + 1) *
                                SwapBounds::kSuperBlock);
            ++swap_bounds;
            if (bounds.super_bound(j2 / SwapBounds::kSuperBlock, a1,
                                   term.data()) > skip_above) {
              j2 = super_end;
              continue;
            }
            while (j2 < super_end) {
              const std::int32_t block_end = std::min(
                  n, (j2 / SwapBounds::kBlock + 1) * SwapBounds::kBlock);
              ++swap_bounds;
              if (!(bounds.block_bound(j2 / SwapBounds::kBlock, a1,
                                       term.data()) > skip_above)) {
                exact_scan(j2, block_end);
              }
              j2 = block_end;
            }
          }
        };
        if (use_bounds) {
          bounded_walk();
        } else {
          exact_scan(unmoved ? memo_walk() : j1 + 1, n);
        }
      }
      if (!use_bounds) memo.end_pass();
    }
    if (!improved) break;
  }
  prof::record_events(kSwapPairs, swap_pairs);
  prof::record_events(kSwapBounds, swap_bounds);
  result.cost = gap_cost(problem, result.agent_of_item);
  result.feasible = gap_feasible(problem, result.agent_of_item);
  return result;
}

}  // namespace qbp
