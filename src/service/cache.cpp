#include "service/cache.hpp"

#include <algorithm>
#include <utility>

namespace qbp::service {

namespace {

/// Hash the instance parts the ECO path treats as immutable: normalized
/// wire costs B', delays D, nonzero linear costs P' and the sparse timing
/// bounds Dc.  Sizes, capacities and bundles are deliberately excluded --
/// those are the "edits" an ECO re-solve absorbs.
Hash128 structure_hash(const PartitionProblem& problem) {
  const std::int32_t n = problem.num_components();
  const std::int32_t m = problem.num_partitions();
  StreamHasher hasher(0x65636fULL);  // "eco"
  hasher.absorb(n);
  hasher.absorb(m);
  for (std::int32_t i1 = 0; i1 < m; ++i1) {
    for (std::int32_t i2 = 0; i2 < m; ++i2) {
      hasher.absorb(problem.beta() * problem.topology().wire_cost(i1, i2));
      hasher.absorb(problem.topology().delay(i1, i2));
    }
  }
  const auto& p = problem.linear_cost_matrix();
  if (!p.empty() && problem.alpha() != 0.0) {
    for (std::int32_t i = 0; i < m; ++i) {
      for (std::int32_t j = 0; j < n; ++j) {
        const double cost = problem.alpha() * p(i, j);
        if (cost == 0.0) continue;
        hasher.absorb(i);
        hasher.absorb(j);
        hasher.absorb(cost);
      }
    }
  }
  const auto& timing = problem.timing().matrix();
  if (timing.rows() == n) {
    for (std::int32_t j = 0; j < n; ++j) {
      const auto partners = timing.row_indices(j);
      const auto bounds = timing.row_values(j);
      for (std::size_t k = 0; k < partners.size(); ++k) {
        if (partners[k] <= j) continue;
        hasher.absorb(j);
        hasher.absorb(partners[k]);
        hasher.absorb(bounds[k]);
      }
    }
  }
  return hasher.finish();
}

}  // namespace

ProblemDigest make_digest(const PartitionProblem& problem) {
  ProblemDigest digest;
  digest.num_components = problem.num_components();
  digest.num_partitions = problem.num_partitions();
  digest.structure = structure_hash(problem);
  digest.sizes = problem.netlist().sizes();
  digest.capacities = problem.topology().capacities();
  digest.bundles = problem.netlist().bundles();
  return digest;
}

Hash128 spec_fingerprint(const SolverSpec& spec, bool effective_validate) {
  StreamHasher hasher(0x73706563ULL);  // "spec"
  hasher.absorb_bytes(spec.method);
  hasher.absorb(spec.starts);
  hasher.absorb(spec.iterations);
  hasher.absorb(spec.seed);
  hasher.absorb(static_cast<std::uint64_t>(effective_validate ? 1 : 0));
  hasher.absorb(static_cast<std::uint64_t>(spec.presolve ? 1 : 0));
  hasher.absorb(spec.presolve_rn);
  // The rule set, not its spelling: "rn,r0" and "r0,rn" solve alike.
  const PresolveOptions rules = engine::pipeline_options(spec).presolve;
  hasher.absorb(static_cast<std::uint64_t>(rules.rule_r0) |
                static_cast<std::uint64_t>(rules.rule_r1) << 1 |
                static_cast<std::uint64_t>(rules.rule_r2) << 2 |
                static_cast<std::uint64_t>(rules.rule_rn) << 3);
  // The V-cycle shape changes the answer (threads do not, so they stay
  // excluded above).
  hasher.absorb(spec.ml_levels);
  hasher.absorb(spec.ml_min_shrink);
  hasher.absorb(spec.ml_refine_passes);
  return hasher.finish();
}

Hash128 combine_keys(const Hash128& problem, const Hash128& spec) {
  StreamHasher hasher(0x6b6579ULL);  // "key"
  hasher.absorb(problem.hi);
  hasher.absorb(problem.lo);
  hasher.absorb(spec.hi);
  hasher.absorb(spec.lo);
  return hasher.finish();
}

std::int64_t digest_edit_distance(const ProblemDigest& a,
                                  const ProblemDigest& b, std::int64_t limit) {
  if (a.num_components != b.num_components ||
      a.num_partitions != b.num_partitions || !(a.structure == b.structure)) {
    return limit + 1;
  }
  std::int64_t edits = 0;
  for (std::size_t j = 0; j < a.sizes.size(); ++j) {
    if (a.sizes[j] != b.sizes[j] && ++edits > limit) return limit + 1;
  }
  for (std::size_t i = 0; i < a.capacities.size(); ++i) {
    if (a.capacities[i] != b.capacities[i] && ++edits > limit) return limit + 1;
  }
  // Bundles are sorted by (a, b); one merge scan counts the symmetric
  // difference, with a multiplicity change costing one edit.
  std::size_t ia = 0;
  std::size_t ib = 0;
  const auto pair_less = [](const WireBundle& x, const WireBundle& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  };
  while (ia < a.bundles.size() || ib < b.bundles.size()) {
    if (ia == a.bundles.size()) {
      ++ib;
      ++edits;
    } else if (ib == b.bundles.size()) {
      ++ia;
      ++edits;
    } else if (pair_less(a.bundles[ia], b.bundles[ib])) {
      ++ia;
      ++edits;
    } else if (pair_less(b.bundles[ib], a.bundles[ia])) {
      ++ib;
      ++edits;
    } else {
      if (a.bundles[ia].multiplicity != b.bundles[ib].multiplicity) ++edits;
      ++ia;
      ++ib;
    }
    if (edits > limit) return limit + 1;
  }
  return edits;
}

std::int64_t SolutionCache::entry_bytes(const Entry& entry) {
  return static_cast<std::int64_t>(
      sizeof(Entry) + entry.solve.solver.size() +
      entry.solve.assignment.size() * sizeof(std::int32_t) +
      entry.digest.sizes.size() * sizeof(double) +
      entry.digest.capacities.size() * sizeof(double) +
      entry.digest.bundles.size() * sizeof(WireBundle));
}

bool SolutionCache::find_exact(const Hash128& key, CachedSolve& out) {
  if (!enabled()) return false;
  const sync::MutexLock lock(mutex_);
  const auto found = index_.find(key);
  if (found == index_.end()) {
    ++stats_.misses;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, found->second);  // bump recency
  ++stats_.hits;
  out = found->second->solve;
  return true;
}

bool SolutionCache::find_nearest(const Hash128& spec,
                                 const ProblemDigest& digest,
                                 std::int64_t max_edits, Neighbor& out) {
  if (!enabled()) return false;
  const sync::MutexLock lock(mutex_);
  std::size_t scanned = 0;
  const Entry* best = nullptr;
  std::int64_t best_edits = max_edits + 1;
  for (const Entry& entry : lru_) {
    if (!(entry.spec == spec) ||
        entry.digest.num_components != digest.num_components ||
        entry.digest.num_partitions != digest.num_partitions) {
      continue;
    }
    if (++scanned > kNearestScanCap) break;
    // Only feasible cached solves make usable warm starts.
    if (!entry.solve.feasible) continue;
    const std::int64_t edits =
        digest_edit_distance(entry.digest, digest, best_edits - 1);
    if (edits < best_edits) {
      best = &entry;
      best_edits = edits;
      if (best_edits == 0) break;  // cannot improve (exact twin)
    }
  }
  if (best == nullptr || best_edits > max_edits) return false;
  out.solve = best->solve;
  out.edits = best_edits;
  return true;
}

void SolutionCache::insert(const Hash128& key, const Hash128& spec,
                           ProblemDigest digest, CachedSolve solve) {
  if (!enabled()) return;
  const sync::MutexLock lock(mutex_);
  if (const auto found = index_.find(key); found != index_.end()) {
    // Refresh in place (a re-solve of a cached instance, e.g. cache-off
    // then cache-on traffic): same key, same deterministic payload.
    stats_.bytes -= entry_bytes(*found->second);
    found->second->digest = std::move(digest);
    found->second->solve = std::move(solve);
    stats_.bytes += entry_bytes(*found->second);
    lru_.splice(lru_.begin(), lru_, found->second);
    ++stats_.inserts;
    return;
  }
  lru_.push_front(Entry{key, spec, std::move(digest), std::move(solve), 0});
  lru_.front().bytes = entry_bytes(lru_.front());
  stats_.bytes += lru_.front().bytes;
  index_.emplace(key, lru_.begin());
  ++stats_.entries;
  ++stats_.inserts;
  while (static_cast<std::size_t>(stats_.entries) > capacity_) {
    const Entry& victim = lru_.back();
    stats_.bytes -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    --stats_.entries;
    ++stats_.evictions;
  }
}

CacheStats SolutionCache::stats() const {
  const sync::MutexLock lock(mutex_);
  return stats_;
}

}  // namespace qbp::service
