// Bounded LRU solution cache: the storage half of warm-start serving.
//
// qbpartd traffic is dominated by re-submissions of identical or
// near-identical problems (the paper's own flagship application, Section
// 2.2.1 PP(1,0), is re-assignment after an engineering change).  The cache
// remembers finished solves keyed by the canonical instance fingerprint
// (core/fingerprint.hpp) combined with a solver-spec fingerprint, and
// supports two lookups:
//
//   find_exact    the submitted (problem, spec) pair was solved before:
//                 return the stored result verbatim.  Exact hits are
//                 bit-identical to the original solve by construction --
//                 the assignment bytes come straight out of the entry.
//   find_nearest  no exact entry, but a *structurally compatible* neighbor
//                 exists (same shape N x M, identical B'/D/P'/Dc, same
//                 spec) within a bounded edit distance over component
//                 sizes, wire bundles and capacities: return it as the
//                 warm-start seed for the ECO re-solve path (service/eco).
//
// Eviction is plain LRU over a fixed entry capacity; every entry carries a
// byte estimate so the stats surface can report resident size.  All
// operations are mutex-guarded (workers share one cache); stats counters
// are plain fields read under the same mutex.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <vector>

#include "core/fingerprint.hpp"
#include "core/problem.hpp"
#include "netlist/netlist.hpp"
#include "service/protocol.hpp"
#include "util/annotations.hpp"
#include "util/hash.hpp"

namespace qbp::service {

/// Structural digest kept per entry for the ECO diff: everything needed to
/// compute an edit distance against a submitted problem without re-reading
/// the cached instance.
struct ProblemDigest {
  std::int32_t num_components = 0;
  std::int32_t num_partitions = 0;
  /// Full canonical fingerprint (the exact-match half of the cache key).
  Hash128 fingerprint;
  /// Hash over the parts an ECO warm start cannot absorb as "edits": the
  /// normalized B', the delay matrix D, nonzero P' entries and the sparse
  /// Dc bounds.  find_nearest requires this to match exactly.
  Hash128 structure;
  std::vector<double> sizes;
  std::vector<double> capacities;
  /// Canonical merged bundles (a < b, sorted) from the connection matrix.
  std::vector<WireBundle> bundles;
};

[[nodiscard]] ProblemDigest make_digest(const PartitionProblem& problem);

/// Fingerprint of the solve configuration that shapes the *result*:
/// method, starts, iterations, seed, the presolve switch, RN threshold and
/// rule set (as a set: the order of presolve_rules does not matter), the
/// V-cycle shape and the resolved validate flag.  threads is excluded --
/// the engine's determinism contract makes results bit-identical across
/// it.
[[nodiscard]] Hash128 spec_fingerprint(const SolverSpec& spec,
                                       bool effective_validate);

/// The exact-match cache key: problem fingerprint x spec fingerprint.
[[nodiscard]] Hash128 combine_keys(const Hash128& problem,
                                   const Hash128& spec);

/// Edit distance between two same-shape digests: differing component
/// sizes + differing capacities + symmetric difference of the canonical
/// bundle lists (a multiplicity change counts one edit).  Returns
/// `limit + 1` as soon as the running count exceeds `limit`, and for
/// digests whose shape or structure hash differ.
[[nodiscard]] std::int64_t digest_edit_distance(const ProblemDigest& a,
                                                const ProblemDigest& b,
                                                std::int64_t limit);

/// The result payload a cache entry stores: everything run_job needs to
/// reconstruct a JobResult (id/queue_wait/solve_s are per-submission and
/// stamped fresh on a hit).
struct CachedSolve {
  std::string solver;
  bool feasible = false;
  double objective = 0.0;
  double best_penalized = 0.0;
  std::vector<std::int32_t> assignment;
  std::int32_t starts_run = 0;
  std::int32_t starts_validated = 0;
  std::int32_t presolve_r0 = 0;
  std::int32_t presolve_r1 = 0;
  std::int32_t presolve_r2 = 0;
  std::int32_t presolve_rn = 0;
  std::int32_t presolve_removed = 0;
  double presolve_s = 0.0;
};

struct CacheStats {
  std::int64_t hits = 0;       // exact-key lookups that found an entry
  std::int64_t misses = 0;     // exact-key lookups that found none
  std::int64_t evictions = 0;  // entries displaced by LRU pressure
  std::int64_t inserts = 0;    // successful insert/update calls
  std::int64_t entries = 0;    // resident entries
  std::int64_t bytes = 0;      // estimated resident payload bytes
};

class SolutionCache {
 public:
  /// `capacity` is an entry count; 0 disables the cache entirely (every
  /// lookup misses without touching stats, inserts are dropped).
  explicit SolutionCache(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] bool enabled() const noexcept { return capacity_ > 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Exact lookup; bumps the entry's recency and the hit/miss counters.
  [[nodiscard]] bool find_exact(const Hash128& key, CachedSolve& out);

  struct Neighbor {
    CachedSolve solve;
    std::int64_t edits = 0;
  };

  /// Best structurally-compatible entry for `digest` under `max_edits`,
  /// restricted to entries solved with the same spec fingerprint.  Scans
  /// most-recent-first, capped at kNearestScanCap candidates.  Does not
  /// touch hit/miss counters (the ECO layer accounts warm starts itself).
  [[nodiscard]] bool find_nearest(const Hash128& spec,
                                  const ProblemDigest& digest,
                                  std::int64_t max_edits, Neighbor& out);

  /// Insert or refresh the entry under `key`; evicts LRU entries above
  /// capacity.
  void insert(const Hash128& key, const Hash128& spec, ProblemDigest digest,
              CachedSolve solve);

  [[nodiscard]] CacheStats stats() const;

  /// Default ECO edit budget for an N-component instance.
  [[nodiscard]] static std::int64_t default_edit_budget(
      std::int32_t num_components) {
    return std::max<std::int64_t>(64, num_components / 8);
  }

  /// Bound on how many same-spec entries one find_nearest call diffs.
  static constexpr std::size_t kNearestScanCap = 32;

 private:
  struct Entry {
    Hash128 key;
    Hash128 spec;
    ProblemDigest digest;
    CachedSolve solve;
    std::int64_t bytes = 0;
  };

  static std::int64_t entry_bytes(const Entry& entry);

  mutable sync::Mutex mutex_;
  std::size_t capacity_ = 0;  // immutable after construction
  // front = most recently used
  std::list<Entry> lru_ QBP_GUARDED_BY(mutex_);
  std::map<Hash128, std::list<Entry>::iterator> index_ QBP_GUARDED_BY(mutex_);
  // entries/bytes mirror lru_; counters monotone
  CacheStats stats_ QBP_GUARDED_BY(mutex_);
};

}  // namespace qbp::service
