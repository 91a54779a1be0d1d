// Warm-start serving storage layer (service/cache.hpp) and the canonical
// fingerprint it is keyed by (core/fingerprint.hpp): invariance of the
// fingerprint under equivalent spellings, sensitivity to real instance
// changes, the spec-fingerprint determinism contract (threads excluded),
// LRU/eviction bookkeeping, digest edit distances, neighbor lookup, and the
// run_job cache orchestration (exact hits bit-identical, ECO warm starts
// validated against the submitted problem, cache-off equivalence).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/fingerprint.hpp"
#include "core/problem_io.hpp"
#include "netlist/netlist.hpp"
#include "service/cache.hpp"
#include "service/job.hpp"
#include "test_support.hpp"

namespace qbp::service {
namespace {

PartitionProblem cache_problem(std::uint64_t seed = 17) {
  return test::make_tiny_problem(
      {.num_components = 12, .num_partitions = 3, .seed = seed});
}

std::string problem_text(const PartitionProblem& problem) {
  std::ostringstream out;
  write_problem(out, problem);
  return out.str();
}

PartitionProblem reparse(const PartitionProblem& problem) {
  PartitionProblem out;
  std::istringstream in(problem_text(problem));
  const auto parsed = read_problem(in, out);
  EXPECT_TRUE(parsed.ok) << parsed.message;
  return out;
}

Job cache_job(const std::string& id, const PartitionProblem& problem) {
  Job job;
  job.id = id;
  job.problem_text = problem_text(problem);
  job.solver.starts = 2;
  job.solver.iterations = 40;
  job.solver.seed = 5;
  job.solver.validate = false;
  return job;
}

// ------------------------------------------------------- fingerprint ----

TEST(Fingerprint, InvariantToSerializationRoundTrip) {
  // The .qp writer rounds doubles to 6 significant digits, so canonicalize
  // the generated instance through one round trip first; every further
  // round trip must then preserve the fingerprint exactly (the property
  // the server relies on when re-serialized jobs come back).
  const PartitionProblem problem = reparse(cache_problem());
  EXPECT_TRUE(problem_fingerprint(problem) ==
              problem_fingerprint(reparse(problem)));
}

TEST(Fingerprint, InvariantToWireOrderAndSplitting) {
  const PartitionProblem problem = cache_problem();
  const std::int32_t n = problem.num_components();

  // Re-emit every merged bundle reversed and split as (m - 1) + 1.
  Netlist respelled("other_name");  // names are not part of the instance
  for (std::int32_t j = 0; j < n; ++j) {
    respelled.add_component("x" + std::to_string(j),
                            problem.netlist().component(j).size);
  }
  const auto& connections = problem.netlist().connection_matrix();
  for (std::int32_t a = n - 1; a >= 0; --a) {
    const auto neighbors = connections.row_indices(a);
    const auto weights = connections.row_values(a);
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      if (neighbors[k] <= a) continue;
      if (weights[k] > 1) {
        respelled.add_wires(neighbors[k], a, weights[k] - 1);
        respelled.add_wires(a, neighbors[k], 1);
      } else {
        respelled.add_wires(neighbors[k], a, weights[k]);
      }
    }
  }
  const PartitionProblem equivalent(std::move(respelled), problem.topology(),
                                    problem.timing(),
                                    problem.linear_cost_matrix(),
                                    problem.alpha(), problem.beta());
  EXPECT_TRUE(problem_fingerprint(problem) == problem_fingerprint(equivalent));
}

TEST(Fingerprint, InvariantToAlphaBetaFolding) {
  // PP(alpha, beta) over (P, B) is the same instance as PP(1, 1) over
  // (alpha P, beta B): the fingerprint hashes the normalized form.
  const PartitionProblem problem = test::make_tiny_problem(
      {.num_components = 10, .num_partitions = 3, .with_linear_term = true,
       .seed = 23});
  EXPECT_TRUE(problem_fingerprint(problem) ==
              problem_fingerprint(problem.normalized()));
}

TEST(Fingerprint, SensitiveToRealInstanceChanges) {
  const PartitionProblem base = cache_problem();
  const Hash128 fingerprint = problem_fingerprint(base);

  {  // one component size changes
    Netlist netlist("resized");
    for (std::int32_t j = 0; j < base.num_components(); ++j) {
      const double size = base.netlist().component(j).size;
      netlist.add_component("c" + std::to_string(j), j == 0 ? size * 2 : size);
    }
    const auto& connections = base.netlist().connection_matrix();
    for (std::int32_t a = 0; a < base.num_components(); ++a) {
      const auto neighbors = connections.row_indices(a);
      const auto weights = connections.row_values(a);
      for (std::size_t k = 0; k < neighbors.size(); ++k) {
        if (neighbors[k] <= a) continue;
        netlist.add_wires(a, neighbors[k], weights[k]);
      }
    }
    const PartitionProblem resized(std::move(netlist), base.topology(),
                                   base.timing(), base.linear_cost_matrix(),
                                   base.alpha(), base.beta());
    EXPECT_FALSE(problem_fingerprint(resized) == fingerprint);
  }
  {  // a different random instance
    EXPECT_FALSE(problem_fingerprint(cache_problem(18)) == fingerprint);
  }
}

TEST(SpecFingerprint, ExcludesThreadKnobsCoversResultShapingFields) {
  SolverSpec spec;
  spec.method = "qbp";
  spec.starts = 3;
  spec.iterations = 50;
  spec.seed = 9;
  const Hash128 base = spec_fingerprint(spec, false);

  // threads is excluded: the engine determinism contract makes results
  // bit-identical across it, so every thread count must share a key.
  SolverSpec threaded = spec;
  threaded.threads = 8;
  EXPECT_TRUE(spec_fingerprint(threaded, false) == base);

  // Every result-shaping field must change the key.
  SolverSpec changed = spec;
  changed.seed = 10;
  EXPECT_FALSE(spec_fingerprint(changed, false) == base);
  changed = spec;
  changed.iterations = 51;
  EXPECT_FALSE(spec_fingerprint(changed, false) == base);
  changed = spec;
  changed.starts = 4;
  EXPECT_FALSE(spec_fingerprint(changed, false) == base);
  changed = spec;
  changed.method = "sa";
  EXPECT_FALSE(spec_fingerprint(changed, false) == base);
  changed = spec;
  changed.presolve = !changed.presolve;
  EXPECT_FALSE(spec_fingerprint(changed, false) == base);
  changed = spec;
  changed.presolve_rules = "r0";
  EXPECT_FALSE(spec_fingerprint(changed, false) == base);
  // The rule set keys the cache, not its spelling.
  changed = spec;
  changed.presolve_rules = "rn,r2,r1,r0";
  EXPECT_TRUE(spec_fingerprint(changed, false) == base);
  EXPECT_FALSE(spec_fingerprint(spec, true) == base);  // validate resolved
}

// ------------------------------------------------------ edit distance ----

TEST(DigestEditDistance, CountsSizeCapacityAndBundleEdits) {
  const PartitionProblem base = cache_problem();
  const ProblemDigest a = make_digest(base);

  ProblemDigest b = a;
  EXPECT_EQ(digest_edit_distance(a, b, 100), 0);

  b.sizes[0] *= 0.9;
  b.sizes[3] *= 0.9;
  EXPECT_EQ(digest_edit_distance(a, b, 100), 2);

  b = a;
  b.capacities[1] += 1.0;
  EXPECT_EQ(digest_edit_distance(a, b, 100), 1);

  b = a;
  ASSERT_FALSE(b.bundles.empty());
  b.bundles[0].multiplicity += 1;  // multiplicity change: one edit
  EXPECT_EQ(digest_edit_distance(a, b, 100), 1);

  b = a;
  b.bundles.pop_back();  // dropped bundle: one edit
  EXPECT_EQ(digest_edit_distance(a, b, 100), 1);
}

TEST(DigestEditDistance, ShapeOrStructureMismatchIsOverBudget) {
  const ProblemDigest a = make_digest(cache_problem());
  ProblemDigest b = a;
  b.num_components += 1;
  EXPECT_EQ(digest_edit_distance(a, b, 10), 11);
  b = a;
  b.structure.lo ^= 1;  // different B'/D/P'/Dc
  EXPECT_EQ(digest_edit_distance(a, b, 10), 11);
}

TEST(DigestEditDistance, StopsEarlyAtTheLimit) {
  const ProblemDigest a = make_digest(cache_problem());
  ProblemDigest b = a;
  for (std::size_t j = 0; j < b.sizes.size(); ++j) b.sizes[j] *= 0.5;
  EXPECT_EQ(digest_edit_distance(a, b, 3), 4);  // limit + 1, not the total
}

// -------------------------------------------------------------- cache ----

Hash128 key_of(std::uint64_t tag) {
  Hash128 key;
  key.hi = tag;
  key.lo = ~tag;
  return key;
}

CachedSolve solve_of(double objective, bool feasible = true) {
  CachedSolve solve;
  solve.solver = "qbp";
  solve.feasible = feasible;
  solve.objective = objective;
  solve.assignment = {0, 1, 2};
  return solve;
}

TEST(SolutionCache, ExactHitsMissesAndStats) {
  SolutionCache cache(4);
  EXPECT_TRUE(cache.enabled());
  const Hash128 spec = key_of(99);
  CachedSolve out;
  EXPECT_FALSE(cache.find_exact(key_of(1), out));
  cache.insert(key_of(1), spec, ProblemDigest{}, solve_of(10.0));
  ASSERT_TRUE(cache.find_exact(key_of(1), out));
  EXPECT_DOUBLE_EQ(out.objective, 10.0);
  EXPECT_EQ(out.assignment, (std::vector<std::int32_t>{0, 1, 2}));

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.inserts, 1);
  EXPECT_EQ(stats.entries, 1);
  EXPECT_GT(stats.bytes, 0);
}

TEST(SolutionCache, EvictsLeastRecentlyUsedAtCapacity) {
  SolutionCache cache(2);
  const Hash128 spec = key_of(99);
  cache.insert(key_of(1), spec, ProblemDigest{}, solve_of(1.0));
  cache.insert(key_of(2), spec, ProblemDigest{}, solve_of(2.0));
  CachedSolve out;
  ASSERT_TRUE(cache.find_exact(key_of(1), out));  // bump 1: LRU victim is 2
  cache.insert(key_of(3), spec, ProblemDigest{}, solve_of(3.0));
  EXPECT_TRUE(cache.find_exact(key_of(1), out));
  EXPECT_FALSE(cache.find_exact(key_of(2), out));
  EXPECT_TRUE(cache.find_exact(key_of(3), out));
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.stats().entries, 2);
}

TEST(SolutionCache, ReinsertRefreshesInPlace) {
  SolutionCache cache(2);
  const Hash128 spec = key_of(99);
  cache.insert(key_of(1), spec, ProblemDigest{}, solve_of(1.0));
  cache.insert(key_of(1), spec, ProblemDigest{}, solve_of(1.5));
  EXPECT_EQ(cache.stats().entries, 1);
  CachedSolve out;
  ASSERT_TRUE(cache.find_exact(key_of(1), out));
  EXPECT_DOUBLE_EQ(out.objective, 1.5);
}

TEST(SolutionCache, ZeroCapacityDisablesEverything) {
  SolutionCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.insert(key_of(1), key_of(99), ProblemDigest{}, solve_of(1.0));
  CachedSolve out;
  EXPECT_FALSE(cache.find_exact(key_of(1), out));
  EXPECT_EQ(cache.stats().inserts, 0);
  EXPECT_EQ(cache.stats().misses, 0);  // disabled lookups don't count
}

TEST(SolutionCache, FindNearestPrefersFewestEditsSameSpecFeasibleOnly) {
  const PartitionProblem base = cache_problem();
  const ProblemDigest digest = make_digest(base);
  const Hash128 spec = key_of(99);

  ProblemDigest near = digest;
  near.sizes[0] *= 0.9;  // 1 edit
  ProblemDigest far = digest;
  far.sizes[0] *= 0.9;
  far.sizes[1] *= 0.9;
  far.sizes[2] *= 0.9;  // 3 edits

  SolutionCache cache(8);
  cache.insert(key_of(1), spec, far, solve_of(30.0));
  cache.insert(key_of(2), spec, near, solve_of(20.0));
  cache.insert(key_of(3), key_of(55), digest, solve_of(5.0));   // wrong spec
  cache.insert(key_of(4), spec, digest, solve_of(7.0, false));  // infeasible

  SolutionCache::Neighbor neighbor;
  ASSERT_TRUE(cache.find_nearest(spec, digest, 10, neighbor));
  EXPECT_EQ(neighbor.edits, 1);
  EXPECT_DOUBLE_EQ(neighbor.solve.objective, 20.0);

  // Budget below the best available distance: no neighbor.
  ASSERT_TRUE(cache.find_nearest(spec, near, 10, neighbor));
  EXPECT_EQ(neighbor.edits, 0);  // exact-twin digest short-circuits
  ProblemDigest distant = digest;
  for (std::size_t j = 0; j < 5; ++j) distant.sizes[j] *= 0.5;
  EXPECT_FALSE(cache.find_nearest(spec, distant, 1, neighbor));
}

// ----------------------------------------------------- run_job + cache ----

TEST(RunJobCache, ExactResubmissionIsBitIdenticalAndFlagged) {
  const PartitionProblem problem = cache_problem();
  SolutionCache cache(8);
  const JobResult cold = run_job(cache_job("cold", problem), &cache);
  ASSERT_EQ(cold.status, "ok");
  EXPECT_FALSE(cold.cache_hit);

  const JobResult hit = run_job(cache_job("again", problem), &cache);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.status, "ok");
  EXPECT_EQ(hit.id, "again");  // per-submission stamp, not the cached id
  EXPECT_EQ(hit.objective, cold.objective);
  EXPECT_EQ(hit.assignment, cold.assignment);
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(RunJobCache, DifferentSpecMissesTheCache) {
  const PartitionProblem problem = cache_problem();
  SolutionCache cache(8);
  ASSERT_EQ(run_job(cache_job("cold", problem), &cache).status, "ok");
  Job other = cache_job("other-seed", problem);
  other.solver.seed = 6;
  EXPECT_FALSE(run_job(other, &cache).cache_hit);
}

TEST(RunJobCache, WarmStartSolvesPerturbedResubmission) {
  const PartitionProblem base = cache_problem();
  SolutionCache cache(8);
  const JobResult cold = run_job(cache_job("cold", base), &cache);
  ASSERT_EQ(cold.status, "ok");

  // Shrink one component: same structure, one digest edit -- the canonical
  // ECO re-submission.  (Shrinking keeps the cached assignment feasible.)
  Netlist netlist("eco");
  for (std::int32_t j = 0; j < base.num_components(); ++j) {
    const double size = base.netlist().component(j).size;
    netlist.add_component("c" + std::to_string(j), j == 0 ? size * 0.5 : size);
  }
  const auto& connections = base.netlist().connection_matrix();
  for (std::int32_t a = 0; a < base.num_components(); ++a) {
    const auto neighbors = connections.row_indices(a);
    const auto weights = connections.row_values(a);
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      if (neighbors[k] <= a) continue;
      netlist.add_wires(a, neighbors[k], weights[k]);
    }
  }
  const PartitionProblem perturbed(std::move(netlist), base.topology(),
                                   base.timing(), base.linear_cost_matrix(),
                                   base.alpha(), base.beta());

  const JobResult warm = run_job(cache_job("eco", perturbed), &cache);
  ASSERT_EQ(warm.status, "ok");
  EXPECT_TRUE(warm.warm_start);
  EXPECT_EQ(warm.solver, "eco");
  EXPECT_EQ(warm.eco_edits, 1);
  EXPECT_FALSE(warm.cache_hit);
  // The unconditional acceptance gate: the warm answer is feasible for the
  // *submitted* problem and its objective was recomputed against it.
  Assignment chosen(warm.assignment, perturbed.num_partitions());
  EXPECT_TRUE(perturbed.is_feasible(chosen));
  EXPECT_DOUBLE_EQ(warm.objective, perturbed.objective(chosen));

  // The warm result was inserted: resubmitting the perturbed problem is now
  // an exact hit, bit-identical to the warm answer.
  const JobResult again = run_job(cache_job("eco-again", perturbed), &cache);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.assignment, warm.assignment);
  EXPECT_EQ(warm.starts_run, 1);
  EXPECT_EQ(warm.starts_validated, 0);

  // With validation on (a spec of its own, so a cache of its own) the warm
  // answer is shadow-audited like a portfolio start, and is the same.
  SolutionCache audited_cache(8);
  Job audited_cold = cache_job("cold-audited", base);
  audited_cold.solver.validate = true;
  ASSERT_EQ(run_job(audited_cold, &audited_cache).status, "ok");
  Job audited = cache_job("eco-audited", perturbed);
  audited.solver.validate = true;
  const JobResult audited_warm = run_job(audited, &audited_cache);
  ASSERT_EQ(audited_warm.status, "ok");
  EXPECT_TRUE(audited_warm.warm_start);
  EXPECT_EQ(audited_warm.starts_run, 1);
  EXPECT_EQ(audited_warm.starts_validated, 1);
  EXPECT_EQ(audited_warm.assignment, warm.assignment);
}

TEST(RunJobCache, CacheOffMatchesColdSolveBitForBit) {
  const PartitionProblem problem = cache_problem();
  const JobResult plain = run_job(cache_job("plain", problem));  // no cache

  SolutionCache cache(8);
  const JobResult with_cache = run_job(cache_job("cached", problem), &cache);
  EXPECT_EQ(with_cache.objective, plain.objective);
  EXPECT_EQ(with_cache.assignment, plain.assignment);

  Job opted_out = cache_job("opted-out", problem);
  opted_out.use_cache = false;
  const JobResult skipped = run_job(opted_out, &cache);
  EXPECT_FALSE(skipped.cache_hit);
  EXPECT_EQ(skipped.assignment, plain.assignment);

  SolutionCache disabled(0);
  const JobResult off = run_job(cache_job("off", problem), &disabled);
  EXPECT_FALSE(off.cache_hit);
  EXPECT_EQ(off.assignment, plain.assignment);
}

}  // namespace
}  // namespace qbp::service
