#include "service/job.hpp"

#include <exception>
#include <istream>
#include <memory>
#include <optional>
#include <streambuf>
#include <utility>

#include "core/fingerprint.hpp"
#include "core/problem_io.hpp"
#include "core/validate.hpp"
#include "engine/portfolio.hpp"
#include "engine/spec.hpp"
#include "partition/deviation.hpp"
#include "service/cache.hpp"
#include "service/eco.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace qbp::service {

namespace {

JobResult error_result(const Job& job, std::string reason) {
  JobResult result;
  result.id = job.id;
  result.status = "error";
  result.reason = std::move(reason);
  return result;
}

/// Read-only streambuf over the job's problem text.  read_problem consumes
/// an std::istream; going through this instead of istringstream avoids
/// copying the full problem text once per job.
class TextBuf : public std::streambuf {
 public:
  explicit TextBuf(const std::string& text) {
    // std::streambuf needs char*; the get area is never written through.
    char* base = const_cast<char*>(text.data());
    setg(base, base, base + text.size());
  }
};

CachedSolve to_cached(const JobResult& result) {
  CachedSolve cached;
  cached.solver = result.solver;
  cached.feasible = result.feasible;
  cached.objective = result.objective;
  cached.best_penalized = result.best_penalized;
  cached.assignment = result.assignment;
  cached.starts_run = result.starts_run;
  cached.starts_validated = result.starts_validated;
  cached.presolve_r0 = result.presolve_r0;
  cached.presolve_r1 = result.presolve_r1;
  cached.presolve_r2 = result.presolve_r2;
  cached.presolve_rn = result.presolve_rn;
  cached.presolve_removed = result.presolve_removed;
  cached.presolve_s = result.presolve_s;
  return cached;
}

/// Reconstruct a JobResult from a cache entry: stored payload verbatim
/// (assignment bytes included -- the bit-identical guarantee), fresh
/// per-submission stamps.
JobResult from_cached(const Job& job, const CachedSolve& cached) {
  JobResult result;
  result.id = job.id;
  result.status = cached.feasible ? "ok" : "infeasible";
  result.solver = cached.solver;
  result.feasible = cached.feasible;
  result.objective = cached.objective;
  result.best_penalized = cached.best_penalized;
  result.assignment = cached.assignment;
  result.starts_run = cached.starts_run;
  result.starts_validated = cached.starts_validated;
  result.presolve_r0 = cached.presolve_r0;
  result.presolve_r1 = cached.presolve_r1;
  result.presolve_r2 = cached.presolve_r2;
  result.presolve_rn = cached.presolve_rn;
  result.presolve_removed = cached.presolve_removed;
  result.presolve_s = cached.presolve_s;
  result.cache_hit = true;
  return result;
}

/// The ECO warm re-solve: polish the cached neighbor's assignment against
/// the submitted problem and accept only a fully re-validated feasible
/// answer.  Returns false (leaving `out` untouched) whenever anything --
/// shape mismatch, interruption, infeasible repair, failed validation --
/// suggests the cold path should run instead.
bool try_warm_solve(const Job& job, const PartitionProblem& problem,
                    const SolutionCache::Neighbor& neighbor, JobResult& out) {
  const std::int32_t n = problem.num_components();
  if (static_cast<std::int32_t>(neighbor.solve.assignment.size()) != n) {
    return false;
  }
  Assignment seed(neighbor.solve.assignment, problem.num_partitions());

  // The walk's seed is the one a cold portfolio's start 0 would get.
  const std::uint64_t walk_seed = engine::start_stream(job.solver.seed, 0)();
  engine::SolverResult best;
  try {
    best = eco_resolve(problem, seed, walk_seed, job.stop_token());
    if (job.solver.validate.value_or(validation_enabled())) {
      engine::audit_result(problem, kPaperPenalty, best,
                           "shadow validation failed for the warm start (eco)");
    }
  } catch (const std::exception& failure) {
    log::warn("job ", job.id, ": warm solve failed (", failure.what(),
              "), falling back to cold");
    return false;
  }
  // Interrupted (deadline/cancel): let the cold path produce the status.
  if (job.cause() != StopCause::kNone) return false;
  if (!best.found_feasible || best.cancelled) return false;

  // Unconditional acceptance gate, independent of the validate flag: the
  // warm answer must be feasible for the *submitted* problem and its
  // objective is recomputed from scratch.  A warm start may only ever cost
  // latency, never correctness.
  const Assignment& chosen = best.best_feasible;
  if (!chosen.is_complete() || !problem.is_feasible(chosen)) return false;

  out = JobResult{};
  out.id = job.id;
  out.status = "ok";
  out.solver = best.solver;
  out.feasible = true;
  out.objective = problem.objective(chosen);
  out.best_penalized = best.best_penalized;
  out.assignment.reserve(static_cast<std::size_t>(n));
  for (std::int32_t j = 0; j < n; ++j) out.assignment.push_back(chosen[j]);
  out.starts_run = 1;
  out.starts_validated = best.validated ? 1 : 0;
  out.warm_start = true;
  out.eco_edits = static_cast<std::int32_t>(neighbor.edits);
  out.eco_repairs = components_moved(seed, chosen);
  return true;
}

}  // namespace

JobResult run_job(const Job& job) { return run_job(job, nullptr); }

JobResult run_job(const Job& job, SolutionCache* cache) {
  const Timer timer;

  // Binary submits arrive pre-parsed (service/wire.hpp kProblemStruct);
  // everything below sees the same value-identical instance either way.
  PartitionProblem parsed;
  if (job.problem == nullptr) {
    try {
      TextBuf buffer(job.problem_text);
      std::istream in(&buffer);
      if (const auto status = read_problem(in, parsed); !status.ok) {
        return error_result(job, "problem parse failed: " + status.message);
      }
    } catch (const std::exception& failure) {
      // Under the daemon's throw fail mode a contract violation at the parse
      // boundary (netlist/csr/timing construction) surfaces here as
      // qbp::ContractViolation: the job fails with a descriptive reason, the
      // server survives.
      return error_result(job,
                          std::string("problem rejected: ") + failure.what());
    }
  }
  const PartitionProblem& problem =
      job.problem != nullptr ? *job.problem : parsed;

  // Cache lookup: exact fingerprint hit first, then the ECO neighbor path.
  const bool use_cache =
      cache != nullptr && cache->enabled() && job.use_cache;
  Hash128 cache_key;
  Hash128 spec_fp;
  // Computed at most once per job: the warm-start lookup and the cold-path
  // insert share the same digest (it used to be rebuilt for the insert).
  std::optional<ProblemDigest> digest;
  if (use_cache) {
    const bool effective_validate =
        job.solver.validate.value_or(validation_enabled());
    spec_fp = spec_fingerprint(job.solver, effective_validate);
    cache_key = combine_keys(problem_fingerprint(problem), spec_fp);
    CachedSolve hit;
    if (cache->find_exact(cache_key, hit)) {
      JobResult result = from_cached(job, hit);
      result.solve_s = timer.seconds();
      log::info("job ", job.id, ": cache hit, objective=", result.objective);
      return result;
    }
    if (job.warm_start) {
      digest = make_digest(problem);
      SolutionCache::Neighbor neighbor;
      if (cache->find_nearest(spec_fp, *digest,
                              SolutionCache::default_edit_budget(
                                  problem.num_components()),
                              neighbor)) {
        JobResult warm;
        if (try_warm_solve(job, problem, neighbor, warm)) {
          warm.solve_s = timer.seconds();
          cache->insert(cache_key, spec_fp, std::move(*digest),
                        to_cached(warm));
          log::info("job ", job.id, ": warm start (", neighbor.edits,
                    " edits, ", warm.eco_repairs,
                    " repairs), objective=", warm.objective,
                    " solve_s=", warm.solve_s);
          return warm;
        }
      }
    }
  }

  const auto solver = engine::make_solver(job.solver);
  if (solver == nullptr) {
    return error_result(job, "unknown solver method '" + job.solver.method +
                                 "' (qbp|multilevel|gfm|gkl|sa)");
  }

  engine::PipelineOptions options = engine::pipeline_options(job.solver);
  options.portfolio.keep_start_results = false;
  options.portfolio.stop = job.stop_token();

  engine::PipelineResult pipeline_result;
  try {
    // Every job runs the shared normalize -> presolve -> solve -> lift ->
    // validate path; with presolve off (or nothing reducible) this is
    // bit-identical to a plain Portfolio::run.
    const engine::SolvePipeline pipeline(problem, options);
    pipeline_result = pipeline.run(*solver, job.solver.starts);
  } catch (const std::exception& failure) {
    // The solvers themselves don't throw, but allocation can; a job must
    // never take the server down.
    return error_result(job, std::string("solve failed: ") + failure.what());
  }
  const engine::PortfolioResult& portfolio = pipeline_result.portfolio;

  JobResult result;
  result.id = job.id;
  result.solve_s = timer.seconds();
  result.starts_run = portfolio.starts_run;
  result.starts_validated = portfolio.starts_validated;
  result.presolve_r0 = pipeline_result.presolve.r0;
  result.presolve_r1 = pipeline_result.presolve.r1;
  result.presolve_r2 = pipeline_result.presolve.r2;
  result.presolve_rn = pipeline_result.presolve.rn;
  result.presolve_removed = pipeline_result.presolve.components_removed;
  result.presolve_s = pipeline_result.presolve.seconds;

  const StopCause cause = job.cause();
  const bool interrupted =
      cause != StopCause::kNone &&
      (portfolio.starts_skipped > 0 || portfolio.starts_cancelled > 0 ||
       portfolio.starts_run == 0);
  if (interrupted) {
    result.status =
        cause == StopCause::kDeadline ? "deadline_exceeded" : "cancelled";
  }

  if (portfolio.best_start >= 0) {
    const engine::SolverResult& best = portfolio.best;
    result.solver = best.solver;
    result.feasible = best.found_feasible;
    result.best_penalized = best.best_penalized;
    if (best.found_feasible) {
      result.objective = best.best_feasible_objective;
      const Assignment& chosen = best.best_feasible;
      result.assignment.reserve(
          static_cast<std::size_t>(chosen.num_components()));
      for (std::int32_t j = 0; j < chosen.num_components(); ++j) {
        result.assignment.push_back(chosen[j]);
      }
    }
    if (result.status.empty()) {
      result.status = best.found_feasible ? "ok" : "infeasible";
    }
  } else if (result.status.empty()) {
    // Nothing selectable: either every start errored (solve threw, or the
    // shadow audit failed under throw mode), or no start ran at all (an
    // empty portfolio, which request validation should have prevented).
    result.status = "error";
    result.reason = portfolio.starts_errored > 0
                        ? "all " + std::to_string(portfolio.starts_errored) +
                              " starts failed"
                        : "no portfolio start ran";
  }

  // Only uninterrupted feasible answers are worth remembering.
  if (use_cache && result.status == "ok") {
    cache->insert(cache_key, spec_fp,
                  digest.has_value() ? std::move(*digest)
                                     : make_digest(problem),
                  to_cached(result));
  }

  log::info("job ", job.id, ": status=", result.status,
            " feasible=", result.feasible ? 1 : 0,
            " objective=", result.objective, " solve_s=", result.solve_s);
  return result;
}

}  // namespace qbp::service
