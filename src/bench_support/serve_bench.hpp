// Saturated qbpartd throughput: drive an in-process service::Server with
// pre-encoded requests (rendered outside the timed region, so the rows
// measure the server's decode + dispatch + solve + respond path, not the
// load generator) and report jobs/sec per scenario:
//
//   cold   every job solves from scratch (per-request cache opt-out);
//   exact  every job is an exact fingerprint cache hit (primed off-timer);
//   warm   every job is a distinct ECO variant answered by the warm
//          re-solve path (workers=1 only -- warm results depend on cache
//          insertion order, which only a single worker keeps deterministic).
//
// Each scenario runs under both edge framings (NDJSON lines through
// handle_line, binary wire frames through handle_frame) and each worker
// count.  `results_hash` digests every non-timing field of every reply in
// id order; the bench gate compares it exactly across framings, worker
// counts and baseline runs -- the serving acceptance contract ("results are
// bit-identical between NDJSON and binary framing and across worker
// counts") checked by machine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace qbp {

struct ServeBenchConfig {
  /// Components per submitted problem.
  std::int32_t n = 400;
  /// Jobs per timed batch (cold/exact); warm runs `warm_jobs` variants.
  std::int32_t jobs = 64;
  std::int32_t warm_jobs = 16;
  /// QBP iteration budget of each cold solve.  Together with `starts` this
  /// must be enough that the solve lands feasible (see `starts` below).
  std::int32_t iterations = 10;
  /// Portfolio starts per job.  Enough that the cold solve lands feasible
  /// ("ok"): only ok results enter the cache, and the exact and warm
  /// scenarios need the primed entry to exist.
  std::int32_t starts = 4;
  /// Worker counts exercised for the cold and exact scenarios.
  std::vector<std::int32_t> worker_counts = {1, 4};
};

struct ServeRow {
  std::string scenario;  // cold | exact | warm
  std::string framing;   // ndjson | binary
  std::int32_t workers = 0;
  std::int32_t jobs = 0;
  double seconds = 0.0;
  double jobs_per_sec = 0.0;
  /// Canonical digest of all replies (id, status, solver, feasible,
  /// objective bits, assignment, cache/warm flags, ECO counters) in id
  /// order; timing fields excluded.  Exact-gated by the bench gate.
  std::string results_hash;
  /// Replies answered from the exact-hit / warm-start cache paths.  Both
  /// are deterministic and exact-gated: a feasibility or cache regression
  /// that silently turns the exact scenario into cold solves fails the
  /// gate even though the rows would still "work".
  std::int32_t cache_hits = 0;
  std::int32_t warm_hits = 0;
  /// Every reply decoded as a "result" (no rejects, errors, drops).
  bool ok = false;
};

[[nodiscard]] std::vector<ServeRow> run_serve_bench(
    const ServeBenchConfig& config);

}  // namespace qbp
