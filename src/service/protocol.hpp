// The qbpartd wire protocol: newline-delimited JSON, one request or
// response object per line, over a stdin/stdout pipe or a local TCP
// connection.
//
// Requests (client -> server):
//
//   {"type":"submit","id":"j1","problem":"<.qp text>","solver":{"method":
//    "qbp","starts":4,"threads":2,"iterations":100,"seed":1},
//    "deadline_ms":5000,"priority":1}
//   {"type":"submit","id":"j2","problem_file":"path/to/problem.qp", ...}
//   {"type":"cancel","id":"j1"}
//   {"type":"stats"}
//   {"type":"shutdown"}            (drain accepted jobs, then exit)
//
// The "solver" object carries engine::SolverSpec field by field (method,
// starts, threads, iterations, seed, validate, presolve, presolve_rn,
// presolve_rules, ml_levels, ml_min_shrink, ml_refine_passes); absent
// fields keep the SolverSpec defaults, and keys it does not name are
// ignored -- the retired "inner_threads" among them, which older clients
// still send.  A spec engine::check_spec refuses -- e.g. a seed outside
// [0, 2^53) or an unknown presolve rule -- fails the line with
// check_spec's message, the one a binary submit frame gets too.
//
// Responses (server -> client), one line each, in completion order:
//
//   {"type":"result","id":"j1","status":"ok","feasible":true,
//    "objective":123.0,"solver":"qbp","assignment":[0,1,...],
//    "queue_wait_s":0.01,"solve_s":0.42,"starts_run":4}
//   {"type":"result","id":"j1","status":"deadline_exceeded", ...}
//   {"type":"reject","id":"j3","reason":"queue full (capacity 64)"}
//   {"type":"error","reason":"line 3: unknown keyword 'foo'"}
//   {"type":"stats","uptime_s":12.5,"counters":{...}, ...}
//   {"type":"shutdown","status":"draining"}
//
// Result statuses: "ok" (feasible solution), "infeasible" (solver finished
// but found no fully feasible assignment; best penalized value reported),
// "deadline_exceeded", "cancelled", "error" (e.g. the problem text failed
// to parse).  Determinism contract: a submit with the same problem, solver
// spec and seed produces a bit-identical assignment regardless of server
// worker count, portfolio thread count, or queue load -- inherited from
// engine::Portfolio (see DESIGN.md §7) -- provided the job ran to
// completion (no deadline/cancel interruption).
//
// Warm-start serving (DESIGN.md §13): submits carry optional top-level
// "cache" and "warm_start" booleans (default true).  An exact cache hit
// returns the original result bit-identical ("cache_hit":true); a
// near-match may be answered by the ECO re-solve path ("warm_start":true
// with "eco_repairs"/"eco_edits"), whose result depends on cache contents
// -- set "warm_start":false (or run --cache off) for strict determinism.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/spec.hpp"
#include "netlist/io.hpp"  // ParseResult
#include "util/json.hpp"

namespace qbp {
class PartitionProblem;
}  // namespace qbp

namespace qbp::service {

/// How to solve one job (engine/spec.hpp).  Both codecs read its fields
/// and leave every range check to engine::check_spec.
using engine::SolverSpec;

enum class RequestType { kSubmit, kCancel, kStats, kShutdown };

struct Request {
  RequestType type = RequestType::kSubmit;
  std::string id;            // submit (optional; server assigns) / cancel
  std::string problem_text;  // inline .qp source ("problem" field)
  std::string problem_file;  // or a server-local path ("problem_file")
  /// Binary framing only (service/wire.hpp kProblemStruct): the already
  /// parsed problem, decoded zero-copy from the frame buffer.  When set,
  /// run_job skips the text parse; NDJSON requests always leave it null.
  std::shared_ptr<const PartitionProblem> problem;
  SolverSpec solver;
  double deadline_ms = 0.0;  // relative to receipt; 0 = no deadline
  std::int32_t priority = 0;  // higher runs first; FIFO within a priority
  /// "cache": false opts this submission out of the solution cache entirely
  /// (no lookup, no insert) -- the result is bit-identical to a server
  /// running with the cache disabled.
  bool cache = true;
  /// "warm_start": false allows exact cache hits but skips the ECO re-solve
  /// path (useful when strict cache-or-cold behaviour is wanted).
  bool warm_start = true;
};

/// Parse one request line.  Unknown `type` values and malformed JSON fail
/// with a descriptive message; unknown members are ignored (forward
/// compatibility).
[[nodiscard]] ParseResult parse_request(std::string_view line, Request& out);

/// Serialize a request as one NDJSON line (no trailing newline); the
/// client-side counterpart of parse_request.
[[nodiscard]] std::string format_request(const Request& request);

/// Everything a finished (or refused) job reports back.
struct JobResult {
  std::string id;
  std::string status;  // ok | infeasible | deadline_exceeded | cancelled | error
  std::string reason;  // set for status "error"
  std::string solver;  // producing solver name
  bool feasible = false;
  double objective = 0.0;        // true objective when feasible
  double best_penalized = 0.0;   // penalized value of the best iterate
  std::vector<std::int32_t> assignment;  // empty unless a solution exists
  double queue_wait_s = 0.0;
  double solve_s = 0.0;
  std::int32_t starts_run = 0;
  /// Starts whose result passed the shadow audit (0 unless validation ran).
  std::int32_t starts_validated = 0;
  /// Presolve reduction counters (all zero when presolve was off or nothing
  /// reduced; mirrors core PresolveStats).
  std::int32_t presolve_r0 = 0;
  std::int32_t presolve_r1 = 0;
  std::int32_t presolve_r2 = 0;
  std::int32_t presolve_rn = 0;
  std::int32_t presolve_removed = 0;
  double presolve_s = 0.0;
  /// This result came verbatim from the solution cache (exact fingerprint
  /// hit); the assignment is bit-identical to the original solve's.
  bool cache_hit = false;
  /// This result came from the ECO warm-start path: polished from a cached
  /// neighbor's assignment and re-validated against the submitted problem.
  bool warm_start = false;
  /// Components that moved relative to the cached seed assignment
  /// (warm_start results only).
  std::int32_t eco_repairs = 0;
  /// Edit distance between the submitted problem and the cached neighbor it
  /// warm-started from (warm_start results only).
  std::int32_t eco_edits = 0;
};

[[nodiscard]] json::Value result_to_json(const JobResult& result);
[[nodiscard]] ParseResult result_from_json(const json::Value& value,
                                           JobResult& out);

/// Non-result response lines.
[[nodiscard]] std::string format_reject(std::string_view id,
                                        std::string_view reason);
[[nodiscard]] std::string format_error(std::string_view reason);

}  // namespace qbp::service
