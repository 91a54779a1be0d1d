// qbp_lint: the repo's determinism & concurrency contract checker.
//
// A dependency-free token-level linter that enforces the project rules the
// compiler cannot (DESIGN.md §14).  It is deliberately not a full C++
// parser: every rule is expressed over a comment- and string-stripped token
// stream, which is exact enough for the house style this tree is written in
// and keeps the tool a single small binary that builds everywhere the
// project does.
//
// Rules (run `qbp_lint --list-rules` for the live catalogue):
//
//   raw-assert      `assert(...)` instead of QBP_CHECK / QBP_DCHECK.  The
//                   contract framework gives messages, counters, fail modes
//                   and NDEBUG-independent boundary checks; raw assert gives
//                   none of that.
//   raw-thread      `std::thread` / `std::jthread` / `std::async` outside
//                   util/parallel.  Ad-hoc threads bypass the deterministic
//                   work pool and its static chunking, the foundation of
//                   the bit-identical-results contract.  Static member
//                   access (`std::thread::hardware_concurrency`) is allowed.
//   raw-rng         `rand` / `srand` / `random_device` / `drand48` outside
//                   util/rng.  Unseeded or platform-seeded randomness makes
//                   results non-reproducible.
//   unordered-iter  Range-for or `.begin()` iteration over a variable
//                   declared as std::unordered_map/set anywhere in the
//                   scanned tree.  Unordered iteration order is
//                   implementation-defined, so anything derived from it is
//                   not deterministic.
//   unordered-reduce `std::reduce` / `std::transform_reduce` anywhere.
//                   Unordered floating-point accumulation
//                   breaks bit-identical results; std::accumulate (strictly
//                   left to right) is the sanctioned alternative.
//   dangling-span   A `std::span` variable initialized from a by-value
//                   accessor call (currently: `omega()`).  The temporary
//                   dies at the end of the statement and the span dangles --
//                   the exact bug class a by-value `Netlist::sizes()` once
//                   caused.
//
// Suppression: append `// qbp-lint: allow(<rule>)` to the offending line,
// or put it on its own comment line immediately above.  Anything after the
// closing parenthesis is free-form rationale.
#pragma once

#include <string>
#include <vector>

namespace qbp::lint {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

struct RuleInfo {
  std::string name;
  std::string description;
};

/// The rule catalogue, in reporting order.
[[nodiscard]] const std::vector<RuleInfo>& rules();

/// One in-memory source file; `path` participates in the per-rule directory
/// exemptions (e.g. raw-thread is legal under util/parallel).
struct SourceFile {
  std::string path;
  std::string contents;
};

/// Lint a set of files as one unit.  Unordered-container declarations are
/// collected across *all* files first, so a member declared in a header is
/// caught when iterated in its .cpp.  Findings are sorted by (file, line).
[[nodiscard]] std::vector<Finding> lint_files(
    const std::vector<SourceFile>& files);

/// Walk `paths` (files, or directories scanned recursively for C++ sources),
/// read them and lint.  On I/O failure returns an empty vector and sets
/// `error`.
[[nodiscard]] std::vector<Finding> run(const std::vector<std::string>& paths,
                                       std::string& error);

/// Findings as a JSON array (stable key order; suitable for CI artifacts).
[[nodiscard]] std::string to_json(const std::vector<Finding>& findings);

}  // namespace qbp::lint
