// The 11 solver flags qbpart_cli and qbpart_submit share: one flag per
// engine::SolverSpec field but `validate`, checked by engine::check_spec.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>

#include "engine/spec.hpp"
#include "util/cli.hpp"

namespace qbp {

class SolverFlags {
 public:
  /// Registers the flags on `cli`; the parser writes into this object.
  SolverFlags(CliParser& cli, const engine::SolverSpec& defaults)
      : spec_(defaults),
        seed_(static_cast<std::int64_t>(defaults.seed)),
        presolve_(defaults.presolve ? "on" : "off") {
    cli.add_string("method", spec_.method, "qbp | multilevel | gfm | gkl | sa");
    cli.add_int("starts", spec_.starts, "portfolio starts; the best one wins");
    cli.add_int("threads", spec_.threads, "portfolio threads (0 = all cores)");
    cli.add_int("iterations", spec_.iterations, "QBP iteration budget");
    cli.add_int("seed", seed_, "master seed in [0, 2^53); the determinism key");
    cli.add_string("presolve", presolve_,
                   "on | off: reduce the instance before solving");
    cli.add_string("presolve-rules", spec_.presolve_rules,
                   "comma-separated rules, any of r0,r1,r2,rn (empty = none)");
    cli.add_int("presolve-rn", spec_.presolve_rn,
                "solve remainders of at most this many components exactly");
    cli.add_int("ml-levels", spec_.ml_levels,
                "multilevel: V-cycle levels incl. the finest (0 = default)");
    cli.add_double("ml-min-shrink", spec_.ml_min_shrink,
                   "multilevel: coarsening shrink floor in [0, 1) (0 = default)");
    cli.add_int("ml-refine-passes", spec_.ml_refine_passes,
                "multilevel: polish sweeps per level (-1 = default)");
  }
  SolverFlags(const SolverFlags&) = delete;
  SolverFlags& operator=(const SolverFlags&) = delete;

  /// The parsed spec, or nullopt after printing why it is invalid.
  [[nodiscard]] std::optional<engine::SolverSpec> spec() const {
    engine::SolverSpec parsed = spec_;
    parsed.seed = static_cast<std::uint64_t>(seed_);  // negative: far past 2^53
    parsed.presolve = presolve_ == "on";
    const std::string error = presolve_ == "on" || presolve_ == "off"
                                  ? engine::check_spec(parsed)
                                  : "--presolve must be on|off";
    if (error.empty()) return parsed;
    std::fprintf(stderr, "invalid solver flags: %s\n", error.c_str());
    return std::nullopt;
  }

 private:
  engine::SolverSpec spec_;
  std::int64_t seed_;
  std::string presolve_;
};

}  // namespace qbp
