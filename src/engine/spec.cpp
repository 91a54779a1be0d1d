#include "engine/spec.hpp"

#include <string_view>

#include "engine/adapters.hpp"
#include "util/strings.hpp"

namespace qbp::engine {

namespace {

/// Set `presolve`'s rule flags from a presolve_rules list; returns the
/// first token that names no rule.
std::optional<std::string_view> apply_rules(std::string_view rules,
                                            PresolveOptions& presolve) {
  presolve.rule_r0 = presolve.rule_r1 = presolve.rule_r2 = presolve.rule_rn =
      false;
  if (rules.empty()) return std::nullopt;
  for (const std::string_view token : split(rules, ',')) {
    bool* rule = token == "r0"   ? &presolve.rule_r0
                 : token == "r1" ? &presolve.rule_r1
                 : token == "r2" ? &presolve.rule_r2
                 : token == "rn" ? &presolve.rule_rn
                                 : nullptr;
    if (rule == nullptr) return token;
    *rule = true;
  }
  return std::nullopt;
}

}  // namespace

std::string check_spec(const SolverSpec& spec) {
  if (spec.starts < 1) return "'starts' must be >= 1";
  if (spec.threads < 0) return "'threads' must be >= 0";
  if (spec.iterations < 1) return "'iterations' must be >= 1";
  // Above 2^53 doubles skip integers: a JSON client would send a neighbour.
  if (spec.seed >= std::uint64_t{1} << 53) {
    return "'seed' must be an integer in [0, 2^53)";
  }
  if (spec.presolve_rn < 0) return "'presolve_rn' must be >= 0";
  PresolveOptions scratch;
  if (const auto bad = apply_rules(spec.presolve_rules, scratch)) {
    return "'presolve_rules' has unknown rule '" + std::string(*bad) +
           "' (want a comma-separated subset of r0,r1,r2,rn)";
  }
  if (spec.ml_levels < 0) return "'ml_levels' must be >= 0 (0 = solver default)";
  if (!(spec.ml_min_shrink >= 0.0 && spec.ml_min_shrink < 1.0)) {  // NaN too
    return "'ml_min_shrink' must be in [0, 1)";
  }
  if (spec.ml_refine_passes < -1) {
    return "'ml_refine_passes' must be >= -1 (-1 = solver default)";
  }
  return {};
}

std::unique_ptr<Solver> make_solver(const SolverSpec& spec) {
  if (spec.method == "qbp") {
    BurkardOptions options;
    options.iterations = spec.iterations;
    return std::make_unique<BurkardSolver>(options);
  }
  if (spec.method == "multilevel") {
    MultilevelOptions options;
    // Sentinels (0 / 0.0 / -1) keep the core/multilevel.hpp defaults.
    if (spec.ml_levels > 0) options.max_levels = spec.ml_levels;
    if (spec.ml_min_shrink > 0.0) options.min_shrink = spec.ml_min_shrink;
    if (spec.ml_refine_passes >= 0) options.refine_passes = spec.ml_refine_passes;
    return std::make_unique<MultilevelSolver>(options);
  }
  if (spec.method == "gfm") return std::make_unique<GfmSolver>();
  if (spec.method == "gkl") return std::make_unique<GklSolver>();
  if (spec.method == "sa") return std::make_unique<SaSolver>();
  return nullptr;
}

PipelineOptions pipeline_options(const SolverSpec& spec) {
  PipelineOptions options;
  options.presolve.enabled = spec.presolve;
  options.presolve.rn_max_components = spec.presolve_rn;
  (void)apply_rules(spec.presolve_rules, options.presolve);  // check_spec vets
  options.portfolio.seed = spec.seed;
  options.portfolio.threads = spec.threads;
  options.portfolio.validate = spec.validate;
  return options;
}

}  // namespace qbp::engine
