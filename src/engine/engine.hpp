// Umbrella header for the solver-engine layer: the Solver interface and
// normalized SolverResult, adapters for every optimizer in the library, the
// parallel portfolio/multistart driver, SolverSpec, and the shared DeltaEvaluator
// (which lives in core/ so the Burkard polish can use it, and is re-exported
// here as part of the engine surface).
#pragma once

#include "core/delta_evaluator.hpp"
#include "engine/adapters.hpp"
#include "engine/portfolio.hpp"
#include "engine/solver.hpp"
#include "engine/spec.hpp"
