#include "service/protocol.hpp"

#include <cmath>
#include <limits>

namespace qbp::service {

namespace {

bool read_int32(const json::Value& object, std::string_view key,
                std::int32_t& out, std::string& error) {
  const json::Value* member = object.find(key);
  if (member == nullptr) return true;  // keep default
  const double value = member->as_number(std::nan(""));
  if (!std::isfinite(value) || value != std::floor(value) ||
      value < -2147483648.0 || value > 2147483647.0) {
    error = "field '" + std::string(key) + "' must be an integer";
    return false;
  }
  out = static_cast<std::int32_t>(value);
  return true;
}

}  // namespace

ParseResult parse_request(std::string_view line, Request& out) {
  json::Value value;
  if (const auto parsed = json::parse(line, value); !parsed.ok) {
    return {false, "malformed JSON: " + parsed.message};
  }
  if (!value.is_object()) return {false, "request must be a JSON object"};

  out = Request{};
  const std::string type = value.get_string("type");
  if (type == "submit") {
    out.type = RequestType::kSubmit;
  } else if (type == "cancel") {
    out.type = RequestType::kCancel;
  } else if (type == "stats") {
    out.type = RequestType::kStats;
  } else if (type == "shutdown") {
    out.type = RequestType::kShutdown;
  } else if (type.empty()) {
    return {false, "request is missing the 'type' field"};
  } else {
    return {false, "unknown request type '" + type + "'"};
  }

  out.id = value.get_string("id");
  if (out.type == RequestType::kCancel && out.id.empty()) {
    return {false, "cancel requires an 'id'"};
  }
  if (out.type != RequestType::kSubmit) return {};

  out.problem_text = value.get_string("problem");
  out.problem_file = value.get_string("problem_file");
  if (out.problem_text.empty() == out.problem_file.empty()) {
    return {false, "submit requires exactly one of 'problem' (inline .qp "
                   "text) or 'problem_file' (server-local path)"};
  }

  std::string error;
  if (const json::Value* solver = value.find("solver"); solver != nullptr) {
    if (!solver->is_object()) return {false, "'solver' must be an object"};
    if (const std::string method = solver->get_string("method");
        !method.empty()) {
      out.solver.method = method;
    }
    if (!read_int32(*solver, "starts", out.solver.starts, error) ||
        !read_int32(*solver, "threads", out.solver.threads, error) ||
        !read_int32(*solver, "iterations", out.solver.iterations, error) ||
        !read_int32(*solver, "presolve_rn", out.solver.presolve_rn, error) ||
        !read_int32(*solver, "ml_levels", out.solver.ml_levels, error) ||
        !read_int32(*solver, "ml_refine_passes", out.solver.ml_refine_passes,
                    error)) {
      return {false, error};
    }
    if (const json::Value* validate = solver->find("validate");
        validate != nullptr) {
      if (!validate->is_bool()) return {false, "'validate' must be a boolean"};
      out.solver.validate = validate->as_bool(false);
    }
    if (const json::Value* presolve = solver->find("presolve");
        presolve != nullptr) {
      if (!presolve->is_bool()) return {false, "'presolve' must be a boolean"};
      out.solver.presolve = presolve->as_bool(true);
    }
    if (const json::Value* rules = solver->find("presolve_rules");
        rules != nullptr) {
      if (!rules->is_string()) {
        return {false, "'presolve_rules' must be a string"};
      }
      out.solver.presolve_rules = rules->as_string();
    }
    // Values check_spec must refuse are read as such: anything but an
    // integer in [0, 2^64) as the largest seed, a non-number shrink as NaN.
    if (const json::Value* seed = solver->find("seed"); seed != nullptr) {
      const double number = seed->as_number(-1.0);
      out.solver.seed =
          number >= 0.0 && number < 0x1p64 && number == std::floor(number)
              ? static_cast<std::uint64_t>(number)
              : std::numeric_limits<std::uint64_t>::max();
    }
    if (const json::Value* shrink = solver->find("ml_min_shrink");
        shrink != nullptr) {
      out.solver.ml_min_shrink = shrink->as_number(std::nan(""));
    }
  }
  if (std::string bad = engine::check_spec(out.solver); !bad.empty()) {
    return {false, std::move(bad)};
  }

  if (const json::Value* cache = value.find("cache"); cache != nullptr) {
    if (!cache->is_bool()) return {false, "'cache' must be a boolean"};
    out.cache = cache->as_bool(true);
  }
  if (const json::Value* warm = value.find("warm_start"); warm != nullptr) {
    if (!warm->is_bool()) return {false, "'warm_start' must be a boolean"};
    out.warm_start = warm->as_bool(true);
  }

  out.deadline_ms = value.get_number("deadline_ms", 0.0);
  if (!std::isfinite(out.deadline_ms) || out.deadline_ms < 0.0) {
    return {false, "'deadline_ms' must be a non-negative number"};
  }
  if (!read_int32(value, "priority", out.priority, error)) {
    return {false, error};
  }
  return {};
}

std::string format_request(const Request& request) {
  json::Value value = json::Value::object();
  switch (request.type) {
    case RequestType::kSubmit: value.set("type", "submit"); break;
    case RequestType::kCancel: value.set("type", "cancel"); break;
    case RequestType::kStats: value.set("type", "stats"); break;
    case RequestType::kShutdown: value.set("type", "shutdown"); break;
  }
  if (!request.id.empty()) value.set("id", request.id);
  if (request.type == RequestType::kSubmit) {
    if (!request.problem_text.empty()) {
      value.set("problem", request.problem_text);
    } else {
      value.set("problem_file", request.problem_file);
    }
    json::Value solver = json::Value::object();
    solver.set("method", request.solver.method);
    solver.set("starts", request.solver.starts);
    solver.set("threads", request.solver.threads);
    solver.set("iterations", request.solver.iterations);
    solver.set("seed", static_cast<std::int64_t>(request.solver.seed));
    if (request.solver.validate.has_value()) {
      solver.set("validate", *request.solver.validate);
    }
    if (!request.solver.presolve) solver.set("presolve", false);
    if (request.solver.presolve_rn != SolverSpec{}.presolve_rn) {
      solver.set("presolve_rn", request.solver.presolve_rn);
    }
    if (request.solver.presolve_rules != SolverSpec{}.presolve_rules) {
      solver.set("presolve_rules", request.solver.presolve_rules);
    }
    if (request.solver.ml_levels != 0) {
      solver.set("ml_levels", request.solver.ml_levels);
    }
    if (request.solver.ml_min_shrink != 0.0) {
      solver.set("ml_min_shrink", request.solver.ml_min_shrink);
    }
    if (request.solver.ml_refine_passes != -1) {
      solver.set("ml_refine_passes", request.solver.ml_refine_passes);
    }
    value.set("solver", std::move(solver));
    if (request.deadline_ms > 0.0) value.set("deadline_ms", request.deadline_ms);
    if (request.priority != 0) value.set("priority", request.priority);
    if (!request.cache) value.set("cache", false);
    if (!request.warm_start) value.set("warm_start", false);
  }
  return value.dump();
}

json::Value result_to_json(const JobResult& result) {
  json::Value value = json::Value::object();
  value.set("type", "result");
  value.set("id", result.id);
  value.set("status", result.status);
  if (!result.reason.empty()) value.set("reason", result.reason);
  if (!result.solver.empty()) value.set("solver", result.solver);
  value.set("feasible", result.feasible);
  if (result.feasible) value.set("objective", result.objective);
  value.set("best_penalized", result.best_penalized);
  if (!result.assignment.empty()) {
    json::Value assignment = json::Value::array();
    for (const std::int32_t partition : result.assignment) {
      assignment.push_back(partition);
    }
    value.set("assignment", std::move(assignment));
  }
  value.set("queue_wait_s", result.queue_wait_s);
  value.set("solve_s", result.solve_s);
  value.set("starts_run", result.starts_run);
  if (result.starts_validated > 0) {
    value.set("starts_validated", result.starts_validated);
  }
  if (result.presolve_removed > 0) {
    json::Value presolve = json::Value::object();
    presolve.set("r0", result.presolve_r0);
    presolve.set("r1", result.presolve_r1);
    presolve.set("r2", result.presolve_r2);
    presolve.set("rn", result.presolve_rn);
    presolve.set("components_removed", result.presolve_removed);
    presolve.set("seconds", result.presolve_s);
    value.set("presolve", std::move(presolve));
  }
  if (result.cache_hit) value.set("cache_hit", true);
  if (result.warm_start) {
    value.set("warm_start", true);
    value.set("eco_repairs", result.eco_repairs);
    value.set("eco_edits", result.eco_edits);
  }
  return value;
}

ParseResult result_from_json(const json::Value& value, JobResult& out) {
  if (!value.is_object() || value.get_string("type") != "result") {
    return {false, "not a result object"};
  }
  out = JobResult{};
  out.id = value.get_string("id");
  out.status = value.get_string("status");
  out.reason = value.get_string("reason");
  out.solver = value.get_string("solver");
  out.feasible = value.get_bool("feasible", false);
  out.objective = value.get_number("objective", 0.0);
  out.best_penalized = value.get_number("best_penalized", 0.0);
  out.queue_wait_s = value.get_number("queue_wait_s", 0.0);
  out.solve_s = value.get_number("solve_s", 0.0);
  out.starts_run =
      static_cast<std::int32_t>(value.get_number("starts_run", 0.0));
  out.starts_validated =
      static_cast<std::int32_t>(value.get_number("starts_validated", 0.0));
  if (const json::Value* presolve = value.find("presolve");
      presolve != nullptr && presolve->is_object()) {
    out.presolve_r0 =
        static_cast<std::int32_t>(presolve->get_number("r0", 0.0));
    out.presolve_r1 =
        static_cast<std::int32_t>(presolve->get_number("r1", 0.0));
    out.presolve_r2 =
        static_cast<std::int32_t>(presolve->get_number("r2", 0.0));
    out.presolve_rn =
        static_cast<std::int32_t>(presolve->get_number("rn", 0.0));
    out.presolve_removed = static_cast<std::int32_t>(
        presolve->get_number("components_removed", 0.0));
    out.presolve_s = presolve->get_number("seconds", 0.0);
  }
  out.cache_hit = value.get_bool("cache_hit", false);
  out.warm_start = value.get_bool("warm_start", false);
  out.eco_repairs =
      static_cast<std::int32_t>(value.get_number("eco_repairs", 0.0));
  out.eco_edits = static_cast<std::int32_t>(value.get_number("eco_edits", 0.0));
  if (const json::Value* assignment = value.find("assignment");
      assignment != nullptr && assignment->is_array()) {
    out.assignment.reserve(assignment->size());
    for (std::size_t k = 0; k < assignment->size(); ++k) {
      out.assignment.push_back(
          static_cast<std::int32_t>(assignment->at(k).as_number(-1.0)));
    }
  }
  if (out.status.empty()) return {false, "result is missing 'status'"};
  return {};
}

std::string format_reject(std::string_view id, std::string_view reason) {
  json::Value value = json::Value::object();
  value.set("type", "reject");
  if (!id.empty()) value.set("id", id);
  value.set("reason", reason);
  return value.dump();
}

std::string format_error(std::string_view reason) {
  json::Value value = json::Value::object();
  value.set("type", "error");
  value.set("reason", reason);
  return value.dump();
}

}  // namespace qbp::service
