#include "service/wire.hpp"

#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "core/problem_io.hpp"  // the input caps shared with the text parser
#include "netlist/netlist.hpp"
#include "partition/topology.hpp"
#include "sparse/dense.hpp"
#include "timing/constraints.hpp"

namespace qbp::service {

namespace {

bool fail(std::string& error, std::string message) {
  error = std::move(message);
  return false;
}

/// Read a zigzag varint constrained to int32 range.
bool read_i32(wire::Reader& reader, std::int32_t& out, std::string& error,
              std::string_view field) {
  std::int64_t value = 0;
  if (!reader.svarint(value) ||
      value < std::numeric_limits<std::int32_t>::min() ||
      value > std::numeric_limits<std::int32_t>::max()) {
    return fail(error, "field '" + std::string(field) +
                           "' is truncated or out of int32 range");
  }
  out = static_cast<std::int32_t>(value);
  return true;
}

/// Strict 0/1 byte, so every accepted submit re-encodes byte-identically
/// (the fuzz fixed-point property).
bool read_bool(wire::Reader& reader, bool& out, std::string& error,
               std::string_view field) {
  std::uint8_t byte = 0;
  if (!reader.u8(byte) || byte > 1) {
    return fail(error,
                "field '" + std::string(field) + "' must be a 0/1 byte");
  }
  out = byte != 0;
  return true;
}

}  // namespace

void encode_problem(const PartitionProblem& problem, wire::Writer& writer) {
  const Netlist& netlist = problem.netlist();
  const PartitionTopology& topology = problem.topology();
  const std::int32_t m = topology.num_partitions();
  const std::int32_t n = netlist.num_components();

  writer.string(netlist.name());
  writer.f64(problem.alpha());
  writer.f64(problem.beta());
  writer.varint(static_cast<std::uint64_t>(m));
  writer.varint(static_cast<std::uint64_t>(n));
  for (const Component& component : netlist.components()) {
    writer.string(component.name);
  }
  writer.f64_array(netlist.sizes());

  // Bundles as struct-of-arrays; the netlist is finalized (the
  // PartitionProblem constructor guarantees it), so this order is the
  // canonical merged + sorted one and re-encoding is a fixed point.
  const std::vector<WireBundle>& bundles = netlist.bundles();
  std::vector<std::int32_t> scratch(bundles.size());
  writer.varint(bundles.size());
  for (std::size_t k = 0; k < bundles.size(); ++k) scratch[k] = bundles[k].a;
  writer.i32_array(scratch);
  for (std::size_t k = 0; k < bundles.size(); ++k) scratch[k] = bundles[k].b;
  writer.i32_array(scratch);
  for (std::size_t k = 0; k < bundles.size(); ++k) {
    scratch[k] = bundles[k].multiplicity;
  }
  writer.i32_array(scratch);

  // Topology always travels in custom form (B, D, capacities).  For grid
  // topologies this is value-identical: grid() materializes B and D in
  // full, so a custom topology of the same matrices reads the same.
  writer.f64_array(topology.wire_cost().flat());
  writer.f64_array(topology.delay().flat());
  writer.f64_array(topology.capacities());

  // Timing constraints from the CSR upper triangle (built once by the
  // problem constructor): deterministic sorted order, min-merged values.
  const Csr<double>& timing = problem.timing().matrix();
  std::vector<std::int32_t> t_a;
  std::vector<std::int32_t> t_b;
  std::vector<double> t_bound;
  for (std::int32_t j = 0; j < n; ++j) {
    const auto partners = timing.row_indices(j);
    const auto bounds = timing.row_values(j);
    for (std::size_t k = 0; k < partners.size(); ++k) {
      if (partners[k] > j) {
        t_a.push_back(j);
        t_b.push_back(partners[k]);
        t_bound.push_back(bounds[k]);
      }
    }
  }
  writer.varint(t_a.size());
  writer.i32_array(t_a);
  writer.i32_array(t_b);
  writer.f64_array(t_bound);

  const Matrix<double>& p = problem.linear_cost_matrix();
  writer.u8(p.empty() ? 0 : 1);
  if (!p.empty()) writer.f64_array(p.flat());
}

bool decode_problem(wire::Reader& reader,
                    std::shared_ptr<const PartitionProblem>& out,
                    std::string& error) {
  std::string_view name;
  double alpha = 1.0;
  double beta = 1.0;
  std::uint64_t m64 = 0;
  std::uint64_t n64 = 0;
  if (!reader.string(name) || !reader.f64(alpha) || !reader.f64(beta) ||
      !reader.varint(m64) || !reader.varint(n64)) {
    return fail(error, "truncated problem header");
  }
  if (!std::isfinite(alpha) || alpha < 0.0 || !std::isfinite(beta) ||
      beta < 0.0) {
    return fail(error, "alpha/beta must be non-negative numbers");
  }
  if (m64 < 1 || m64 > static_cast<std::uint64_t>(kMaxPartitions)) {
    return fail(error, "partition count must be in [1, " +
                           std::to_string(kMaxPartitions) + "]");
  }
  // Every component costs at least one name-length byte, so the remaining
  // payload bounds N before any allocation.
  if (n64 < 1 || n64 > reader.remaining()) {
    return fail(error, "bad component count");
  }
  const auto m = static_cast<std::int32_t>(m64);
  const auto n = static_cast<std::int32_t>(n64);

  std::vector<std::string_view> names(static_cast<std::size_t>(n));
  for (auto& component_name : names) {
    if (!reader.string(component_name)) {
      return fail(error, "truncated component names");
    }
  }
  std::vector<double> sizes;
  if (!reader.f64_array(sizes) || sizes.size() != names.size()) {
    return fail(error, "component size array must have one entry per component");
  }

  std::uint64_t num_bundles = 0;
  std::vector<std::int32_t> bundle_a;
  std::vector<std::int32_t> bundle_b;
  std::vector<std::int32_t> bundle_mult;
  if (!reader.varint(num_bundles) ||
      num_bundles > static_cast<std::uint64_t>(kMaxWireBundles) ||
      !reader.i32_array(bundle_a) || !reader.i32_array(bundle_b) ||
      !reader.i32_array(bundle_mult) || bundle_a.size() != num_bundles ||
      bundle_b.size() != num_bundles || bundle_mult.size() != num_bundles) {
    return fail(error, "bad wire bundle arrays (count cap " +
                           std::to_string(kMaxWireBundles) + ")");
  }
  std::int64_t total_wires = 0;
  for (std::size_t k = 0; k < num_bundles; ++k) {
    if (bundle_a[k] < 0 || bundle_a[k] >= n || bundle_b[k] < 0 ||
        bundle_b[k] >= n || bundle_a[k] == bundle_b[k] ||
        bundle_mult[k] <= 0 || bundle_mult[k] > kMaxWireMultiplicity) {
      return fail(error, "bad wire endpoints or multiplicity");
    }
    total_wires += bundle_mult[k];
    if (total_wires > kMaxTotalWires) {
      return fail(error, "total wire multiplicity exceeds limit " +
                             std::to_string(kMaxTotalWires));
    }
  }

  const auto mm = static_cast<std::size_t>(m) * static_cast<std::size_t>(m);
  std::vector<double> b_flat;
  std::vector<double> d_flat;
  std::vector<double> capacities;
  if (!reader.f64_array(b_flat) || b_flat.size() != mm ||
      !reader.f64_array(d_flat) || d_flat.size() != mm ||
      !reader.f64_array(capacities) ||
      capacities.size() != static_cast<std::size_t>(m)) {
    return fail(error, "topology matrices must be M x M with M capacities");
  }

  std::uint64_t num_constraints = 0;
  std::vector<std::int32_t> t_a;
  std::vector<std::int32_t> t_b;
  std::vector<double> t_bound;
  if (!reader.varint(num_constraints) || !reader.i32_array(t_a) ||
      !reader.i32_array(t_b) || !reader.f64_array(t_bound) ||
      t_a.size() != num_constraints || t_b.size() != num_constraints ||
      t_bound.size() != num_constraints) {
    return fail(error, "bad timing constraint arrays");
  }
  for (std::size_t k = 0; k < num_constraints; ++k) {
    if (t_a[k] < 0 || t_a[k] >= n || t_b[k] < 0 || t_b[k] >= n ||
        t_a[k] == t_b[k] || !std::isfinite(t_bound[k]) || t_bound[k] < 0.0) {
      return fail(error, "bad timing constraint entry");
    }
  }

  std::uint8_t has_p = 0;
  std::vector<double> p_flat;
  if (!reader.u8(has_p) || has_p > 1) {
    return fail(error, "bad linear cost flag");
  }
  if (has_p == 1 &&
      (!reader.f64_array(p_flat) ||
       p_flat.size() != static_cast<std::size_t>(m) * static_cast<std::size_t>(n))) {
    return fail(error, "linear cost matrix must be M x N");
  }

  // The text parser's construction (core/problem_io.cpp): add every part,
  // and the PartitionProblem constructor finalizes them.  Any pair order
  // decodes to the same instance.
  Netlist netlist{std::string(name)};
  for (std::int32_t j = 0; j < n; ++j) {
    netlist.add_component(std::string(names[static_cast<std::size_t>(j)]),
                          sizes[static_cast<std::size_t>(j)]);
  }
  for (std::size_t k = 0; k < num_bundles; ++k) {
    netlist.add_wires(bundle_a[k], bundle_b[k], bundle_mult[k]);
  }
  Matrix<double> b_cost(m, m);
  Matrix<double> delay(m, m);
  std::copy(b_flat.begin(), b_flat.end(), b_cost.flat().begin());
  std::copy(d_flat.begin(), d_flat.end(), delay.flat().begin());
  PartitionTopology topology = PartitionTopology::custom(
      std::move(b_cost), std::move(delay), std::move(capacities));
  TimingConstraints timing(n);
  for (std::size_t k = 0; k < num_constraints; ++k) {
    timing.add(t_a[k], t_b[k], t_bound[k]);
  }
  Matrix<double> p;
  if (has_p == 1) {
    p = Matrix<double>(m, n);
    std::copy(p_flat.begin(), p_flat.end(), p.flat().begin());
  }

  auto problem = std::make_shared<PartitionProblem>(
      std::move(netlist), std::move(topology), std::move(timing), std::move(p),
      alpha, beta);
  if (std::string message = problem->validate(); !message.empty()) {
    return fail(error, "invalid problem: " + std::move(message));
  }
  out = std::move(problem);
  return true;
}

void encode_request_frame(const Request& request, std::string& out) {
  std::string payload;
  wire::Writer writer(payload);
  WireMsg type = WireMsg::kSubmit;
  switch (request.type) {
    case RequestType::kSubmit: type = WireMsg::kSubmit; break;
    case RequestType::kCancel: type = WireMsg::kCancel; break;
    case RequestType::kStats: type = WireMsg::kStats; break;
    case RequestType::kShutdown: type = WireMsg::kShutdown; break;
  }
  writer.string(request.id);
  if (request.type == RequestType::kSubmit) {
    if (request.problem != nullptr) {
      writer.u8(static_cast<std::uint8_t>(ProblemKind::kProblemStruct));
      encode_problem(*request.problem, writer);
    } else if (!request.problem_text.empty()) {
      writer.u8(static_cast<std::uint8_t>(ProblemKind::kText));
      writer.string(request.problem_text);
    } else {
      writer.u8(static_cast<std::uint8_t>(ProblemKind::kFile));
      writer.string(request.problem_file);
    }
    const SolverSpec& solver = request.solver;
    writer.string(solver.method);
    writer.svarint(solver.starts);
    writer.svarint(solver.threads);
    // The retired inner_threads slot: version-1 frames keep it, servers
    // ignore it, so encoders write the old default.
    writer.svarint(1);
    writer.svarint(solver.iterations);
    writer.varint(solver.seed);
    writer.u8(solver.validate.has_value() ? (*solver.validate ? 2 : 1) : 0);
    writer.u8(solver.presolve ? 1 : 0);
    writer.svarint(solver.presolve_rn);
    writer.string(solver.presolve_rules);
    writer.svarint(solver.ml_levels);
    writer.f64(solver.ml_min_shrink);
    writer.svarint(solver.ml_refine_passes);
    writer.f64(request.deadline_ms);
    writer.svarint(request.priority);
    writer.u8(request.cache ? 1 : 0);
    writer.u8(request.warm_start ? 1 : 0);
  }
  wire::append_frame(out, static_cast<std::uint8_t>(type), payload);
}

bool decode_submit(std::string_view payload, Request& out, std::string& error) {
  out = Request{};
  out.type = RequestType::kSubmit;
  wire::Reader reader(payload);
  std::string_view id;
  if (!reader.string(id)) return fail(error, "truncated submit frame");
  out.id = std::string(id);

  std::uint8_t kind = 0;
  if (!reader.u8(kind)) return fail(error, "truncated submit frame");
  switch (static_cast<ProblemKind>(kind)) {
    case ProblemKind::kText: {
      std::string_view text;
      if (!reader.string(text) || text.empty()) {
        return fail(error, "bad inline problem text");
      }
      out.problem_text = std::string(text);
      break;
    }
    case ProblemKind::kFile: {
      std::string_view path;
      if (!reader.string(path) || path.empty()) {
        return fail(error, "bad problem_file path");
      }
      out.problem_file = std::string(path);
      break;
    }
    case ProblemKind::kProblemStruct: {
      if (!decode_problem(reader, out.problem, error)) return false;
      break;
    }
    default:
      return fail(error, "submit requires exactly one of 'problem' (inline "
                         ".qp text), 'problem_file' (server-local path) or a "
                         "structured problem payload");
  }

  std::string_view method;
  if (!reader.string(method) || method.empty()) {
    return fail(error, "bad solver method");
  }
  out.solver.method = std::string(method);
  // The retired inner_threads slot is read, so a truncated or out-of-range
  // value still fails the frame, and then dropped.
  std::int32_t inner_threads = 1;
  if (!read_i32(reader, out.solver.starts, error, "starts") ||
      !read_i32(reader, out.solver.threads, error, "threads") ||
      !read_i32(reader, inner_threads, error, "inner_threads") ||
      !read_i32(reader, out.solver.iterations, error, "iterations")) {
    return false;
  }
  if (!reader.varint(out.solver.seed)) {
    return fail(error, "truncated solver seed");
  }
  std::uint8_t validate = 0;
  if (!reader.u8(validate) || validate > 2) {
    return fail(error, "'validate' must be a 0/1/2 byte");
  }
  if (validate != 0) out.solver.validate = validate == 2;
  if (!read_bool(reader, out.solver.presolve, error, "presolve") ||
      !read_i32(reader, out.solver.presolve_rn, error, "presolve_rn")) {
    return false;
  }
  std::string_view rules;
  if (!reader.string(rules)) return fail(error, "truncated presolve_rules");
  out.solver.presolve_rules = std::string(rules);
  if (!read_i32(reader, out.solver.ml_levels, error, "ml_levels")) {
    return false;
  }
  if (!reader.f64(out.solver.ml_min_shrink)) {
    return fail(error, "truncated ml_min_shrink");
  }
  if (!read_i32(reader, out.solver.ml_refine_passes, error,
                "ml_refine_passes")) {
    return false;
  }
  if (std::string bad = engine::check_spec(out.solver); !bad.empty()) {
    return fail(error, std::move(bad));
  }
  if (!reader.f64(out.deadline_ms) || !std::isfinite(out.deadline_ms) ||
      out.deadline_ms < 0.0) {
    return fail(error, "'deadline_ms' must be a non-negative number");
  }
  if (!read_i32(reader, out.priority, error, "priority") ||
      !read_bool(reader, out.cache, error, "cache") ||
      !read_bool(reader, out.warm_start, error, "warm_start")) {
    return false;
  }
  if (!reader.done()) return fail(error, "trailing bytes after submit payload");
  return true;
}

namespace {

bool decode_cancel(std::string_view payload, Request& out, std::string& error) {
  out = Request{};
  out.type = RequestType::kCancel;
  wire::Reader reader(payload);
  std::string_view id;
  if (!reader.string(id) || !reader.done()) {
    return fail(error, "bad cancel frame");
  }
  if (id.empty()) return fail(error, "cancel requires an 'id'");
  out.id = std::string(id);
  return true;
}

}  // namespace

bool decode_request(std::uint8_t type, std::string_view payload, Request& out,
                    std::string& error) {
  switch (static_cast<WireMsg>(type)) {
    case WireMsg::kSubmit:
      return decode_submit(payload, out, error);
    case WireMsg::kCancel:
      return decode_cancel(payload, out, error);
    case WireMsg::kStats:
      out = Request{};
      out.type = RequestType::kStats;
      return true;
    case WireMsg::kShutdown:
      out = Request{};
      out.type = RequestType::kShutdown;
      return true;
    default:
      return fail(error, "unknown frame type " + std::to_string(type));
  }
}

void encode_result_frame(const JobResult& result, std::string& out) {
  std::string payload;
  wire::Writer writer(payload);
  writer.string(result.id);
  writer.string(result.status);
  writer.string(result.reason);
  writer.string(result.solver);
  writer.u8(result.feasible ? 1 : 0);
  writer.f64(result.objective);
  writer.f64(result.best_penalized);
  writer.i32_array(result.assignment);
  writer.f64(result.queue_wait_s);
  writer.f64(result.solve_s);
  writer.svarint(result.starts_run);
  writer.svarint(result.starts_validated);
  writer.svarint(result.presolve_r0);
  writer.svarint(result.presolve_r1);
  writer.svarint(result.presolve_r2);
  writer.svarint(result.presolve_rn);
  writer.svarint(result.presolve_removed);
  writer.f64(result.presolve_s);
  writer.u8(result.cache_hit ? 1 : 0);
  writer.u8(result.warm_start ? 1 : 0);
  writer.svarint(result.eco_repairs);
  writer.svarint(result.eco_edits);
  wire::append_frame(out, static_cast<std::uint8_t>(WireMsg::kResult), payload);
}

bool decode_result(std::string_view payload, JobResult& out,
                   std::string& error) {
  out = JobResult{};
  wire::Reader reader(payload);
  std::string_view id;
  std::string_view status;
  std::string_view reason;
  std::string_view solver;
  if (!reader.string(id) || !reader.string(status) || !reader.string(reason) ||
      !reader.string(solver)) {
    return fail(error, "truncated result frame");
  }
  out.id = std::string(id);
  out.status = std::string(status);
  out.reason = std::string(reason);
  out.solver = std::string(solver);
  if (!read_bool(reader, out.feasible, error, "feasible")) return false;
  if (!reader.f64(out.objective) || !reader.f64(out.best_penalized) ||
      !reader.i32_array(out.assignment) || !reader.f64(out.queue_wait_s) ||
      !reader.f64(out.solve_s)) {
    return fail(error, "truncated result frame");
  }
  if (!read_i32(reader, out.starts_run, error, "starts_run") ||
      !read_i32(reader, out.starts_validated, error, "starts_validated") ||
      !read_i32(reader, out.presolve_r0, error, "presolve_r0") ||
      !read_i32(reader, out.presolve_r1, error, "presolve_r1") ||
      !read_i32(reader, out.presolve_r2, error, "presolve_r2") ||
      !read_i32(reader, out.presolve_rn, error, "presolve_rn") ||
      !read_i32(reader, out.presolve_removed, error, "presolve_removed")) {
    return false;
  }
  if (!reader.f64(out.presolve_s)) return fail(error, "truncated result frame");
  if (!read_bool(reader, out.cache_hit, error, "cache_hit") ||
      !read_bool(reader, out.warm_start, error, "warm_start") ||
      !read_i32(reader, out.eco_repairs, error, "eco_repairs") ||
      !read_i32(reader, out.eco_edits, error, "eco_edits")) {
    return false;
  }
  if (out.status.empty()) return fail(error, "result is missing 'status'");
  if (!reader.done()) return fail(error, "trailing bytes after result payload");
  return true;
}

static_assert(static_cast<std::uint8_t>(NoteKind::kReject) ==
                  static_cast<std::uint8_t>(WireMsg::kReject) &&
              static_cast<std::uint8_t>(NoteKind::kError) ==
                  static_cast<std::uint8_t>(WireMsg::kError) &&
              static_cast<std::uint8_t>(NoteKind::kStats) ==
                  static_cast<std::uint8_t>(WireMsg::kStatsReply) &&
              static_cast<std::uint8_t>(NoteKind::kCancelAck) ==
                  static_cast<std::uint8_t>(WireMsg::kCancelAck) &&
              static_cast<std::uint8_t>(NoteKind::kShutdownAck) ==
                  static_cast<std::uint8_t>(WireMsg::kShutdownAck),
              "a note's kind is its frame type");

void encode_note_frame(const Note& note, std::string& out) {
  std::string payload;
  wire::Writer writer(payload);
  writer.string(note.id);
  writer.string(note.text);
  wire::append_frame(out, static_cast<std::uint8_t>(note.kind), payload);
}

bool decode_note(std::uint8_t type, std::string_view payload, Note& out,
                 std::string& error) {
  if (type < static_cast<std::uint8_t>(NoteKind::kReject) ||
      type > static_cast<std::uint8_t>(NoteKind::kShutdownAck)) {
    return fail(error, "unexpected frame type " + std::to_string(type));
  }
  wire::Reader reader(payload);
  std::string_view id;
  std::string_view text;
  if (!reader.string(id) || !reader.string(text) || !reader.done()) {
    return fail(error, "bad note frame");
  }
  out = Note{static_cast<NoteKind>(type), std::string(id), std::string(text)};
  return true;
}

}  // namespace qbp::service
