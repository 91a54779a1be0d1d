#include "core/problem_io.hpp"

#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "netlist/nets.hpp"
#include "util/strings.hpp"

namespace qbp {

namespace {

ParseResult fail(int line_number, std::string_view what) {
  std::ostringstream out;
  out << "line " << line_number << ": " << what;
  return {false, out.str()};
}

struct Builder {
  std::string name = "unnamed";
  double alpha = 1.0;
  double beta = 1.0;
  Netlist netlist;
  bool have_topology = false;
  std::int32_t m = 0;
  // Grid form...
  bool is_grid = false;
  std::int32_t grid_rows = 0;
  std::int32_t grid_cols = 0;
  CostKind metric = CostKind::kManhattan;
  // ... or custom matrices.
  Matrix<double> bcost;
  Matrix<double> delay;
  std::vector<bool> bcost_row_seen;
  std::vector<bool> delay_row_seen;
  std::vector<double> capacities;
  bool have_capacities = false;
  std::vector<Triplet<double>> constraints;
  std::vector<Triplet<double>> linear_entries;
  // Running totals guarded by kMaxTotalWires / kMaxWireBundles.
  long long total_wires = 0;
  long long total_bundles = 0;
};

bool parse_metric(std::string_view token, CostKind& out) {
  if (token == "unit") {
    out = CostKind::kUnit;
  } else if (token == "manhattan") {
    out = CostKind::kManhattan;
  } else if (token == "quadratic") {
    out = CostKind::kQuadratic;
  } else {
    return false;
  }
  return true;
}

const char* metric_name(CostKind kind) {
  switch (kind) {
    case CostKind::kUnit: return "unit";
    case CostKind::kManhattan: return "manhattan";
    case CostKind::kQuadratic: return "quadratic";
  }
  return "manhattan";
}

}  // namespace

ParseResult read_problem(std::istream& in, PartitionProblem& out) {
  Builder builder;
  std::string line;
  int line_number = 0;

  const auto component_in_range = [&](long long id) {
    return id >= 0 && id < builder.netlist.num_components();
  };
  const auto partition_in_range = [&](long long id) {
    return id >= 0 && id < builder.m;
  };

  while (std::getline(in, line)) {
    ++line_number;
    std::string_view text = line;
    if (const auto hash = text.find('#'); hash != std::string_view::npos) {
      text = text.substr(0, hash);
    }
    const auto fields = split_whitespace(text);
    if (fields.empty()) continue;
    const std::string_view keyword = fields[0];

    if (keyword == "problem") {
      if (fields.size() != 2) return fail(line_number, "expected: problem <name>");
      builder.name = std::string(fields[1]);
      builder.netlist.set_name(builder.name);
    } else if (keyword == "alpha" || keyword == "beta") {
      double value = 0.0;
      if (fields.size() != 2 || !parse_double(fields[1], value) || value < 0.0) {
        return fail(line_number, "expected a non-negative number");
      }
      (keyword == "alpha" ? builder.alpha : builder.beta) = value;
    } else if (keyword == "topology") {
      if (builder.have_topology) return fail(line_number, "duplicate topology");
      if (fields.size() == 5 && fields[1] == "grid") {
        long long rows = 0;
        long long cols = 0;
        if (!parse_int(fields[2], rows) || !parse_int(fields[3], cols) ||
            rows < 1 || cols < 1) {
          return fail(line_number, "grid dimensions must be positive integers");
        }
        if (rows > kMaxPartitions || cols > kMaxPartitions ||
            rows * cols > kMaxPartitions) {
          return fail(line_number, "grid has too many partitions (limit " +
                                       std::to_string(kMaxPartitions) + ")");
        }
        if (!parse_metric(fields[4], builder.metric)) {
          return fail(line_number, "metric must be unit|manhattan|quadratic");
        }
        builder.is_grid = true;
        builder.grid_rows = static_cast<std::int32_t>(rows);
        builder.grid_cols = static_cast<std::int32_t>(cols);
        builder.m = builder.grid_rows * builder.grid_cols;
      } else if (fields.size() == 3 && fields[1] == "custom") {
        long long m = 0;
        if (!parse_int(fields[2], m) || m < 1) {
          return fail(line_number, "custom topology needs a positive size");
        }
        if (m > kMaxPartitions) {
          return fail(line_number, "custom topology too large (limit " +
                                       std::to_string(kMaxPartitions) + ")");
        }
        builder.m = static_cast<std::int32_t>(m);
        builder.bcost = Matrix<double>(builder.m, builder.m, 0.0);
        builder.delay = Matrix<double>(builder.m, builder.m, 0.0);
        builder.bcost_row_seen.assign(static_cast<std::size_t>(builder.m), false);
        builder.delay_row_seen.assign(static_cast<std::size_t>(builder.m), false);
      } else {
        return fail(line_number,
                    "expected: topology grid <rows> <cols> <metric> | "
                    "topology custom <M>");
      }
      builder.have_topology = true;
    } else if (keyword == "bcost" || keyword == "delay") {
      if (!builder.have_topology || builder.is_grid) {
        return fail(line_number, "matrix rows require `topology custom` first");
      }
      long long row = 0;
      if (fields.size() != static_cast<std::size_t>(builder.m) + 2 ||
          !parse_int(fields[1], row) || !partition_in_range(row)) {
        return fail(line_number, "expected: <keyword> <row> and M values");
      }
      auto& matrix = keyword == "bcost" ? builder.bcost : builder.delay;
      auto& seen = keyword == "bcost" ? builder.bcost_row_seen
                                      : builder.delay_row_seen;
      for (std::int32_t c = 0; c < builder.m; ++c) {
        double value = 0.0;
        if (!parse_double(fields[static_cast<std::size_t>(c) + 2], value)) {
          return fail(line_number, "malformed matrix value");
        }
        matrix(static_cast<std::int32_t>(row), c) = value;
      }
      seen[static_cast<std::size_t>(row)] = true;
    } else if (keyword == "capacities") {
      if (!builder.have_topology) {
        return fail(line_number, "capacities require a topology first");
      }
      if (fields.size() != static_cast<std::size_t>(builder.m) + 1) {
        return fail(line_number, "expected one capacity per partition");
      }
      builder.capacities.resize(static_cast<std::size_t>(builder.m));
      for (std::int32_t i = 0; i < builder.m; ++i) {
        double value = 0.0;
        if (!parse_double(fields[static_cast<std::size_t>(i) + 1], value) ||
            value < 0.0) {
          return fail(line_number, "capacities must be non-negative numbers");
        }
        builder.capacities[static_cast<std::size_t>(i)] = value;
      }
      builder.have_capacities = true;
    } else if (keyword == "component") {
      if (fields.size() != 3) {
        return fail(line_number, "expected: component <name> <size>");
      }
      double size = 0.0;
      if (!parse_double(fields[2], size) || !(size > 0.0)) {
        return fail(line_number, "component size must be positive");
      }
      builder.netlist.add_component(std::string(fields[1]), size);
    } else if (keyword == "wire") {
      long long a = 0;
      long long b = 0;
      long long mult = 0;
      if (fields.size() != 4 || !parse_int(fields[1], a) ||
          !parse_int(fields[2], b) || !parse_int(fields[3], mult)) {
        return fail(line_number, "expected: wire <a> <b> <multiplicity>");
      }
      if (!component_in_range(a) || !component_in_range(b) || a == b ||
          mult <= 0 || mult > kMaxWireMultiplicity) {
        return fail(line_number, "bad wire endpoints or multiplicity");
      }
      builder.total_wires += mult;
      if (builder.total_wires > kMaxTotalWires) {
        return fail(line_number, "total wire multiplicity exceeds limit " +
                                     std::to_string(kMaxTotalWires));
      }
      if (++builder.total_bundles > kMaxWireBundles) {
        return fail(line_number, "too many wire bundles (limit " +
                                     std::to_string(kMaxWireBundles) + ")");
      }
      builder.netlist.add_wires(static_cast<ComponentId>(a),
                                static_cast<ComponentId>(b),
                                static_cast<std::int32_t>(mult));
    } else if (keyword == "net" || keyword == "netstar") {
      if (fields.size() < 4) {
        return fail(line_number, "expected: net <weight> <pin> <pin> [...]");
      }
      long long weight = 0;
      if (!parse_int(fields[1], weight) || weight <= 0 ||
          weight > kMaxWireMultiplicity) {
        return fail(line_number, "net weight must be a positive integer");
      }
      Net net;
      net.weight = static_cast<std::int32_t>(weight);
      net.pins.reserve(fields.size() - 2);
      for (std::size_t k = 2; k < fields.size(); ++k) {
        long long pin = 0;
        if (!parse_int(fields[k], pin) || !component_in_range(pin)) {
          return fail(line_number, "net pin out of range");
        }
        net.pins.push_back(static_cast<ComponentId>(pin));
      }
      if (has_duplicate_pins(net)) {
        return fail(line_number, "net lists a pin twice");
      }
      // Budget the expansion before performing it; checking pairs against
      // the bundle cap first keeps pairs * weight within int64.
      const NetExpansion model =
          keyword == "net" ? NetExpansion::kClique : NetExpansion::kStar;
      const long long pairs = expanded_pair_count(net, model);
      if (builder.total_bundles + pairs > kMaxWireBundles) {
        return fail(line_number, "too many wire bundles (limit " +
                                     std::to_string(kMaxWireBundles) + ")");
      }
      builder.total_bundles += pairs;
      builder.total_wires += pairs * weight;
      if (builder.total_wires > kMaxTotalWires) {
        return fail(line_number, "total wire multiplicity exceeds limit " +
                                     std::to_string(kMaxTotalWires));
      }
      add_net_wires(builder.netlist, net, model);
    } else if (keyword == "constraint") {
      long long a = 0;
      long long b = 0;
      double bound = 0.0;
      if (fields.size() != 4 || !parse_int(fields[1], a) ||
          !parse_int(fields[2], b) || !parse_double(fields[3], bound)) {
        return fail(line_number, "expected: constraint <a> <b> <max_delay>");
      }
      if (!component_in_range(a) || !component_in_range(b) || a == b ||
          bound < 0.0 || !std::isfinite(bound)) {
        return fail(line_number, "bad constraint endpoints or bound");
      }
      builder.constraints.push_back({static_cast<std::int32_t>(a),
                                     static_cast<std::int32_t>(b), bound});
    } else if (keyword == "linear") {
      long long i = 0;
      long long j = 0;
      double cost = 0.0;
      if (fields.size() != 4 || !parse_int(fields[1], i) ||
          !parse_int(fields[2], j) || !parse_double(fields[3], cost)) {
        return fail(line_number, "expected: linear <i> <j> <cost>");
      }
      if (!partition_in_range(i) || !component_in_range(j) || cost < 0.0) {
        return fail(line_number, "bad linear entry (partition/component/cost)");
      }
      builder.linear_entries.push_back({static_cast<std::int32_t>(i),
                                        static_cast<std::int32_t>(j), cost});
    } else {
      return fail(line_number, "unknown keyword '" + std::string(keyword) + "'");
    }
  }

  if (in.bad()) return {false, "I/O error while reading"};
  if (!builder.have_topology) return {false, "missing topology"};
  if (builder.netlist.num_components() == 0) {
    return {false, "problem has no components (truncated file?)"};
  }
  if (!builder.is_grid) {
    for (std::int32_t i = 0; i < builder.m; ++i) {
      if (!builder.bcost_row_seen[static_cast<std::size_t>(i)] ||
          !builder.delay_row_seen[static_cast<std::size_t>(i)]) {
        std::ostringstream message;
        message << "custom topology is missing bcost/delay row " << i;
        return {false, message.str()};
      }
    }
  }
  if (!builder.have_capacities) return {false, "missing capacities"};

  PartitionTopology topology =
      builder.is_grid
          ? PartitionTopology::grid(builder.grid_rows, builder.grid_cols,
                                    builder.metric)
          : PartitionTopology::custom(std::move(builder.bcost),
                                      std::move(builder.delay),
                                      builder.capacities);
  topology.set_capacities(builder.capacities);

  TimingConstraints timing(builder.netlist.num_components());
  for (const auto& entry : builder.constraints) {
    timing.add(entry.row, entry.col, entry.value);
  }

  Matrix<double> p;
  if (!builder.linear_entries.empty()) {
    p = Matrix<double>(builder.m, builder.netlist.num_components(), 0.0);
    for (const auto& entry : builder.linear_entries) {
      p(entry.row, entry.col) = entry.value;
    }
  }

  out = PartitionProblem(std::move(builder.netlist), std::move(topology),
                         std::move(timing), std::move(p), builder.alpha,
                         builder.beta);
  if (auto message = out.validate(); !message.empty()) {
    return {false, "inconsistent problem: " + message};
  }
  return {};
}

ParseResult read_problem_file(const std::string& path, PartitionProblem& out) {
  std::ifstream in(path);
  if (!in) return {false, "cannot open '" + path + "' for reading"};
  return read_problem(in, out);
}

void write_problem(std::ostream& out, const PartitionProblem& problem) {
  const auto& topology = problem.topology();
  const std::int32_t m = problem.num_partitions();

  out << "# qbpart problem\n";
  out << "problem "
      << (problem.netlist().name().empty() ? "unnamed" : problem.netlist().name())
      << "\n";
  out << "alpha " << format_double(problem.alpha(), 6) << "\n";
  out << "beta " << format_double(problem.beta(), 6) << "\n";

  // Emit a grid header when the topology still matches one of the grid
  // metrics exactly; otherwise fall back to explicit matrices.
  bool wrote_grid = false;
  if (topology.grid_cols() > 0) {
    const std::int32_t cols = topology.grid_cols();
    const std::int32_t rows = m / cols;
    for (const CostKind metric :
         {CostKind::kUnit, CostKind::kManhattan, CostKind::kQuadratic}) {
      const auto reference = PartitionTopology::grid(rows, cols, metric);
      if (reference.wire_cost() == topology.wire_cost() &&
          reference.delay() == topology.delay()) {
        out << "topology grid " << rows << " " << cols << " "
            << metric_name(metric) << "\n";
        wrote_grid = true;
        break;
      }
    }
  }
  if (!wrote_grid) {
    out << "topology custom " << m << "\n";
    for (std::int32_t i = 0; i < m; ++i) {
      out << "bcost " << i;
      for (std::int32_t c = 0; c < m; ++c) {
        out << " " << format_double(topology.wire_cost(i, c), 6);
      }
      out << "\n";
    }
    for (std::int32_t i = 0; i < m; ++i) {
      out << "delay " << i;
      for (std::int32_t c = 0; c < m; ++c) {
        out << " " << format_double(topology.delay(i, c), 6);
      }
      out << "\n";
    }
  }
  out << "capacities";
  for (const double capacity : topology.capacities()) {
    out << " " << format_double(capacity, 6);
  }
  out << "\n";

  for (const auto& component : problem.netlist().components()) {
    out << "component " << component.name << " "
        << format_double(component.size, 6) << "\n";
  }
  for (const auto& bundle : problem.netlist().bundles()) {
    out << "wire " << bundle.a << " " << bundle.b << " " << bundle.multiplicity
        << "\n";
  }
  problem.timing().matrix().for_each(
      [&](std::int32_t a, std::int32_t b, double bound) {
        if (a < b) out << "constraint " << a << " " << b << " "
                       << format_double(bound, 6) << "\n";
      });
  const auto& p = problem.linear_cost_matrix();
  if (!p.empty()) {
    for (std::int32_t i = 0; i < p.rows(); ++i) {
      for (std::int32_t j = 0; j < p.cols(); ++j) {
        if (p(i, j) != 0.0) {
          out << "linear " << i << " " << j << " " << format_double(p(i, j), 6)
              << "\n";
        }
      }
    }
  }
}

bool write_problem_file(const std::string& path, const PartitionProblem& problem) {
  std::ofstream out(path);
  if (!out) return false;
  write_problem(out, problem);
  return static_cast<bool>(out);
}

ParseResult read_assignment(std::istream& in, std::int32_t num_components,
                            std::int32_t num_partitions, Assignment& out) {
  out = Assignment(num_components, num_partitions);
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::string_view text = line;
    if (const auto hash = text.find('#'); hash != std::string_view::npos) {
      text = text.substr(0, hash);
    }
    const auto fields = split_whitespace(text);
    if (fields.empty()) continue;
    if (fields[0] != "assign" || fields.size() != 3) {
      return fail(line_number, "expected: assign <component> <partition>");
    }
    long long component = 0;
    long long partition = 0;
    if (!parse_int(fields[1], component) || !parse_int(fields[2], partition) ||
        component < 0 || component >= num_components || partition < 0 ||
        partition >= num_partitions) {
      return fail(line_number, "assign indices out of range");
    }
    if (out[static_cast<std::int32_t>(component)] != Assignment::kUnassigned) {
      return fail(line_number, "component assigned twice");
    }
    out.set(static_cast<std::int32_t>(component),
            static_cast<PartitionId>(partition));
  }
  if (!out.is_complete()) return {false, "assignment misses components"};
  return {};
}

void write_assignment(std::ostream& out, const Assignment& assignment) {
  out << "# qbpart assignment\n";
  for (std::int32_t j = 0; j < assignment.num_components(); ++j) {
    out << "assign " << j << " " << assignment[j] << "\n";
  }
}

bool write_assignment_file(const std::string& path, const Assignment& assignment) {
  std::ofstream out(path);
  if (!out) return false;
  write_assignment(out, assignment);
  return static_cast<bool>(out);
}

ParseResult read_assignment_file(const std::string& path,
                                 std::int32_t num_components,
                                 std::int32_t num_partitions, Assignment& out) {
  std::ifstream in(path);
  if (!in) return {false, "cannot open '" + path + "' for reading"};
  return read_assignment(in, num_components, num_partitions, out);
}

}  // namespace qbp
