// Circuit netlist: components with silicon-area sizes, connected by wire
// bundles.
//
// The paper's input "I. Descriptions of the Circuit" maps onto this type:
//   - J, the set of N components, with sizes s_j           -> components()
//   - A, the N x N interconnection matrix a_{j1 j2}        -> connection_matrix()
// Wires are physically undirected; a bundle between (a, b) with multiplicity
// w contributes a_{ab} = a_{ba} = w, matching the symmetric A of the paper's
// Section 3.3 example ("five wires connecting a and b" => A[a][b] =
// A[b][a] = 5).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sparse/csr.hpp"
#include "util/check.hpp"

namespace qbp {

using ComponentId = std::int32_t;

struct Component {
  std::string name;
  /// Silicon area demand (the paper's s_j); arbitrary positive real.
  double size = 1.0;
};

/// A bundle of `multiplicity` parallel wires between two distinct components.
struct WireBundle {
  ComponentId a = 0;
  ComponentId b = 0;
  std::int32_t multiplicity = 1;

  friend bool operator==(const WireBundle&, const WireBundle&) = default;
};

class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Append a component; returns its id (dense, 0-based).  Counts as an
  /// add: it changes A's dimension, so finalize() must run again before
  /// the merged form is read.
  ComponentId add_component(std::string component_name, double size);

  /// Add `multiplicity` wires between distinct components a and b.
  /// Repeated calls for the same pair accumulate at finalize().
  void add_wires(ComponentId a, ComponentId b, std::int32_t multiplicity = 1);

  [[nodiscard]] std::int32_t num_components() const noexcept {
    return static_cast<std::int32_t>(components_.size());
  }

  [[nodiscard]] const Component& component(ComponentId id) const noexcept {
    return components_[static_cast<std::size_t>(id)];
  }

  [[nodiscard]] const std::vector<Component>& components() const noexcept {
    return components_;
  }

  [[nodiscard]] double component_size(ComponentId id) const noexcept {
    return components_[static_cast<std::size_t>(id)].size;
  }

  /// All component sizes as a dense vector (the paper's s vector).  The
  /// reference stays valid until the next add_component().  Returning a
  /// reference (not a fresh vector) keeps spans taken over it valid --
  /// binding a span to a by-value accessor's temporary is the bug class
  /// qbp_lint's `dangling-span` rule exists for.
  [[nodiscard]] const std::vector<double>& sizes() const noexcept {
    return sizes_;
  }

  /// Sum of all component sizes.
  [[nodiscard]] double total_size() const noexcept;

  /// The merged bundles: one per connected pair, a < b, ascending by
  /// (a, b).
  [[nodiscard]] const std::vector<WireBundle>& bundles() const {
    check_finalized();
    return bundles_;
  }

  /// Total wire count Sum of multiplicities over unordered pairs -- the
  /// "# of wires" column of the paper's Table I.
  [[nodiscard]] std::int64_t total_wires() const noexcept;

  /// Number of distinct connected unordered pairs.
  [[nodiscard]] std::int64_t num_connected_pairs() const {
    return static_cast<std::int64_t>(bundles().size());
  }

  /// Sort the bundles added so far, merge each pair's multiplicities and
  /// fill A; idempotent.  The readers of the merged form (bundles(),
  /// connection_matrix(), degree(), num_connected_pairs()) fail a contract
  /// check when anything was added since the last finalize(), so a
  /// finalized netlist is only ever read, never written, by its const
  /// members.  PartitionProblem's constructor finalizes its netlist.
  void finalize();

  /// The symmetric interconnection matrix A (CSR, both directions stored).
  [[nodiscard]] const Csr<std::int32_t>& connection_matrix() const {
    check_finalized();
    return adjacency_;
  }

  /// Degree (number of distinct neighbors) of a component.
  [[nodiscard]] std::int32_t degree(ComponentId id) const {
    return static_cast<std::int32_t>(connection_matrix().row_indices(id).size());
  }

  /// Basic structural validation: ids in range, no self-loops,
  /// positive sizes and multiplicities.  Returns an empty string when valid,
  /// else a human-readable description of the first problem found.
  [[nodiscard]] std::string validate() const;

 private:
  void check_finalized() const {
    QBP_CHECK(finalized_) << "netlist '" << name_
                          << "' read before finalize() or after an add";
  }

  std::string name_;
  std::vector<Component> components_;
  std::vector<double> sizes_;  // mirrors components_[i].size
  std::vector<WireBundle> bundles_;  // as added; merged by finalize()
  Csr<std::int32_t> adjacency_;
  bool finalized_ = false;
};

}  // namespace qbp
