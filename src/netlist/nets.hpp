// Multi-pin net support (extension beyond the paper).
//
// The paper's A matrix models point-to-point wire counts; real netlists
// contain multi-pin nets.  This module expands hyperedges into the wire
// bundles the rest of the library consumes, with the two standard models:
//
//   kClique -- every pin pair gets `weight` wires.  Exact for 2-pin nets,
//              overcounts the wiring of large nets (k(k-1)/2 pairs), but
//              keeps the quadratic form faithful to "every pair apart
//              costs".
//   kStar   -- the first pin (the driver) connects to every sink with
//              `weight` wires: k-1 pairs, the usual linear-size
//              approximation.
//
// Expansion happens before problem construction, so the QBP formulation,
// baselines and cost models are untouched.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace qbp {

struct Net {
  std::string name;
  std::vector<ComponentId> pins;  // >= 2 distinct components
  std::int32_t weight = 1;        // wires contributed per expanded pair
};

enum class NetExpansion { kClique, kStar };

/// A netlist-with-hyperedges front end; `expand()` produces the flat
/// Netlist used everywhere else.
class HyperNetlist {
 public:
  HyperNetlist() = default;
  explicit HyperNetlist(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  ComponentId add_component(std::string component_name, double size) {
    components_.push_back({std::move(component_name), size});
    return static_cast<ComponentId>(components_.size() - 1);
  }

  /// Add a net over >= 2 distinct pins; duplicate pins are rejected by
  /// validate().  Returns the net index.
  std::int32_t add_net(std::string net_name, std::vector<ComponentId> pins,
                       std::int32_t weight = 1) {
    nets_.push_back({std::move(net_name), std::move(pins), weight});
    return static_cast<std::int32_t>(nets_.size() - 1);
  }

  [[nodiscard]] std::int32_t num_components() const noexcept {
    return static_cast<std::int32_t>(components_.size());
  }
  [[nodiscard]] const std::vector<Net>& nets() const noexcept { return nets_; }
  [[nodiscard]] const std::vector<Component>& components() const noexcept {
    return components_;
  }

  /// Structural validation; empty string when consistent.
  [[nodiscard]] std::string validate() const;

  /// Flatten to a pairwise netlist under the chosen expansion model.
  [[nodiscard]] Netlist expand(NetExpansion model) const;

  /// Total pins over all nets (a common netlist size metric).
  [[nodiscard]] std::int64_t total_pins() const noexcept;

 private:
  std::string name_;
  std::vector<Component> components_;
  std::vector<Net> nets_;
};

/// Number of wire-bundle pairs `net` expands to under `model`.
[[nodiscard]] std::int64_t expanded_pair_count(const Net& net, NetExpansion model);

/// Does `net` list a component twice?  Sorts a copy: O(k log k) in the pin
/// count k, so a hostile million-pin line costs no more than its parse.
[[nodiscard]] bool has_duplicate_pins(const Net& net);

/// Add the expanded_pair_count(net, model) wire bundles of `net` to `flat`
/// (HyperNetlist::expand and the problem_io `net` / `netstar` lines).
void add_net_wires(Netlist& flat, const Net& net, NetExpansion model);

}  // namespace qbp
