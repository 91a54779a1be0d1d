#include "netlist/netlist.hpp"

#include <numeric>
#include <sstream>
#include <utility>

#include "util/check.hpp"

namespace qbp {

ComponentId Netlist::add_component(std::string component_name, double size) {
  components_.push_back({std::move(component_name), size});
  sizes_.push_back(size);
  finalized_ = false;
  return static_cast<ComponentId>(components_.size() - 1);
}

void Netlist::add_wires(ComponentId a, ComponentId b, std::int32_t multiplicity) {
  // Always-on: this is a boundary the problem_io parser feeds from
  // untrusted bytes.  Under the server's throw mode a violation fails the
  // one job instead of aborting the daemon.
  QBP_CHECK_NE(a, b) << "self-loop wires are not allowed";
  QBP_CHECK_GT(multiplicity, 0) << "wire multiplicity must be positive";
  if (a > b) std::swap(a, b);
  bundles_.push_back({a, b, multiplicity});
  finalized_ = false;
}

double Netlist::total_size() const noexcept {
  double total = 0.0;
  for (const auto& c : components_) total += c.size;
  return total;
}

std::int64_t Netlist::total_wires() const noexcept {
  std::int64_t total = 0;
  for (const auto& bundle : bundles_) total += bundle.multiplicity;
  return total;
}

void Netlist::finalize() {
  if (finalized_) return;
  // Leaves the bundles merged and ascending by (a, b).
  adjacency_ = Csr<std::int32_t>::from_symmetric_pairs(
      num_components(), bundles_,
      [](WireBundle& kept, const WireBundle& other) {
        kept.multiplicity += other.multiplicity;
      },
      [](const WireBundle& w) {
        return Triplet<std::int32_t>{w.a, w.b, w.multiplicity};
      });
  finalized_ = true;
}

std::string Netlist::validate() const {
  const auto n = num_components();
  for (std::int32_t j = 0; j < n; ++j) {
    if (!(components_[static_cast<std::size_t>(j)].size > 0.0)) {
      std::ostringstream out;
      out << "component " << j << " ('"
          << components_[static_cast<std::size_t>(j)].name
          << "') has non-positive size "
          << components_[static_cast<std::size_t>(j)].size;
      return out.str();
    }
  }
  for (const auto& bundle : bundles_) {
    if (bundle.a < 0 || bundle.a >= n || bundle.b < 0 || bundle.b >= n) {
      std::ostringstream out;
      out << "wire bundle (" << bundle.a << ", " << bundle.b
          << ") references a component outside [0, " << n << ")";
      return out.str();
    }
    if (bundle.a == bundle.b) {
      std::ostringstream out;
      out << "wire bundle on component " << bundle.a << " is a self-loop";
      return out.str();
    }
    if (bundle.multiplicity <= 0) {
      std::ostringstream out;
      out << "wire bundle (" << bundle.a << ", " << bundle.b
          << ") has non-positive multiplicity " << bundle.multiplicity;
      return out.str();
    }
  }
  return {};
}

}  // namespace qbp
