#include "netlist/netlist.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <utility>

#include "util/check.hpp"

namespace qbp {

ComponentId Netlist::add_component(std::string component_name, double size) {
  components_.push_back({std::move(component_name), size});
  sizes_.push_back(size);
  return static_cast<ComponentId>(components_.size() - 1);
}

Netlist Netlist::from_sorted_parts(std::string name,
                                   std::vector<Component> components,
                                   std::vector<WireBundle> bundles) {
  Netlist netlist{std::move(name)};
  netlist.components_ = std::move(components);
  netlist.sizes_.reserve(netlist.components_.size());
  for (const Component& component : netlist.components_) {
    netlist.sizes_.push_back(component.size);
  }

  // Multiplicities are checked here; ordering and endpoint ranges are
  // checked by from_symmetric_pairs below on the same arrays.
  std::vector<std::int32_t> a(bundles.size());
  std::vector<std::int32_t> b(bundles.size());
  std::vector<std::int32_t> multiplicity(bundles.size());
  for (std::size_t k = 0; k < bundles.size(); ++k) {
    QBP_CHECK_GT(bundles[k].multiplicity, 0)
        << "wire multiplicity must be positive";
    a[k] = bundles[k].a;
    b[k] = bundles[k].b;
    multiplicity[k] = bundles[k].multiplicity;
  }
  netlist.adjacency_ = Csr<std::int32_t>::from_symmetric_pairs(
      netlist.num_components(), a, b, multiplicity);
  netlist.bundles_ = std::move(bundles);
  netlist.bundles_dirty_ = false;
  netlist.adjacency_dirty_ = false;
  return netlist;
}

void Netlist::add_wires(ComponentId a, ComponentId b, std::int32_t multiplicity) {
  // Always-on: this is a boundary the problem_io parser feeds from
  // untrusted bytes.  Under the server's throw mode a violation fails the
  // one job instead of aborting the daemon.
  QBP_CHECK_NE(a, b) << "self-loop wires are not allowed";
  QBP_CHECK_GT(multiplicity, 0) << "wire multiplicity must be positive";
  if (a > b) std::swap(a, b);
  bundles_.push_back({a, b, multiplicity});
  bundles_dirty_ = true;
  adjacency_dirty_ = true;
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

std::int64_t Netlist::num_connected_pairs() const {
  const_cast<Netlist*>(this)->finalize();
  return static_cast<std::int64_t>(bundles_.size());
}

void Netlist::finalize() {
  if (!bundles_dirty_) return;
  std::sort(bundles_.begin(), bundles_.end(),
            [](const WireBundle& x, const WireBundle& y) {
              return x.a != y.a ? x.a < y.a : x.b < y.b;
            });
  std::size_t out = 0;
  for (std::size_t k = 0; k < bundles_.size(); ++k) {
    if (out > 0 && bundles_[out - 1].a == bundles_[k].a &&
        bundles_[out - 1].b == bundles_[k].b) {
      bundles_[out - 1].multiplicity += bundles_[k].multiplicity;
    } else {
      bundles_[out++] = bundles_[k];
    }
  }
  bundles_.resize(out);
  bundles_dirty_ = false;
}

const Csr<std::int32_t>& Netlist::connection_matrix() const {
  if (adjacency_dirty_) {
    const_cast<Netlist*>(this)->finalize();
    std::vector<Triplet<std::int32_t>> triplets;
    triplets.reserve(2 * bundles_.size());
    for (const auto& bundle : bundles_) {
      triplets.push_back({bundle.a, bundle.b, bundle.multiplicity});
      triplets.push_back({bundle.b, bundle.a, bundle.multiplicity});
    }
    adjacency_ = Csr<std::int32_t>::from_triplets(num_components(),
                                                  num_components(),
                                                  std::move(triplets));
    adjacency_dirty_ = false;
  }
  return adjacency_;
}

std::int32_t Netlist::degree(ComponentId id) const {
  return static_cast<std::int32_t>(connection_matrix().row_indices(id).size());
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
