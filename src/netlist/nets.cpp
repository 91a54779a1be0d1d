#include "netlist/nets.hpp"

#include <algorithm>
#include <sstream>

namespace qbp {

std::string HyperNetlist::validate() const {
  for (std::size_t k = 0; k < components_.size(); ++k) {
    if (!(components_[k].size > 0.0)) {
      std::ostringstream out;
      out << "component " << k << " has non-positive size";
      return out.str();
    }
  }
  for (std::size_t k = 0; k < nets_.size(); ++k) {
    const Net& net = nets_[k];
    if (net.pins.size() < 2) {
      std::ostringstream out;
      out << "net " << k << " ('" << net.name << "') has fewer than 2 pins";
      return out.str();
    }
    if (net.weight <= 0) {
      std::ostringstream out;
      out << "net " << k << " has non-positive weight";
      return out.str();
    }
    if (has_duplicate_pins(net)) {
      std::ostringstream out;
      out << "net " << k << " lists a component twice";
      return out.str();
    }
    const auto [lowest, highest] =
        std::minmax_element(net.pins.begin(), net.pins.end());
    if (*lowest < 0 || *highest >= num_components()) {
      std::ostringstream out;
      out << "net " << k << " references a component out of range";
      return out.str();
    }
  }
  return {};
}

Netlist HyperNetlist::expand(NetExpansion model) const {
  Netlist flat(name_);
  for (const Component& component : components_) {
    flat.add_component(component.name, component.size);
  }
  for (const Net& net : nets_) add_net_wires(flat, net, model);
  flat.finalize();
  return flat;
}

std::int64_t HyperNetlist::total_pins() const noexcept {
  std::int64_t pins = 0;
  for (const Net& net : nets_) pins += static_cast<std::int64_t>(net.pins.size());
  return pins;
}

std::int64_t expanded_pair_count(const Net& net, NetExpansion model) {
  const auto k = static_cast<std::int64_t>(net.pins.size());
  switch (model) {
    case NetExpansion::kClique: return k * (k - 1) / 2;
    case NetExpansion::kStar: return k - 1;
  }
  return 0;
}

bool has_duplicate_pins(const Net& net) {
  std::vector<ComponentId> sorted = net.pins;
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
}

void add_net_wires(Netlist& flat, const Net& net, NetExpansion model) {
  switch (model) {
    case NetExpansion::kClique:
      for (std::size_t a = 0; a < net.pins.size(); ++a) {
        for (std::size_t b = a + 1; b < net.pins.size(); ++b) {
          flat.add_wires(net.pins[a], net.pins[b], net.weight);
        }
      }
      break;
    case NetExpansion::kStar:
      for (std::size_t b = 1; b < net.pins.size(); ++b) {
        flat.add_wires(net.pins.front(), net.pins[b], net.weight);
      }
      break;
  }
}

}  // namespace qbp
