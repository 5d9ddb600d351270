#include "src/spice/circuit.h"

#include <algorithm>
#include <cctype>

namespace ape::spice {
namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

bool is_ground_name(const std::string& name) {
  const std::string l = lower(name);
  return l == "0" || l == "gnd" || l == "ground";
}

}  // namespace

NodeId Circuit::node(const std::string& name) {
  if (is_ground_name(name)) return kGround;
  const std::string key = lower(name);
  auto it = node_ids_.find(key);
  if (it != node_ids_.end()) return it->second;
  ensure_not_finalized();
  const NodeId id = static_cast<NodeId>(node_names_.size());
  node_names_.push_back(name);
  node_ids_.emplace(key, id);
  return id;
}

NodeId Circuit::find_node(const std::string& name) const {
  if (is_ground_name(name)) return kGround;
  auto it = node_ids_.find(lower(name));
  if (it == node_ids_.end()) throw LookupError("no node named '" + name + "'");
  return it->second;
}

const std::string& Circuit::node_name(NodeId id) const {
  static const std::string kGroundName = "0";
  if (id == kGround) return kGroundName;
  return node_names_.at(static_cast<size_t>(id));
}

const MosModelCard* Circuit::add_model(MosModelCard card) {
  ensure_not_finalized();
  const std::string key = lower(card.name);
  auto [it, inserted] = models_.insert_or_assign(key, std::move(card));
  (void)inserted;
  return &it->second;
}

const MosModelCard* Circuit::model(const std::string& name) const {
  auto it = models_.find(lower(name));
  if (it == models_.end()) throw LookupError("no .model named '" + name + "'");
  return &it->second;
}

void Circuit::set_nodeset(NodeId node, double volts) {
  if (node == kGround) return;
  for (NodeSet& ns : nodesets_) {
    if (ns.node == node) {
      ns.volts = volts;
      return;
    }
  }
  nodesets_.push_back({node, volts});
}

Device* Circuit::find(const std::string& name) {
  const std::string key = lower(name);
  for (auto& d : devices_) {
    if (lower(d->name()) == key) return d.get();
  }
  return nullptr;
}

const Device* Circuit::find(const std::string& name) const {
  return const_cast<Circuit*>(this)->find(name);
}

void Circuit::finalize() {
  if (finalized_) return;
  size_t next = node_names_.size();
  for (auto& d : devices_) d->claim_branches(next);
  // Split into the compiled kernel's stamp lists, preserving device order
  // within each class so stamping stays deterministic.
  linear_devices_.clear();
  nonlinear_devices_.clear();
  for (auto& d : devices_) {
    (d->is_nonlinear() ? nonlinear_devices_ : linear_devices_).push_back(d.get());
  }
  mna_dim_ = next;
  finalized_ = true;
}

}  // namespace ape::spice
