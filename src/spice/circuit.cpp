#include "src/spice/circuit.h"

#include <algorithm>

namespace ape::spice {
namespace {

/// ASCII (C-locale) lower case.
char fold(char c) { return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c; }

std::string lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = fold(c);
  return out;
}

bool iequals(std::string_view a, std::string_view lower_word) {
  if (a.size() != lower_word.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (fold(a[i]) != lower_word[i]) return false;
  }
  return true;
}

bool is_ground_name(std::string_view name) {
  return iequals(name, "0") || iequals(name, "gnd") || iequals(name, "ground");
}

}  // namespace

bool CaseFoldLess::operator()(std::string_view a, std::string_view b) const {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const auto x = static_cast<unsigned char>(fold(a[i]));
    const auto y = static_cast<unsigned char>(fold(b[i]));
    if (x != y) return x < y;
  }
  return a.size() < b.size();
}

NodeId Circuit::node(std::string_view name) {
  if (is_ground_name(name)) return kGround;
  auto it = node_ids_.find(name);
  if (it != node_ids_.end()) return it->second;
  ensure_not_finalized();
  const NodeId id = static_cast<NodeId>(node_names_.size());
  node_names_.emplace_back(name);
  node_ids_.emplace(lower(name), id);
  return id;
}

NodeId Circuit::find_node(std::string_view name) const {
  if (is_ground_name(name)) return kGround;
  auto it = node_ids_.find(name);
  if (it == node_ids_.end()) throw LookupError("no node named '" + std::string(name) + "'");
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

const MosModelCard* Circuit::model(std::string_view name) const {
  auto it = models_.find(name);
  if (it == models_.end()) throw LookupError("no .model named '" + std::string(name) + "'");
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
