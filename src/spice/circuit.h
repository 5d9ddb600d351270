#pragma once
/// \file circuit.h
/// Circuit container: node table, model cards and the device list.

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/spice/device.h"
#include "src/spice/mos_model.h"
#include "src/util/error.h"

namespace ape::spice {

/// Case-insensitive ordering of names (ASCII case folding), transparent so
/// a lookup takes a std::string_view without building a lower-cased key.
struct CaseFoldLess {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const;
};

/// A flat circuit: named nodes, .model cards and devices. Nodes named
/// "0", "gnd" or "ground" (case-insensitive) map to the reference node.
class Circuit {
public:
  Circuit() = default;
  explicit Circuit(std::string title) : title_(std::move(title)) {}

  const std::string& title() const { return title_; }
  void set_title(std::string t) { title_ = std::move(t); }

  /// Get or create the node with this name. Names fold case, so "Out"
  /// and "out" are one node; each distinct spelling is recorded.
  NodeId node(std::string_view name);

  /// Look up an existing node; throws LookupError if absent.
  NodeId find_node(std::string_view name) const;

  /// Name of a node id (for reporting): its first spelling.
  const std::string& node_name(NodeId id) const;

  /// Every distinct spelling node() was given for a (non-ground) node,
  /// in first-use order; more than one means the names were folded.
  const std::vector<std::string>& node_spellings(NodeId id) const {
    return node_spellings_.at(static_cast<size_t>(id));
  }

  size_t num_nodes() const { return node_spellings_.size(); }

  /// Register a .model card; returns a pointer that stays valid for the
  /// life of the circuit.
  const MosModelCard* add_model(MosModelCard card);

  /// Find a model card by name; throws LookupError if absent.
  const MosModelCard* model(std::string_view name) const;

  /// Construct a device in place. Example:
  ///   ckt.add<Resistor>("r1", ckt.node("a"), ckt.node("b"), 1e3);
  template <typename D, typename... Args>
  D& add(Args&&... args) {
    ensure_not_finalized();
    auto dev = std::make_unique<D>(std::forward<Args>(args)...);
    D& ref = *dev;
    devices_.push_back(std::move(dev));
    return ref;
  }

  /// Find a device by name (nullptr if absent).
  Device* find(const std::string& name);
  const Device* find(const std::string& name) const;

  /// Find a device by name with a type check; throws LookupError on
  /// missing name or wrong type.
  template <typename D>
  D& find_as(const std::string& name) {
    Device* d = find(name);
    if (d == nullptr) throw LookupError("no device named '" + name + "'");
    auto* t = dynamic_cast<D*>(d);
    if (t == nullptr) throw LookupError("device '" + name + "' has unexpected type");
    return *t;
  }

  const std::vector<std::unique_ptr<Device>>& devices() const { return devices_; }

  /// Devices whose stamps are independent of the candidate solution
  /// (R, C, L, sources, controlled sources), in device order. Valid after
  /// finalize(); stamped once per baseline by the compiled kernel
  /// (src/spice/kernel.h) instead of once per Newton iteration.
  const std::vector<Device*>& linear_devices() const { return linear_devices_; }

  /// Devices restamped every Newton iteration (MOSFETs, diodes), in
  /// device order. Valid after finalize().
  const std::vector<Device*>& nonlinear_devices() const { return nonlinear_devices_; }

  /// Resolve branch indices, split devices into linear / nonlinear stamp
  /// lists and fix the MNA dimension. Called implicitly by the analyses;
  /// calling add() afterwards throws.
  void finalize();
  bool finalized() const { return finalized_; }

  /// MNA dimension = nodes + branches (valid after finalize()).
  size_t dim() const { return mna_dim_; }

  /// One `.nodeset` entry: an initial guess for a node voltage.
  struct NodeSet {
    NodeId node;
    double volts;
  };

  /// Record a DC initial guess for \p node (a later entry for the same
  /// node replaces the earlier one; the reference node is ignored).
  /// dc_operating_point() first tries one Newton solve from these values
  /// before falling back to its ladders (analysis.h).
  void set_nodeset(NodeId node, double volts);

  /// The recorded guesses, in first-set order (empty: no seed).
  const std::vector<NodeSet>& nodesets() const { return nodesets_; }

private:
  void ensure_not_finalized() const {
    if (finalized_) throw Error("circuit is finalized; no further edits allowed");
  }

  std::string title_;
  std::vector<std::vector<std::string>> node_spellings_;
  std::map<std::string, NodeId, CaseFoldLess> node_ids_;
  std::map<std::string, MosModelCard, CaseFoldLess> models_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::vector<Device*> linear_devices_;
  std::vector<Device*> nonlinear_devices_;
  std::vector<NodeSet> nodesets_;
  size_t mna_dim_ = 0;
  bool finalized_ = false;
};

}  // namespace ape::spice
