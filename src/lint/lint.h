#pragma once
/// \file lint.h
/// Static circuit / netlist / spec analyzer ("ape-lint", DESIGN.md §9).
///
/// Proves MNA solvability and flags topology and specification defects
/// *before* any solve: a malformed circuit — floating gate, voltage-
/// source loop, current-source cutset, no DC path to ground — fails in
/// microseconds with a named rule instead of burning a RunBudget inside
/// newton_dc's recovery ladder.
///
/// The structural checks consume Device::structure() (src/spice/device.h):
/// each device declares its DC edges (conductive / voltage-defined /
/// current-source / capacitive) and its high-impedance sense terminals,
/// and the analyzer runs two union-find passes:
///
///  - voltage-defined edges only: any edge closing a cycle (including
///    through ground) is a voltage-source loop — two branch equations
///    constrain the same mesh, so the MNA matrix is structurally
///    singular regardless of values (rule APE-L002);
///  - conductive + voltage-defined edges: any component not containing
///    ground has no DC reference. If a current source attaches to such
///    an island, KCL over the island is generically unsatisfiable — a
///    current-source cutset (APE-L003); otherwise the island's voltages
///    are held up only by gmin (APE-L004).
///
/// Rule catalog (ids are stable; severities in parentheses):
///
///   APE-L001 dangling-node     (warn)  node attached to fewer than two
///                                      device terminals
///   APE-L002 vsource-loop      (error) cycle of voltage-defined edges
///   APE-L003 isource-cutset    (error) current source driving an island
///                                      with no DC path to ground
///   APE-L004 no-ground-path    (error) island with no DC path to ground
///                                      (floating gate/bulk, cap-only node)
///   APE-L005 self-loop         (error) device with both terminals on the
///                                      same node
///   APE-L006 duplicate-device  (error) two devices share a name
///   APE-L007 empty-circuit     (warn)  no devices at all
///   APE-L008 node-alias        (note)  one node spelled with differing
///                                      case in the netlist text
///   APE-L009 opaque-device     (note)  device without structural model
///   APE-P001 parse-error       (error) netlist text failed to parse
///   APE-S001 bad-spec-value    (error) non-finite / non-positive spec or
///                                      process field
///   APE-S002 unit-range        (warn)  spec magnitude outside plausible
///                                      engineering range (unit slip)
///   APE-S003 wl-bounds         (error) sized W/L outside process limits
///   APE-S004 headroom          (error) supply cannot fit the stacked
///                                      Vov + Vth budget of the topology
///   APE-S005 zout-ignored      (note)  zout spec without output buffer
///   APE-T001 missing-probe     (error) testbench probe node absent from
///                                      the netlist
///   APE-T002 bad-source-ref    (error) testbench stimulus / supply name
///                                      absent or of the wrong element kind
///
/// Every Finding carries the ErrorContext provenance chain open at lint
/// time, so reports compose with the diagnostics layer exactly like
/// ape::Error messages do. Lint-first entry points: call
/// lint::lint_first_dc in place of dc_operating_point to fail a DC solve
/// fast with a LintError, and `BatchOptions::lint_first = true` to gate
/// every batch job on its spec lint (src/runtime/batch.h).

#include <memory>
#include <string>
#include <vector>

#include "src/estimator/modules.h"
#include "src/estimator/netlist.h"
#include "src/estimator/opamp.h"
#include "src/estimator/process.h"
#include "src/spice/analysis.h"
#include "src/spice/circuit.h"
#include "src/util/error.h"

namespace ape::lint {

enum class Severity { Note, Warn, Error };

const char* to_string(Severity s);

/// One static-analysis finding.
struct Finding {
  std::string rule;        ///< stable id, e.g. "APE-L002"
  Severity severity = Severity::Note;
  std::string message;     ///< human-readable, names devices/nodes
  std::string where;       ///< circuit title / spec name / file ("" = n/a)
  std::string provenance;  ///< ErrorContext chain open when found ("" = none)
};

/// A collection of findings plus convenience accessors.
struct Report {
  std::vector<Finding> findings;

  void add(std::string rule, Severity severity, std::string message,
           std::string where = "");
  void merge(const Report& other);

  int errors() const;
  int warnings() const;
  int notes() const;
  bool ok() const { return errors() == 0; }

  bool has(const std::string& rule) const;
  const Finding* first(const std::string& rule) const;

  /// "clean" or e.g. "2 errors, 1 warning (first: APE-L002 ...)".
  std::string summary() const;
  /// "findings" plus the errors / warnings / notes counts (json.h); the
  /// ape_lint CLI and the serve "proof" render this.
  void to_json(json::Writer& w) const;
};

/// Thrown by the lint-first entry points when a report has errors. The
/// report rides along (shared, so the exception stays cheaply copyable).
class LintError : public Error {
public:
  LintError(const std::string& what, Report report)
      : Error(what), report_(std::make_shared<Report>(std::move(report))) {}

  const Report& report() const { return *report_; }

private:
  std::shared_ptr<const Report> report_;
};

// --- circuit / netlist / testbench level -----------------------------------

/// Structural analysis of a built Circuit (rules APE-L001..L007, L009).
/// Works on finalized and non-finalized circuits alike; never solves.
Report lint_circuit(const spice::Circuit& ckt);

/// Parse \p text and lint the result (adds APE-P001 on parse failure and
/// APE-L008 case-alias notes from the spellings the parser recorded,
/// Circuit::node_spellings).
Report lint_netlist(const std::string& text);

/// Lint a testbench: its netlist plus the probe / stimulus / supply
/// references the measurement layer will dereference (APE-T001/T002).
Report lint_testbench(const est::Testbench& tb);

// --- spec / design level ----------------------------------------------------

/// Sanity rules for an opamp spec against a process (APE-S001/S002/S004/
/// S005): positive finite targets, plausible magnitudes, supply headroom
/// for the stacked Vov budget of the two-stage (+ Wilson) topology.
Report lint_spec(const est::OpAmpSpec& spec, const est::Process& proc);

/// Sanity rules for a module spec (APE-S001/S002).
Report lint_spec(const est::ModuleSpec& spec, const est::Process& proc);

/// W/L bounds of every sized transistor vs. the process (APE-S003).
Report lint_design(const est::OpAmpDesign& design, const est::Process& proc);

// --- lint-first integration -------------------------------------------------

/// Throw LintError when \p report has errors; \p what names the gated
/// operation in the exception message.
void require_clean(const Report& report, const std::string& what);

/// Finalize \p ckt, lint it and throw LintError on any error finding
/// instead of letting Newton burn budget on a structurally singular
/// system; a clean circuit goes on to dc_operating_point.
spice::Solution lint_first_dc(spice::Circuit& ckt,
                              const spice::DcOptions& opts = {});

}  // namespace ape::lint
