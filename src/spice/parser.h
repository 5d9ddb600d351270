#pragma once
/// \file parser.h
/// SPICE netlist and .model card parser.
///
/// Supported elements: R, C, L, V, I, E (VCVS), G (VCCS), F (CCCS),
/// H (CCVS), D (diode), M (MOSFET). Supported cards: .model (nmos/pmos,
/// level 1/2/3), .nodeset V(node)=value ... (DC initial guesses, see
/// Circuit::set_nodeset), .end. Lines starting with '*' are comments; '+' is a
/// continuation; everything is case-insensitive; engineering suffixes
/// (k, u, meg, ...) are accepted on all numbers.
///
/// Independent sources accept: <dc-value>, DC <v>, AC <mag> [<phase>],
/// PULSE(v1 v2 td tr tf pw per), SIN(vo va freq [td theta]),
/// PWL(t1 v1 t2 v2 ...), in any combination.

#include <string>

#include "src/spice/circuit.h"

namespace ape::spice {

/// Parse a full netlist (first line is the title, per SPICE convention).
/// Throws ParseError naming the line on malformed input, and LookupError
/// naming the line for a MOSFET whose model card does not exist. Line N
/// counts logical lines: comment and blank lines are not counted and a
/// '+' continuation belongs to the line it continues.
Circuit parse_netlist(const std::string& text);

/// Parse a single ".model name nmos|pmos (k=v ...)" card body.
/// \p line is the full card text including the ".model" keyword.
/// Throws ParseError on a malformed card.
MosModelCard parse_model_card(const std::string& line);

}  // namespace ape::spice
