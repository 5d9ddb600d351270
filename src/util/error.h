#pragma once
/// \file error.h
/// Error hierarchy for the APE library.
///
/// All library errors derive from ape::Error (itself a std::runtime_error)
/// so callers can catch either the whole family or a specific condition.
///
/// Every ape::Error is automatically prefixed with the provenance chain
/// of the ErrorContext scopes open on the throwing thread (see
/// diagnostics.h), so deep failures name the module / component / device
/// / solver plan they occurred in without manual re-wrapping.
///
/// Taxonomy: every error also carries an ErrorClass that recovery layers
/// (the MemoCache negative-caching policy, the batch supervisor's retry
/// ladder — DESIGN.md section 10) use to decide whether trying again can
/// possibly help:
///
///  - Transient: a numerical procedure failed *for this attempt* —
///    Newton non-convergence, a singular factorization, an expired run
///    budget. The same request may succeed on retry, with relaxed
///    tolerances, or once contention passes. NumericError defaults here.
///  - Permanent: the request itself is wrong — an infeasible spec, a
///    malformed netlist, an unknown topology. No amount of retrying
///    changes the answer. SpecError / ParseError / LookupError default
///    here, as does the base Error.

#include <stdexcept>
#include <string>

#include "src/util/diagnostics.h"

namespace ape {

/// Whether a failure can be expected to clear on retry (see file comment).
enum class ErrorClass {
  Transient,  ///< attempt-specific: retry / relax / back off may recover
  Permanent,  ///< request-specific: retrying cannot change the outcome
};

const char* to_string(ErrorClass klass);

/// Base class of every exception thrown by the APE library.
class Error : public std::runtime_error {
public:
  explicit Error(const std::string& what,
                 ErrorClass klass = ErrorClass::Permanent)
      : std::runtime_error(annotate_with_context(what)), klass_(klass) {}

  /// Retry taxonomy of this failure (see file comment).
  ErrorClass klass() const { return klass_; }
  bool transient() const { return klass_ == ErrorClass::Transient; }

private:
  ErrorClass klass_;
};

/// A user specification cannot be met (e.g. requested gm at the given
/// bias current implies a non-physical device).
class SpecError : public Error {
public:
  explicit SpecError(const std::string& what)
      : Error(what, ErrorClass::Permanent) {}
};

/// Malformed netlist / model card input.
class ParseError : public Error {
public:
  explicit ParseError(const std::string& what)
      : Error(what, ErrorClass::Permanent) {}
};

/// A numerical procedure failed (singular matrix, Newton divergence, ...).
/// Transient by default: the failure belongs to the attempt (tolerances,
/// starting point, injected fault), not to the request.
class NumericError : public Error {
public:
  explicit NumericError(const std::string& what,
                        ErrorClass klass = ErrorClass::Transient)
      : Error(what, klass) {}
};

/// Request references an unknown topology / component / parameter.
class LookupError : public Error {
public:
  explicit LookupError(const std::string& what)
      : Error(what, ErrorClass::Permanent) {}
};

inline const char* to_string(ErrorClass klass) {
  return klass == ErrorClass::Transient ? "transient" : "permanent";
}

}  // namespace ape
