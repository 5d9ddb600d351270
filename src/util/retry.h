#pragma once
/// \file retry.h
/// Declarative retry ladder — the recovery policy of the supervised batch
/// runtime (DESIGN.md section 10).
///
/// A RetryPolicy maps attempt ordinals onto escalation rungs:
///
///   attempt 0                      -> Initial   (normal configuration)
///   attempts 1 .. plain_retries    -> Retry     (identical re-run; a
///                                                transient fault may
///                                                simply have passed)
///   next numeric_recovery_retries  -> NumericRecovery (re-run under
///                                                NumericHealthMode::Force:
///                                                equilibration, condition
///                                                estimation and iterative
///                                                refinement on every solve
///                                                — DESIGN.md section 15)
///   next relaxed_retries attempts  -> Relaxed   (JobContext::relaxed:
///                                                widened tolerances,
///                                                higher gmin floor; the
///                                                kRelaxed* constants of
///                                                spice/analysis.h)
///   one more, if estimate_fallback -> EstimateOnly (skip synthesis /
///                                                simulation, return the
///                                                APE estimate alone)
///   afterwards                     -> Fail
///
/// Escalation consumes rungs in order for *transient* failures
/// (ErrorClass::Transient — Newton non-convergence, singular LU). A
/// *permanent* failure (infeasible spec, parse error) skips straight to
/// EstimateOnly (retrying cannot change the answer) and from there to
/// Fail.
///
/// Attempts run back to back: no attempt waits on a contended resource,
/// so there is no backoff between them.

#include "src/util/error.h"

namespace ape {

/// The escalation rung an attempt runs at (see file comment).
enum class RetryRung {
  Initial,          ///< attempt 0, normal configuration
  Retry,            ///< plain re-run
  NumericRecovery,  ///< re-run under NumericHealthMode::Force
  Relaxed,          ///< re-run with JobContext::relaxed set
  EstimateOnly,     ///< APE estimate fallback, no synthesis / simulation
  Fail,             ///< ladder exhausted
};

const char* to_string(RetryRung rung);

struct RetryPolicy {
  /// Plain re-runs after the initial attempt (rung Retry).
  int plain_retries = 0;
  /// Re-runs under forced numerical-health recovery (rung
  /// NumericRecovery): equilibration + condition estimate + iterative
  /// refinement on every solve. Default 0 keeps existing ladders
  /// unchanged; the batch / serve entry points enable one rung.
  int numeric_recovery_retries = 0;
  /// Re-runs under relaxed solver tolerances (rung Relaxed).
  int relaxed_retries = 0;
  /// Final rung: fall back to the bare APE estimate when every synthesis
  /// attempt failed (the estimate is analytic and nearly always exists).
  bool estimate_fallback = false;

  /// Total attempts the ladder allows (initial + retries + relaxed +
  /// the estimate fallback when enabled). Always >= 1.
  int max_attempts() const;

  /// The rung attempt ordinal \p attempt (0-based) runs at, for a job
  /// escalating one rung per failure.
  RetryRung rung(int attempt) const;

  /// The rung to jump to after a failure of class \p klass at
  /// 0-based attempt \p attempt, honouring the transient/permanent
  /// taxonomy (see file comment). Returns Fail when the ladder is done.
  RetryRung next_rung(ErrorClass klass, int attempt) const;

  /// The 0-based attempt ordinal of the EstimateOnly rung (==
  /// max_attempts() - 1 when the fallback is enabled, -1 otherwise).
  int estimate_attempt() const;
};

}  // namespace ape
