#pragma once
/// \file retry.h
/// Declarative retry ladder with deterministic exponential backoff — the
/// recovery policy of the supervised batch runtime (DESIGN.md section
/// 10).
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
///   next relaxed_retries attempts  -> Relaxed   (JobContext::relaxation:
///                                                widened tolerances,
///                                                higher gmin floor)
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
/// Backoff between attempts is exponential with deterministic jitter:
/// backoff_s(job, attempt) is a pure function of (policy, job, attempt)
/// via Rng::derive_stream, so a supervised run waits the same amount
/// run-to-run and replay of a failing schedule is exact.

#include <cstdint>

#include "src/util/diagnostics.h"
#include "src/util/error.h"

namespace ape {

/// The escalation rung an attempt runs at (see file comment).
enum class RetryRung {
  Initial,          ///< attempt 0, normal configuration
  Retry,            ///< plain re-run
  NumericRecovery,  ///< re-run under NumericHealthMode::Force
  Relaxed,          ///< re-run under the policy's SolverRelaxation
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
  /// Retry jobs whose synthesis finished but whose simulator
  /// verification threw (outcome.sim_failed): the verification failure
  /// is usually a transient non-convergence that the Relaxed rung can
  /// clear. Jobs that ran out of ladder keep their best-so-far outcome.
  bool retry_sim_failures = true;

  /// Relaxation applied on Relaxed rungs.
  SolverRelaxation relaxation;

  /// First backoff wait in seconds (0 disables waiting entirely).
  double backoff_base_s = 0.0;
  /// Multiplier per subsequent attempt.
  double backoff_factor = 2.0;
  /// Cap on a single wait.
  double backoff_max_s = 5.0;
  /// +/- fraction of deterministic jitter applied to each wait.
  double jitter_frac = 0.25;
  /// Seed of the jitter streams (derived per (job, attempt)).
  uint64_t jitter_seed = 0x5eedULL;

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

  /// Deterministic backoff before 0-based attempt \p attempt of job
  /// \p job: backoff_base_s * backoff_factor^(attempt-1), jittered by
  /// +/- jitter_frac from the stream derived of (jitter_seed, job,
  /// attempt), capped at backoff_max_s. 0 for the initial attempt or
  /// when backoff_base_s == 0.
  double backoff_s(uint64_t job, int attempt) const;
};

}  // namespace ape
