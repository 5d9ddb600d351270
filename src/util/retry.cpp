#include "src/util/retry.h"

#include <algorithm>

namespace ape {

const char* to_string(RetryRung rung) {
  switch (rung) {
    case RetryRung::Initial: return "initial";
    case RetryRung::Retry: return "retry";
    case RetryRung::NumericRecovery: return "numeric-recovery";
    case RetryRung::Relaxed: return "relaxed";
    case RetryRung::EstimateOnly: return "estimate-only";
    case RetryRung::Fail: break;
  }
  return "fail";
}

int RetryPolicy::max_attempts() const {
  return 1 + std::max(plain_retries, 0) +
         std::max(numeric_recovery_retries, 0) + std::max(relaxed_retries, 0) +
         (estimate_fallback ? 1 : 0);
}

RetryRung RetryPolicy::rung(int attempt) const {
  const int plain = std::max(plain_retries, 0);
  const int numeric = std::max(numeric_recovery_retries, 0);
  const int relaxed = std::max(relaxed_retries, 0);
  if (attempt <= 0) return RetryRung::Initial;
  if (attempt <= plain) return RetryRung::Retry;
  if (attempt <= plain + numeric) return RetryRung::NumericRecovery;
  if (attempt <= plain + numeric + relaxed) return RetryRung::Relaxed;
  if (estimate_fallback && attempt == estimate_attempt()) {
    return RetryRung::EstimateOnly;
  }
  return RetryRung::Fail;
}

RetryRung RetryPolicy::next_rung(ErrorClass klass, int attempt) const {
  if (klass == ErrorClass::Permanent) {
    // Retrying or relaxing cannot change a permanent failure: jump to
    // the estimate fallback (when enabled and not already tried).
    if (estimate_fallback && attempt < estimate_attempt()) {
      return RetryRung::EstimateOnly;
    }
    return RetryRung::Fail;
  }
  return rung(attempt + 1);
}

int RetryPolicy::estimate_attempt() const {
  return estimate_fallback ? max_attempts() - 1 : -1;
}

}  // namespace ape
