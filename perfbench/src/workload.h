#pragma once
/// \file workload.h
/// Seeded input generator. Every workload perturbs the paper's Table 1
/// opamp specs and Table 5 module specs; the knobs set how much work the
/// inputs share (exact repeats, which the estimate cache serves) and how
/// many are provably infeasible (which the interval prover refutes before
/// any synthesis). The same seed always yields the same inputs: the
/// generator uses its own splitmix64 stream, not the library's RNG.

#include <cstdint>
#include <vector>

#include "src/estimator/modules.h"
#include "src/estimator/opamp.h"
#include "src/estimator/process.h"

namespace perfbench {

/// splitmix64: tiny, fast and fully specified, so inputs never depend on
/// the standard library's distribution implementations.
class SeedStream {
public:
  explicit SeedStream(uint64_t seed) : state_(seed) {}
  uint64_t next();
  double uniform();                            ///< [0, 1)
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

private:
  uint64_t state_;
};

struct GenOptions {
  double perturb = 0.08;          ///< half-width of the relative perturbation
                                  ///< applied to gain / UGF (opamps) and to
                                  ///< gain / bandwidth / f0 / delay (modules)
  double repeat_share = 0.0;      ///< share of specs repeating an earlier one
  double infeasible_share = 0.0;  ///< share with an area budget below the
                                  ///< minimum-geometry floor
  std::vector<size_t> rows;       ///< Table 1 rows to draw from (empty = all)
};

struct OpAmpCase {
  ape::est::OpAmpSpec spec;
  bool infeasible = false;  ///< the prover must refute it
  bool repeat = false;      ///< exact copy of another case
};

/// Category ids 0..counts.size()-1, counts[c] of each, spread evenly:
/// the k-th item of category c sits near fraction (k + 0.5) / counts[c]
/// of the sequence, so every stretch of it has about the same mix.
std::vector<size_t> interleave(const std::vector<size_t>& counts);

/// \p n opamp cases. Fresh cases cycle the Table 1 rows with perturbed
/// gain and UGF; repeats copy fresh cases in the same row order; the
/// infeasible ones cycle the unbuffered rows (buffered specs are outside
/// the interval model, so the prover stays neutral on them). The three
/// kinds are interleaved evenly, so every seed has the same mix and order
/// of rows and differs only in the perturbations.
std::vector<OpAmpCase> gen_opamps(SeedStream& rng, size_t n,
                                  const GenOptions& g,
                                  const ape::est::Process& proc);

/// \p per_kind perturbed copies of each of the five Table 5 modules.
std::vector<ape::est::ModuleSpec> gen_modules(SeedStream& rng, size_t per_kind,
                                              const GenOptions& g);

}  // namespace perfbench
