#include "src/runtime/batch.h"

#include <type_traits>

#include "src/lint/lint.h"
#include "src/lint/prove.h"
#include "src/runtime/runner.h"
#include "src/runtime/supervisor.h"
#include "src/util/rng.h"

namespace ape::runtime {
namespace {

/// BatchOptions::lint_first gate; throws lint::LintError on a dirty spec.
template <class Spec>
void lint_gate(bool enabled, const est::Process& proc, const Spec& spec) {
  if (!enabled) return;
  lint::require_clean(lint::lint_spec(spec, proc), "lint-first");
}

/// Feasibility half of the lint-first gate (APE-F, src/lint/prove.h):
/// prove the spec reachable over the sizing box before any solve.
/// Throws LintError — ErrorClass::Permanent, so the supervision ladder
/// skips every retry rung and goes straight to the estimate fallback,
/// and the quarantine registry is never involved. Contraction is only
/// worth its ~100 extra interval evaluations when the proof artifacts
/// feed a synthesis run; the estimate-only gates pass contract=false.
lint::FeasibilityProof prove_gate(const est::Process& proc,
                                  const est::OpAmpSpec& spec, bool contract) {
  lint::ProveOptions po;
  if (!contract) po.contraction_segments = 0;
  lint::FeasibilityProof proof = lint::prove_opamp_feasibility(proc, spec, po);
  lint::require_feasible(proof, "lint-first");
  return proof;
}

template <class Outcome, class Spec>
Outcome wrap_estimate(const est::Process& proc, const Spec& spec,
                      const BatchOptions& options, const char* comment) {
  lint_gate(options.lint_first, proc, spec);
  Outcome out;
  out.design = *detail::estimate(proc, spec, options.cache);
  out.functional = true;
  out.comment = comment;
  out.restarts_run = 0;
  return out;
}

template <class Design, class Spec>
BatchResult<std::shared_ptr<const Design>> estimate_batch(
    const est::Process& proc, const std::vector<Spec>& specs,
    const BatchOptions& options, const char* label) {
  detail::BatchRunner runner(options.threads, options.cache);
  BatchResult<std::shared_ptr<const Design>> out;
  runner.run(label, specs.size(), out.jobs, [&](size_t i, auto& r) {
    lint_gate(options.lint_first, proc, specs[i]);
    if constexpr (std::is_same_v<Spec, est::OpAmpSpec>) {
      if (options.lint_first) prove_gate(proc, specs[i], /*contract=*/false);
    }
    r.outcome = detail::estimate(proc, specs[i], options.cache);
    r.ok = true;
  });
  runner.finish(out.jobs, [](const auto&) { return false; }, out.stats);
  return out;
}

/// The default supervision of a plain batch: one attempt, no fallback,
/// no deadline, no quarantine, no checkpoint.
SupervisorOptions default_supervision(const BatchOptions& options) {
  SupervisorOptions sup;
  sup.batch = options;
  return sup;
}

}  // namespace

namespace detail {

std::shared_ptr<const est::OpAmpDesign> estimate(const est::Process& proc,
                                                 const est::OpAmpSpec& spec,
                                                 EstimateCache* cache) {
  if (cache != nullptr) return cache->opamp(proc, spec);
  return std::make_shared<const est::OpAmpDesign>(
      est::OpAmpEstimator(proc).estimate(spec));
}

std::shared_ptr<const est::ModuleDesign> estimate(const est::Process& proc,
                                                  const est::ModuleSpec& spec,
                                                  EstimateCache* cache) {
  if (cache != nullptr) return cache->module(proc, spec);
  return std::make_shared<const est::ModuleDesign>(
      est::ModuleEstimator(proc).estimate(spec));
}

synth::SynthesisOutcome estimate_outcome(const est::Process& proc,
                                         const est::OpAmpSpec& spec,
                                         const BatchOptions& options,
                                         const char* comment) {
  return wrap_estimate<synth::SynthesisOutcome>(proc, spec, options, comment);
}

synth::ModuleSynthesisOutcome estimate_outcome(const est::Process& proc,
                                               const est::ModuleSpec& spec,
                                               const BatchOptions& options,
                                               const char* comment) {
  return wrap_estimate<synth::ModuleSynthesisOutcome>(proc, spec, options,
                                                      comment);
}

synth::SynthesisOutcome run_one(const est::Process& proc,
                                const est::OpAmpSpec& spec, size_t index,
                                const BatchOptions& options) {
  lint_gate(options.lint_first, proc, spec);
  synth::SynthesisOptions so = options.synth;
  if (options.lint_first) {
    const lint::FeasibilityProof proof =
        prove_gate(proc, spec, /*contract=*/true);
    // Hand the proof artifacts to the annealer: restarts sample inside
    // the proven-feasible box, and the proven cost floor lets serial
    // multi-start stop early. Explicit caller-provided values win.
    if (so.feasible_box.empty()) so.feasible_box = proof.feasible_box;
    if (so.cost_lower_bound <= 0.0) {
      so.cost_lower_bound = proof.cost_lower_bound;
    }
  }
  so.anneal.seed = Rng::derive_stream(options.seed, index);
  // The job runs on one pool slot; its restarts stay serial unless the
  // caller explicitly asked for nested parallelism.
  if (options.synth.restart_threads == 0) so.restart_threads = 1;
  // Resolve the APE seed through the shared cache so identical specs
  // estimate once across the whole batch. The shared_ptr pins the
  // entry for the lifetime of the job.
  std::shared_ptr<const est::OpAmpDesign> seed;
  if (so.use_ape_seed && options.cache != nullptr && so.seed_design == nullptr) {
    seed = options.cache->opamp(proc, spec);
    so.seed_design = seed.get();
  }
  return synth::synthesize_opamp(proc, spec, so);
}

synth::ModuleSynthesisOutcome run_one(const est::Process& proc,
                                      const est::ModuleSpec& spec,
                                      size_t index,
                                      const BatchOptions& options) {
  lint_gate(options.lint_first, proc, spec);
  synth::SynthesisOptions so = options.synth;
  so.anneal.seed = Rng::derive_stream(options.seed, index);
  if (options.synth.restart_threads == 0) so.restart_threads = 1;
  std::shared_ptr<const est::ModuleDesign> proto;
  if (options.cache != nullptr && so.module_proto == nullptr) {
    proto = options.cache->module(proc, spec);
    so.module_proto = proto.get();
  }
  return synth::synthesize_module(proc, spec, so);
}

}  // namespace detail

void BatchStats::to_json(json::Writer& w) const {
  w.field("jobs", jobs)
      .field("failed", failed)
      .field("met_spec", met_spec)
      .field("threads", threads)
      .field("wall_seconds", wall_seconds)
      .field("jobs_per_second", jobs_per_second)
      .field("cache_hits", cache.hits)
      .field("cache_misses", cache.misses)
      .field("cache_hit_rate", cache.hit_rate())
      .field("kernel", kernel);
}

OpAmpBatchResult run_opamp_batch(const est::Process& proc,
                                 const std::vector<est::OpAmpSpec>& specs,
                                 const BatchOptions& options) {
  return run_supervised_opamp_batch(proc, specs, default_supervision(options));
}

ModuleBatchResult run_module_batch(const est::Process& proc,
                                   const std::vector<est::ModuleSpec>& specs,
                                   const BatchOptions& options) {
  return run_supervised_module_batch(proc, specs, default_supervision(options));
}

OpAmpEstimateBatchResult estimate_opamp_batch(
    const est::Process& proc, const std::vector<est::OpAmpSpec>& specs,
    const BatchOptions& options) {
  return estimate_batch<est::OpAmpDesign>(proc, specs, options,
                                          "opamp_estimate");
}

ModuleEstimateBatchResult estimate_module_batch(
    const est::Process& proc, const std::vector<est::ModuleSpec>& specs,
    const BatchOptions& options) {
  return estimate_batch<est::ModuleDesign>(proc, specs, options,
                                           "module_estimate");
}

}  // namespace ape::runtime
