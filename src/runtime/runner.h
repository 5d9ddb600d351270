#pragma once
/// \file runner.h
/// The batch runner of the runtime (DESIGN.md section 7), internal to
/// src/runtime. Every fan-out goes through BatchRunner::run — the
/// supervised synthesis batches (and the plain batches that forward to
/// them), the estimate-only batches and both corner-sweep phases. Per job
/// it
///
///  - opens the job's ErrorContext frame ("label[i]") under the chain
///    open on the calling thread, so a pool job names its batch too;
///  - installs a per-job KernelStats sink and merges the tally into the
///    batch total (a commutative sum, max for the gauges), so the total
///    is thread-count invariant like the job outcomes;
///  - catches ape::Error and std::exception, so a failing job fails
///    alone;
///  - runs inline when threads <= 1, otherwise on one Executor.
///
/// finish() fills BatchStats once: counts, wall time, the cache delta
/// and the merged kernel counters.
///
/// The job bodies every batch shares (the synthesis attempt and the
/// estimate wrap) are declared here too, next to the loop that runs them.

#include <algorithm>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/runtime/batch.h"
#include "src/runtime/executor.h"
#include "src/util/diagnostics.h"
#include "src/util/error.h"

namespace ape::runtime::detail {

class BatchRunner {
public:
  /// Start the batch clock and snapshot \p cache's counters. \p threads
  /// as in BatchOptions::threads (0 = hardware concurrency).
  BatchRunner(int threads, const EstimateCache* cache)
      : threads_(threads > 0 ? threads
                             : std::max(1, static_cast<int>(
                                               std::thread::hardware_concurrency()))),
        cache_(cache),
        cache_before_(cache != nullptr ? cache->stats() : CacheStats{}) {}

  /// Run job(i, r) for every i in \p indices. r is a fresh Result with
  /// r.index = i; the job fills it and sets r.ok on success. The finished
  /// r is stored into results[i] (pre-sized by the caller) and then
  /// on_done(i) is called, both under the runner's lock — so on_done sees
  /// a consistent results vector and calls to it never overlap. \p label
  /// is a job-name prefix (frame "label[i]") or a callable i -> frame.
  template <class Label, class Result, class Job, class OnDone>
  void run(const Label& label, const std::vector<size_t>& indices,
           std::vector<Result>& results, const Job& job,
           const OnDone& on_done) {
    const std::string parent = ErrorContext::chain();
    auto run_one = [&](size_t i) {
      Result r;
      r.index = i;
      KernelStats kernel;
      {
        std::string frame;
        if constexpr (std::is_invocable_v<const Label&, size_t>) {
          frame = label(i);
        } else {
          frame = std::string(label) + "[" + std::to_string(i) + "]";
        }
        // A pool worker starts with an empty provenance stack: re-anchor
        // the frame to the caller's chain. Inline jobs already sit on it.
        if (ErrorContext::depth() == 0 && !parent.empty()) {
          frame = parent + " -> " + frame;
        }
        ErrorContext scope(std::move(frame));
        ScopedKernelStatsSink sink(kernel);
        try {
          job(i, r);
        } catch (const Error& e) {
          r.ok = false;
          r.error = e.what();
        } catch (const std::exception& e) {
          // Only ape::Error self-annotates; add the job's provenance.
          r.ok = false;
          r.error = annotate_with_context(e.what());
        }
      }
      std::lock_guard<std::mutex> lock(mu_);
      kernel_.accumulate(kernel);
      results[i] = std::move(r);
      on_done(i);
    };

    if (threads_ <= 1 || indices.size() <= 1) {
      for (size_t i : indices) run_one(i);
      return;
    }
    Executor pool(static_cast<int>(
        std::min(static_cast<size_t>(threads_), indices.size())));
    std::vector<std::future<void>> futures;
    futures.reserve(indices.size());
    for (size_t i : indices) {
      futures.push_back(pool.submit([&run_one, i] { run_one(i); }));
    }
    for (auto& f : futures) f.get();
  }

  /// run() over every index of \p results, resized to \p n.
  template <class Label, class Result, class Job>
  void run(const Label& label, size_t n, std::vector<Result>& results,
           const Job& job) {
    results.resize(n);
    std::vector<size_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = i;
    run(label, all, results, job, [](size_t) {});
  }

  /// Fill \p s for \p results: job and failure counts, met_spec (ok jobs
  /// for which met(r) holds), threads, wall time since construction, the
  /// cache delta and the kernel counters merged by run().
  template <class Result, class Met>
  void finish(const std::vector<Result>& results, const Met& met,
              BatchStats& s) const {
    s.jobs = static_cast<int>(results.size());
    s.threads = threads_;
    for (const Result& r : results) {
      if (!r.ok) {
        ++s.failed;
      } else if (met(r)) {
        ++s.met_spec;
      }
    }
    s.wall_seconds = now_seconds() - t0_;
    s.jobs_per_second = s.wall_seconds > 0.0 ? s.jobs / s.wall_seconds : 0.0;
    if (cache_ != nullptr) {
      const CacheStats after = cache_->stats();
      s.cache.hits = after.hits - cache_before_.hits;
      s.cache.misses = after.misses - cache_before_.misses;
    }
    s.kernel = kernel_;
  }

private:
  const double t0_ = now_seconds();
  const int threads_;
  const EstimateCache* cache_;
  const CacheStats cache_before_;
  std::mutex mu_;
  KernelStats kernel_;
};

/// The APE estimate of \p spec at \p proc: the shared cache entry when
/// \p cache is given, else a fresh estimate.
std::shared_ptr<const est::OpAmpDesign> estimate(const est::Process& proc,
                                                 const est::OpAmpSpec& spec,
                                                 EstimateCache* cache);
std::shared_ptr<const est::ModuleDesign> estimate(const est::Process& proc,
                                                  const est::ModuleSpec& spec,
                                                  EstimateCache* cache);

/// The bare APE estimate wrapped as a synthesis outcome — no annealing,
/// no simulator — behind the lint-first gate: the supervision ladder's
/// EstimateOnly rung and the corner sweep's default nominal design.
/// Deterministic, so a resumed run re-derives it instead of persisting
/// the design.
synth::SynthesisOutcome estimate_outcome(const est::Process& proc,
                                         const est::OpAmpSpec& spec,
                                         const BatchOptions& options,
                                         const char* comment);
synth::ModuleSynthesisOutcome estimate_outcome(const est::Process& proc,
                                               const est::ModuleSpec& spec,
                                               const BatchOptions& options,
                                               const char* comment);

/// One synthesis attempt of batch job \p index: lint-first gate (and, for
/// opamps, the feasibility proof whose box and cost floor feed the
/// annealer), per-job seed stream, cached APE seed, synthesis.
synth::SynthesisOutcome run_one(const est::Process& proc,
                                const est::OpAmpSpec& spec, size_t index,
                                const BatchOptions& options);
synth::ModuleSynthesisOutcome run_one(const est::Process& proc,
                                      const est::ModuleSpec& spec,
                                      size_t index,
                                      const BatchOptions& options);

}  // namespace ape::runtime::detail
