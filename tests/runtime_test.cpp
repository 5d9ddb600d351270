/// Tests of the batch-estimation runtime (DESIGN.md section 7): the
/// thread pool, the memoizing estimate cache, batch determinism across
/// thread counts, per-job error isolation, and parallel multi-start
/// synthesis. This suite is also the documented ThreadSanitizer target:
/// `cmake -B build-tsan -DAPE_TSAN=ON && ctest -R Runtime`.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "src/runtime/batch.h"
#include "src/runtime/cache.h"
#include "src/runtime/executor.h"
#include "src/runtime/supervisor.h"
#include "src/runtime/sweep.h"
#include "src/spice/fault.h"
#include "src/synth/astrx.h"
#include "src/util/error.h"

namespace ape::runtime {
namespace {

using est::OpAmpSpec;
using est::Process;

const Process& proc() {
  static const Process p = Process::default_1u2();
  return p;
}

// ---------------------------------------------------------------------------
// Executor

TEST(RuntimeExecutor, RunsAllJobsAndReturnsValues) {
  Executor pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(futures[size_t(i)].get(), i * i);
}

TEST(RuntimeExecutor, ExceptionsLandInTheFuture) {
  Executor pool(2);
  auto ok = pool.submit([] { return 7; });
  auto bad = pool.submit([]() -> int { throw SpecError("job exploded"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(bad.get(), SpecError);
}

TEST(RuntimeExecutor, DestructorDrainsSubmittedJobs) {
  std::atomic<int> ran{0};
  {
    Executor pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
  }  // ~Executor joins after the queue drains
  EXPECT_EQ(ran.load(), 50);
}

// ---------------------------------------------------------------------------
// MemoCache / EstimateCache

TEST(RuntimeCache, ComputesOnceAndCountsHits) {
  MemoCache<int> cache;
  std::atomic<int> computes{0};
  for (int i = 0; i < 5; ++i) {
    auto v = cache.get_or_compute("k", [&] {
      computes.fetch_add(1);
      return 42;
    });
    EXPECT_EQ(*v, 42);
  }
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 4);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.8);
}

TEST(RuntimeCache, ConcurrentRequestsOfOneKeyFillOnce) {
  MemoCache<int> cache;
  std::atomic<int> computes{0};
  Executor pool(8);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([&] {
      return *cache.get_or_compute("shared", [&] {
        computes.fetch_add(1);
        return 99;
      });
    }));
  }
  for (auto& f : futures) EXPECT_EQ(f.get(), 99);
  EXPECT_EQ(computes.load(), 1);
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, 63);
}

TEST(RuntimeCache, ErrorsAreMemoizedAndRethrown) {
  MemoCache<int> cache;
  std::atomic<int> computes{0};
  auto boom = [&]() -> int {
    computes.fetch_add(1);
    throw SpecError("infeasible");  // Permanent: stays negative-cached
  };
  EXPECT_THROW(cache.get_or_compute("bad", boom), SpecError);
  EXPECT_THROW(cache.get_or_compute("bad", boom), SpecError);
  EXPECT_EQ(computes.load(), 1);  // the failure itself is cached
}

TEST(RuntimeCache, TransientFillFailureReleasesTheSlot) {
  // Regression: an injected transient fault on the *first* fill must not
  // poison the key — the fill slot is released and a retry recomputes.
  // (Before the supervised runtime this negative-cached like a permanent
  // failure, so one transient fault starved every later retry.)
  MemoCache<int> cache;
  int computes = 0;
  auto flaky = [&]() -> int {
    if (++computes == 1) throw NumericError("injected transient fault");
    return 7;
  };
  EXPECT_THROW(cache.get_or_compute("k", flaky), NumericError);
  EXPECT_EQ(cache.size(), 0u);  // the failed entry is gone from the map
  EXPECT_EQ(*cache.get_or_compute("k", flaky), 7);
  EXPECT_EQ(computes, 2);
  // The healthy value is now memoized like any other.
  EXPECT_EQ(*cache.get_or_compute("k", flaky), 7);
  EXPECT_EQ(computes, 2);
}

TEST(RuntimeCache, LruBoundEvictsOldestCompletedEntry) {
  MemoCache<int> cache(2);
  int computes = 0;
  auto compute = [&] { return ++computes; };
  cache.get_or_compute("a", compute);
  cache.get_or_compute("b", compute);
  cache.get_or_compute("c", compute);  // bound 2 -> "a" (LRU) evicted
  auto s = cache.stats();
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.entries, 2);
  // "b" is still resident; touching it makes "c" the LRU...
  EXPECT_EQ(computes, 3);
  cache.get_or_compute("b", compute);
  EXPECT_EQ(computes, 3);  // hit
  cache.get_or_compute("d", compute);  // ...so "d" evicts "c", not "b"
  cache.get_or_compute("b", compute);
  EXPECT_EQ(computes, 4);  // "b" survived both evictions
  // "a" was evicted: requesting it recomputes.
  cache.get_or_compute("a", compute);
  EXPECT_EQ(computes, 5);
}

TEST(RuntimeCache, EvictedValueSurvivesThroughHeldSharedPtr) {
  MemoCache<int> cache(1);
  auto held = cache.get_or_compute("old", [] { return 11; });
  cache.get_or_compute("new", [] { return 22; });  // evicts "old" from the map
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(*held, 11);  // the map forgot it; the holder did not
}

TEST(RuntimeCache, InFlightFillIsNeverEvicted) {
  // A capacity-1 cache whose first fill *itself* inserts two more keys:
  // while "outer" is mid-fill it must be skipped by the eviction walk
  // (waiters block on its fill mutex), so the completed inner entries
  // are the only eviction candidates.
  MemoCache<int> cache(1);
  auto outer = cache.get_or_compute("outer", [&] {
    cache.get_or_compute("inner1", [] { return 1; });
    cache.get_or_compute("inner2", [] { return 2; });  // evicts inner1
    return 3;
  });
  EXPECT_EQ(*outer, 3);
  const auto s = cache.stats();
  EXPECT_GE(s.evictions, 2);  // inner1 then inner2 (outer's finish trims)
  EXPECT_EQ(s.entries, 1);
  // The survivor is "outer" itself — the in-flight entry the walk skipped.
  int computes = 0;
  EXPECT_EQ(*cache.get_or_compute("outer", [&] { return ++computes; }), 3);
  EXPECT_EQ(computes, 0);
}

TEST(RuntimeCache, SetCapacityTrimsImmediately) {
  EstimateCache cache;  // unbounded
  OpAmpSpec s;
  s.gain = 150.0;
  s.ugf_hz = 3e6;
  for (int i = 0; i < 4; ++i) {
    OpAmpSpec si = s;
    si.gain += double(i);
    cache.opamp(proc(), si);
  }
  EXPECT_EQ(cache.stats().entries, 4);
  EXPECT_EQ(cache.stats().evictions, 0);
  cache.set_capacity_per_level(2);
  auto cs = cache.stats();
  EXPECT_EQ(cs.entries, 2);
  EXPECT_EQ(cs.evictions, 2);
  // The two most recently used (gain+2, gain+3) survived.
  OpAmpSpec recent = s;
  recent.gain += 3.0;
  cache.opamp(proc(), recent);
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(RuntimeCache, BoundedConcurrentChurnStaysWithinCapacity) {
  // TSan-relevant: concurrent fills + evictions on a small bound. The
  // bound only holds for *completed* entries, so the final occupancy may
  // exceed capacity transiently mid-run but must settle within it.
  MemoCache<int> cache(4);
  Executor pool(8);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 256; ++i) {
    futures.push_back(pool.submit([&cache, i] {
      return *cache.get_or_compute("k" + std::to_string(i % 16),
                                   [i] { return i; });
    }));
  }
  for (auto& f : futures) f.get();
  const auto s = cache.stats();
  EXPECT_LE(s.entries, 4);
  EXPECT_EQ(s.hits + s.misses, 256);
  EXPECT_GE(s.evictions, s.misses - 4);  // every excess fill was evicted
}

TEST(RuntimeCache, EstimateCacheKeysSeparateSpecs) {
  EstimateCache cache;
  OpAmpSpec a;
  a.gain = 150.0;
  a.ugf_hz = 3e6;
  a.ibias = 10e-6;
  OpAmpSpec b = a;
  b.gain = 151.0;  // one field differs -> distinct key
  auto da1 = cache.opamp(proc(), a);
  auto da2 = cache.opamp(proc(), a);
  auto db = cache.opamp(proc(), b);
  EXPECT_EQ(da1.get(), da2.get());  // same shared entry
  EXPECT_NE(da1.get(), db.get());
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(RuntimeCache, KeyIsContentDerived) {
  OpAmpSpec a;
  const std::string k1 = cache_key(proc(), a);
  const std::string k2 = cache_key(proc(), a);
  EXPECT_EQ(k1, k2);
  Process p2 = proc();
  p2.nmos.vto += 1e-12;  // tiny model-card change -> different process
  EXPECT_NE(cache_key(p2, a), k1);
  OpAmpSpec b = a;
  b.cload *= 1.0 + 1e-15;
  EXPECT_NE(cache_key(proc(), b), k1);
}

// ---------------------------------------------------------------------------
// Batch determinism (the headline contract): a 32-spec opamp batch gives
// bit-identical designs and costs at 1 thread and at 8 threads.

std::vector<OpAmpSpec> batch_specs(size_t n) {
  std::vector<OpAmpSpec> specs;
  for (size_t i = 0; i < n; ++i) {
    OpAmpSpec s;
    s.gain = 120.0 + 10.0 * double(i % 8);
    s.ugf_hz = 2e6 + 0.5e6 * double(i % 4);
    s.ibias = 10e-6;
    s.cload = 10e-12;
    specs.push_back(s);
  }
  return specs;
}

BatchOptions fast_synth_options() {
  BatchOptions o;
  o.seed = 2026;
  o.synth.use_ape_seed = true;
  o.synth.anneal.iterations = 120;  // enough to move, cheap enough to batch
  return o;
}

/// Everything deterministic about an outcome, flattened for comparison.
std::vector<double> fingerprint(const synth::SynthesisOutcome& r) {
  std::vector<double> f{r.cost, double(r.functional), double(r.meets_spec),
                        double(r.skipped_candidates), double(r.evaluations),
                        double(r.restarts_run), double(r.best_restart),
                        r.design.perf.gain, r.design.perf.ugf_hz,
                        r.design.perf.gate_area, r.design.perf.cc};
  for (const auto& t : r.design.transistors) {
    f.push_back(t.w);
    f.push_back(t.l);
  }
  return f;
}

TEST(RuntimeBatch, OpAmpBatchBitIdenticalAcrossThreadCounts) {
  const auto specs = batch_specs(32);
  EstimateCache cache1, cache8;

  BatchOptions serial = fast_synth_options();
  serial.threads = 1;
  serial.cache = &cache1;
  const auto r1 = run_opamp_batch(proc(), specs, serial);

  BatchOptions pooled = fast_synth_options();
  pooled.threads = 8;
  pooled.cache = &cache8;
  const auto r8 = run_opamp_batch(proc(), specs, pooled);

  ASSERT_EQ(r1.jobs.size(), specs.size());
  ASSERT_EQ(r8.jobs.size(), specs.size());
  EXPECT_EQ(r1.stats.threads, 1);
  EXPECT_EQ(r8.stats.threads, 8);
  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(r1.jobs[i].ok) << r1.jobs[i].error;
    ASSERT_TRUE(r8.jobs[i].ok) << r8.jobs[i].error;
    EXPECT_EQ(r1.jobs[i].index, i);
    const auto f1 = fingerprint(r1.jobs[i].outcome);
    const auto f8 = fingerprint(r8.jobs[i].outcome);
    ASSERT_EQ(f1.size(), f8.size());
    for (size_t k = 0; k < f1.size(); ++k) {
      // Bit-identical, not approximately equal.
      EXPECT_EQ(f1[k], f8[k]) << "job " << i << " field " << k;
    }
  }
  // Same cache traffic either way: 32 jobs over the repeating specs.
  EXPECT_EQ(cache1.stats().hits + cache1.stats().misses, 32);
  EXPECT_EQ(cache1.stats().misses, long(cache8.stats().misses));
}

TEST(RuntimeBatch, JobsAreSeedDecorrelated) {
  // Two identical specs in one batch must anneal with different streams:
  // forcing pure blind search makes identical seeds produce identical
  // costs, so differing costs prove differing streams.
  std::vector<OpAmpSpec> specs(2, batch_specs(1)[0]);
  BatchOptions o;
  o.threads = 1;
  o.seed = 7;
  o.synth.use_ape_seed = false;
  o.synth.anneal.iterations = 200;
  const auto r = run_opamp_batch(proc(), specs, o);
  ASSERT_TRUE(r.jobs[0].ok && r.jobs[1].ok);
  EXPECT_NE(r.jobs[0].outcome.cost, r.jobs[1].outcome.cost);
}

TEST(RuntimeBatch, CacheAccountingAcrossDuplicateSpecs) {
  // 32 specs but only 8 distinct ((i % 8, i % 4) repeats every 8 jobs):
  // the cache must fill once per distinct spec and hit for every repeat.
  const auto specs = batch_specs(32);
  std::set<std::string> distinct;
  for (const auto& s : specs) distinct.insert(cache_key(proc(), s));

  EstimateCache cache;
  BatchOptions o = fast_synth_options();
  o.threads = 4;
  o.cache = &cache;
  const auto r = run_opamp_batch(proc(), specs, o);
  EXPECT_EQ(r.stats.failed, 0);
  EXPECT_EQ(size_t(cache.stats().misses), distinct.size());
  EXPECT_EQ(size_t(cache.stats().hits), specs.size() - distinct.size());
  EXPECT_EQ(r.stats.cache.hits, cache.stats().hits);
  EXPECT_EQ(r.stats.cache.misses, cache.stats().misses);
  EXPECT_GT(r.stats.cache.hit_rate(), 0.5);
  EXPECT_GT(r.stats.jobs_per_second, 0.0);
}

TEST(RuntimeBatch, KernelCountersAggregateAcrossJobsAndThreads) {
  // Every synthesis job verifies its design on the simulator, so the
  // batch aggregate must surface the kernel work — and because each job
  // tallies into its own ambient sink before the per-batch merge (a
  // commutative sum), the counters are thread-count invariant like the
  // job outcomes themselves.
  const auto specs = batch_specs(6);
  BatchOptions serial = fast_synth_options();
  serial.threads = 1;
  const auto r1 = run_opamp_batch(proc(), specs, serial);
  BatchOptions pooled = fast_synth_options();
  pooled.threads = 4;
  const auto r4 = run_opamp_batch(proc(), specs, pooled);
  const KernelStats& k1 = r1.stats.kernel;
  const KernelStats& k4 = r4.stats.kernel;
  EXPECT_GT(k1.solves, 0);
  EXPECT_GT(k1.factorizations + k1.numeric_refactors, 0);
  EXPECT_GT(k1.ac_points_fused, 0);
  EXPECT_GT(k1.baseline_builds, 0);
  EXPECT_EQ(k1.solves, k4.solves);
  EXPECT_EQ(k1.factorizations, k4.factorizations);
  EXPECT_EQ(k1.numeric_refactors, k4.numeric_refactors);
  EXPECT_EQ(k1.ac_points_fused, k4.ac_points_fused);
  EXPECT_EQ(k1.baseline_builds, k4.baseline_builds);
  EXPECT_EQ(k1.nonlinear_stamps, k4.nonlinear_stamps);

  // Supervised batches and synthesize-mode sweeps run the same jobs
  // through the same runner, so they report the same kernel work.
  auto expect_same_kernel = [&](const KernelStats& k, const char* what) {
    EXPECT_EQ(k.solves, k1.solves) << what;
    EXPECT_EQ(k.factorizations, k1.factorizations) << what;
    EXPECT_EQ(k.ac_points_fused, k1.ac_points_fused) << what;
    EXPECT_EQ(k.baseline_builds, k1.baseline_builds) << what;
    EXPECT_EQ(k.nonlinear_stamps, k1.nonlinear_stamps) << what;
  };
  for (int threads : {1, 4}) {
    SupervisorOptions sup;
    sup.batch = fast_synth_options();
    sup.batch.threads = threads;
    const auto r = run_supervised_opamp_batch(proc(), specs, sup);
    expect_same_kernel(r.stats.kernel, threads == 1 ? "supervised x1"
                                                    : "supervised x4");
  }
  SweepOptions sweep;
  sweep.supervisor.batch = fast_synth_options();
  sweep.supervisor.batch.threads = 4;
  sweep.synthesize = true;
  const auto s = run_corner_sweep(proc(), specs, sweep);
  expect_same_kernel(s.stats.kernel, "corner sweep (synthesize)");
}

TEST(RuntimeBatch, PoisonedSpecFailsAloneAndNamesItsJob) {
  auto specs = batch_specs(6);
  specs[3].ibias = -1.0;  // nonsensical bias: the estimator must throw
  BatchOptions o = fast_synth_options();
  o.threads = 4;
  EstimateCache cache;
  o.cache = &cache;
  const auto r = run_opamp_batch(proc(), specs, o);
  ASSERT_EQ(r.jobs.size(), 6u);
  EXPECT_FALSE(r.jobs[3].ok);
  EXPECT_NE(r.jobs[3].error.find("opamp_batch[3]"), std::string::npos)
      << r.jobs[3].error;
  EXPECT_EQ(r.stats.failed, 1);
  for (size_t i = 0; i < 6; ++i) {
    if (i == 3) continue;
    EXPECT_TRUE(r.jobs[i].ok) << i << ": " << r.jobs[i].error;
  }
}

TEST(RuntimeBatch, EstimateBatchMatchesDirectEstimator) {
  const auto specs = batch_specs(8);
  BatchOptions o;
  o.threads = 4;
  EstimateCache cache;
  o.cache = &cache;
  const auto r = estimate_opamp_batch(proc(), specs, o);
  ASSERT_EQ(r.jobs.size(), 8u);
  const est::OpAmpEstimator direct(proc());
  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(r.jobs[i].ok) << r.jobs[i].error;
    const auto want = direct.estimate(specs[i]);
    EXPECT_EQ(r.jobs[i].outcome->perf.gain, want.perf.gain);
    EXPECT_EQ(r.jobs[i].outcome->perf.ugf_hz, want.perf.ugf_hz);
  }
}

TEST(RuntimeBatch, ModuleBatchDeterministicAndIsolated) {
  using est::ModuleKind;
  using est::ModuleSpec;
  std::vector<ModuleSpec> specs;
  ModuleSpec amp;
  amp.kind = ModuleKind::AudioAmp;
  amp.gain = 100.0;
  amp.bw_hz = 20e3;
  specs.push_back(amp);
  ModuleSpec bad;
  bad.kind = ModuleKind::Integrator;  // not a Table-5 synthesis kind
  specs.push_back(bad);
  specs.push_back(amp);

  BatchOptions o;
  o.seed = 5;
  o.synth.use_ape_seed = true;
  o.synth.anneal.iterations = 60;
  o.threads = 1;
  EstimateCache c1;
  o.cache = &c1;
  const auto r1 = run_module_batch(proc(), specs, o);
  o.threads = 8;
  EstimateCache c8;
  o.cache = &c8;
  const auto r8 = run_module_batch(proc(), specs, o);

  ASSERT_EQ(r1.jobs.size(), 3u);
  EXPECT_TRUE(r1.jobs[0].ok) << r1.jobs[0].error;
  EXPECT_FALSE(r1.jobs[1].ok);
  EXPECT_NE(r1.jobs[1].error.find("module_batch[1]"), std::string::npos)
      << r1.jobs[1].error;
  EXPECT_TRUE(r1.jobs[2].ok) << r1.jobs[2].error;
  EXPECT_EQ(r1.stats.failed, 1);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r1.jobs[i].ok, r8.jobs[i].ok);
    if (r1.jobs[i].ok) {
      EXPECT_EQ(r1.jobs[i].outcome.cost, r8.jobs[i].outcome.cost) << i;
    }
  }
  // Jobs 0 and 2 share a spec; both caches see one miss + one hit for it.
  EXPECT_EQ(c1.stats().misses, c8.stats().misses);
  EXPECT_GE(c1.stats().hits, 1);
}

// ---------------------------------------------------------------------------
// Supervised batches keep the determinism contract: retries and resume
// change nothing about which bits come out at 1 thread vs 8 threads.

TEST(RuntimeBatch, SupervisedRetriesAndResumeDeterministicAcrossThreads) {
  const auto specs = batch_specs(12);
  auto supervised = [&](int threads) {
    SupervisorOptions sup;
    sup.batch = fast_synth_options();
    sup.batch.threads = threads;
    sup.retry.plain_retries = 1;
    sup.retry.relaxed_retries = 1;
    sup.retry.estimate_fallback = true;
    // Every third job's first attempt dies in verification (singular LU)
    // and recovers on the plain retry. Faults are keyed on (job, attempt)
    // only, so the schedule is identical at any thread count.
    sup.fault_setup = [](size_t index, int attempt,
                         spice::FaultInjector& fi) {
      if (index % 3 == 0 && attempt == 0) fi.fail_lu_from(0);
    };
    return sup;
  };

  const auto r1 = run_supervised_opamp_batch(proc(), specs, supervised(1));
  const auto r8 = run_supervised_opamp_batch(proc(), specs, supervised(8));
  ASSERT_EQ(r1.jobs.size(), specs.size());
  EXPECT_EQ(r1.supervision.retries, 4);  // jobs 0, 3, 6, 9
  EXPECT_EQ(r8.supervision.retries, 4);
  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(r1.jobs[i].ok) << r1.jobs[i].error;
    ASSERT_TRUE(r8.jobs[i].ok) << r8.jobs[i].error;
    EXPECT_EQ(r1.jobs[i].attempts, r8.jobs[i].attempts) << i;
    const auto f1 = fingerprint(r1.jobs[i].outcome);
    const auto f8 = fingerprint(r8.jobs[i].outcome);
    ASSERT_EQ(f1.size(), f8.size());
    for (size_t k = 0; k < f1.size(); ++k) {
      EXPECT_EQ(f1[k], f8[k]) << "job " << i << " field " << k;
    }
  }

  // Interrupt an 8-thread retrying run mid-way, then resume at 1 thread:
  // the stitched-together results still match the uninterrupted ones.
  const std::string ckpt = testing::TempDir() + "runtime_resume.ckpt";
  CancelToken cancel;
  SupervisorOptions interrupted = supervised(8);
  interrupted.checkpoint_path = ckpt;
  interrupted.cancel = &cancel;
  std::atomic<int> completed{0};
  interrupted.on_job_done = [&](size_t, bool) {
    if (completed.fetch_add(1) + 1 == 5) cancel.cancel();
  };
  (void)run_supervised_opamp_batch(proc(), specs, interrupted);

  SupervisorOptions resumed = supervised(1);
  resumed.resume_path = ckpt;
  const auto rr = run_supervised_opamp_batch(proc(), specs, resumed);
  ASSERT_EQ(rr.jobs.size(), specs.size());
  EXPECT_GE(rr.supervision.resumed_jobs, 1);
  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(rr.jobs[i].ok) << rr.jobs[i].error;
    const auto f1 = fingerprint(r1.jobs[i].outcome);
    const auto fr = fingerprint(rr.jobs[i].outcome);
    ASSERT_EQ(f1.size(), fr.size());
    for (size_t k = 0; k < f1.size(); ++k) {
      EXPECT_EQ(f1[k], fr[k]) << "resumed job " << i << " field " << k;
    }
  }
  std::remove(ckpt.c_str());
}

// ---------------------------------------------------------------------------
// Multi-start synthesis through the executor.

TEST(RuntimeMultiStart, BestOfRestartsNeverWorseAndDeterministic) {
  est::OpAmpSpec spec;
  spec.gain = 150.0;
  spec.ugf_hz = 3e6;
  spec.ibias = 10e-6;
  spec.cload = 10e-12;

  synth::SynthesisOptions single;
  single.use_ape_seed = true;
  single.anneal.iterations = 150;
  single.anneal.seed = 11;
  const auto r1 = synth::synthesize_opamp(proc(), spec, single);

  synth::SynthesisOptions multi = single;
  multi.restarts = 4;
  multi.restart_threads = 4;
  const auto r4 = synth::synthesize_opamp(proc(), spec, multi);
  EXPECT_EQ(r4.restarts_run, 4);
  // Restart 0 replays the single-start search, so best-of can only help.
  EXPECT_LE(r4.cost, r1.cost);
  EXPECT_GE(r4.evaluations, r1.evaluations);

  synth::SynthesisOptions serial = multi;
  serial.restart_threads = 1;
  const auto rs = synth::synthesize_opamp(proc(), spec, serial);
  EXPECT_EQ(rs.cost, r4.cost);
  EXPECT_EQ(rs.best_restart, r4.best_restart);
  EXPECT_EQ(rs.skipped_candidates, r4.skipped_candidates);
  EXPECT_EQ(rs.evaluations, r4.evaluations);
}

// The job's budget follows parallel restarts onto their pool workers: a
// budget whose CancelToken has already fired stops every restart after its
// first evaluation, on the pool exactly as on the calling thread.
TEST(RuntimeMultiStart, ParallelRestartsHonourTheJobBudget) {
  est::OpAmpSpec spec;
  spec.gain = 150.0;
  spec.ugf_hz = 3e6;
  spec.ibias = 10e-6;
  spec.cload = 10e-12;
  synth::SynthesisOptions opts;
  opts.use_ape_seed = true;
  opts.anneal.iterations = 150;
  opts.anneal.seed = 11;
  opts.restarts = 4;

  CancelToken cancel;
  cancel.cancel();
  RunBudget budget;
  budget.attach_cancel(&cancel);
  ScopedJobContext job([&budget](JobContext& c) { c.budget = &budget; });

  opts.restart_threads = 4;
  const auto pooled = synth::synthesize_opamp(proc(), spec, opts);
  opts.restart_threads = 1;
  const auto serial = synth::synthesize_opamp(proc(), spec, opts);
  EXPECT_TRUE(pooled.budget_exhausted);
  EXPECT_TRUE(serial.budget_exhausted);
  EXPECT_EQ(pooled.evaluations, serial.evaluations);
  EXPECT_LT(pooled.evaluations, opts.restarts * opts.anneal.iterations);
}

TEST(RuntimeMultiStart, SingleRestartMatchesLegacySingleStart) {
  est::OpAmpSpec spec;
  spec.gain = 140.0;
  spec.ugf_hz = 2.5e6;
  spec.ibias = 10e-6;
  spec.cload = 10e-12;
  synth::SynthesisOptions opts;
  opts.use_ape_seed = true;
  opts.anneal.iterations = 150;
  opts.anneal.seed = 3;
  const auto a = synth::synthesize_opamp(proc(), spec, opts);
  opts.restarts = 1;
  opts.restart_threads = 8;  // irrelevant at one restart
  const auto b = synth::synthesize_opamp(proc(), spec, opts);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.best_restart, 0);
}

}  // namespace
}  // namespace ape::runtime
