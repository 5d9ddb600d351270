#pragma once
/// \file stream_ids.h
/// Registry of every Rng::derive_stream domain in the codebase — the
/// single place where stream-id layouts are assigned, so new consumers
/// of deterministic randomness cannot silently collide with existing
/// ones (DESIGN.md section 12).
///
/// derive_stream(seed, id) is a splitmix64 finalizer over seed + id:
/// two streams collide exactly when both their seeds and their ids
/// match. Domains therefore separate along two axes:
///
///  1. Different *seeds*: the batch seed (BatchOptions::seed) and the
///     anneal seed (AnnealOptions::seed, itself usually a batch-derived
///     stream) are independent root keys. Ids may overlap across them.
///  2. Different *id ranges* under the same seed. The existing domains
///     keyed on the batch seed use small integers, so every new domain
///     must carve out a disjoint range — the mismatch domain below tags
///     its ids with a high byte no small-integer id can reach.
///
/// Existing domains (values are frozen: changing any of them changes
/// every previously published deterministic result):
///
///  - Batch jobs (runtime/batch.cpp): job i anneals with
///    derive_stream(batch_seed, kBatchJobStream(i)) — the plain job
///    index, ids [0, jobs).
///  - Multi-start restarts (synth/astrx.cpp): restart r > 0 anneals
///    with derive_stream(anneal_seed, kAnnealRestartStream(r)) — the
///    plain restart index on the *job's own* seed (restart 0 uses the
///    seed unchanged), ids [1, restarts).
///  - Monte-Carlo mismatch (stat/mismatch.cpp): sample s of job j at
///    corner c draws with derive_stream(batch_seed,
///    kMismatchStream(j, c, s)). Tagged ids, disjoint from the batch-job
///    range under the same seed by construction.

#include <cstdint>

namespace ape::streams {

/// Batch job i → stream id i (frozen; see file comment).
constexpr uint64_t kBatchJobStream(uint64_t job) { return job; }

/// Multi-start restart r → stream id r on the job's anneal seed
/// (frozen; restart 0 never derives).
constexpr uint64_t kAnnealRestartStream(uint64_t restart) { return restart; }

/// Monte-Carlo mismatch streams: (job, corner, sample) packed into a
/// tagged id. The tag occupies the top byte, so a mismatch id can never
/// equal a batch-job id (plain small integer) under the shared batch
/// seed; below it the packing is injective for job < 2^30, corner < 2^6
/// and sample < 2^20 — enforced by bounds-checking callers
/// (stat/mismatch.cpp) and the collision-freedom test.
constexpr uint64_t kMismatchTag = 0xA5ULL << 56;
constexpr uint64_t kMismatchJobBits = 30;
constexpr uint64_t kMismatchCornerBits = 6;
constexpr uint64_t kMismatchSampleBits = 20;
constexpr uint64_t kMismatchStream(uint64_t job, uint64_t corner,
                                   uint64_t sample) {
  return kMismatchTag |
         (job << (kMismatchCornerBits + kMismatchSampleBits)) |
         (corner << kMismatchSampleBits) | sample;
}

}  // namespace ape::streams
