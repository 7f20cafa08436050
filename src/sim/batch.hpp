#pragma once

/// \file batch.hpp
/// \brief Batched SoA trial kernel: N Monte-Carlo replicas in flight at
/// once, bit-identical to per-replica simulate() (DESIGN.md §5h).
///
/// The scalar event loop (run_loop, sim/event_loop.hpp) is latency-bound:
/// each iteration is one long floating-point dependency chain, and its
/// single non-trivial call — the iLazy interval's pow — cannot be
/// vectorized from inside one trial.  This kernel runs a *batch* of replicas in
/// lockstep rounds instead:
///
///   phase 1  compute every live replica's next interval in one pass —
///            for iLazy that is a single vectorized pow_n over the batch
///            (stats/exact_pow.hpp, bitwise-identical to std::pow);
///   phase 2  advance each live replica by exactly one scalar-loop
///            iteration against structure-of-arrays state.
///
/// Independent replicas give the CPU independent dependency chains, so
/// phase 2 runs throughput-bound where the scalar loop stalls, and the
/// batch amortizes what run_loop pays per event: the PolicyContext
/// refresh collapses into phase 1 (the lockstep pass reads the SoA
/// fields the eligible policies depend on directly), failure draws are
/// prefetched through the sampler's batched sample_n seam, and timeline
/// points land in a shared arena scattered per replica at the end.
///
/// Bit-identity: phase 2 executes the same statement sequence as
/// run_loop, on the same per-replica RNG stream (pre-split by the caller
/// in index order), with variates drawn in the same order — batching
/// changes only *when* values are computed, never which values.  The
/// eligible fast path covers the hookless Monte-Carlo configuration:
/// ConstantStorage plus one of the stateless no-hook policies
/// (static-OCI, periodic, iLazy).  Every other combination transparently
/// falls back to per-replica simulate() inside the same entry points, so
/// callers need no eligibility logic.  tests/test_engine_golden.cpp pins
/// the contract char-for-char on the 72 golden configs, timelines
/// included, for batch sizes {1, 8, 64} × thread counts {1, 2, 8}.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/random.hpp"
#include "core/policy/policy.hpp"
#include "io/storage_model.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "stats/distribution.hpp"

namespace lazyckpt::sim {

/// True when (policy, storage) can take the lockstep SoA fast path.
/// Ineligible combinations still run through simulate_batch — one
/// replica at a time, through simulate() — with identical results.
[[nodiscard]] bool batch_eligible(const core::CheckpointPolicy& policy,
                                  const io::StorageModel& storage);

/// Simulate streams.size() replicas as one batch; out must be the same
/// length.  streams[i] is replica i's pre-split RNG stream and out[i]
/// receives its metrics — bit-identical (timeline included) to
///
///   RenewalFailureSource source(inter_arrival, streams[i]);
///   out[i] = simulate(config, policy, source, storage);
///
/// Single-threaded; callers parallelize over batches.
void simulate_batch(const SimulationConfig& config,
                    const core::CheckpointPolicy& policy,
                    const stats::Distribution& inter_arrival,
                    const io::StorageModel& storage, std::span<Rng> streams,
                    std::span<RunMetrics> out);

/// Replica batch size for the Monte-Carlo sweeps: LAZYCKPT_BATCH if set
/// (clamped to [1, 4096]; 0 disables batching entirely and the sweeps
/// run the scalar per-replica path), else 64 — large enough to fill the
/// widest pow_n lanes many times over, small enough that a batch's SoA
/// state stays cache-resident.
[[nodiscard]] std::size_t batch_size_from_env();

/// Batched equivalent of run_replicas_raw (sweep.hpp): splits per-replica
/// streams from `seed` in index order — the same streams the scalar sweep
/// derives — then runs batches of `batch_size` on the shared parallel
/// pool, each worker owning one batch.  Results are index-addressed and
/// bit-identical to the scalar sweep for every thread count and batch
/// size.
std::vector<RunMetrics> run_replicas_batched(
    const SimulationConfig& config, const core::CheckpointPolicy& policy,
    const stats::Distribution& inter_arrival, const io::StorageModel& storage,
    std::size_t replicas, std::uint64_t seed, std::size_t batch_size);

}  // namespace lazyckpt::sim
