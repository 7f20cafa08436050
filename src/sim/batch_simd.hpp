#pragma once

/// \file batch_simd.hpp
/// \brief Internal interface between the batched trial kernel (batch.cpp)
/// and its AVX-512 round pass (batch_avx512.cpp).
///
/// The vector pass advances "pure" lanes — replicas whose next event is a
/// plain compute-then-commit boundary with no failure, no budget
/// interaction, and no completion — eight at a time.  Every arithmetic
/// operation it performs (add, sub, mul, min, compare) is IEEE-754
/// correctly rounded and therefore bitwise identical to the scalar
/// statement it replaces; lanes where any special condition might hold
/// fall back to the shared event-loop step (detail::step in
/// sim/event_loop.hpp) on untouched state.  The pass is
/// only used for synchronous checkpoints (blocking fraction 1.0) with
/// timeline recording off, where a pure boundary touches nothing but the
/// dense slot arrays below.
///
/// Not installed; include only from sim/batch.cpp and the SIMD TUs.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lazyckpt::sim::detail {

/// Dense-slot state shared with the vector round: raw pointers into the
/// kernel's structure-of-arrays storage (slot s is replica
/// slot_replica[s]; dead slots are compacted out between rounds) plus the
/// run constants a pure boundary needs.
struct BatchLanes {
  double* now;                  ///< current simulation time
  double* committed;            ///< checkpoint-protected work
  double* uncommitted;          ///< work since the last commit
  double* next_failure;         ///< absolute next failure arrival
  const double* ratio;          ///< phase-1 pow output (iLazy mode)
  double* ckpt_hours;           ///< RunMetrics::checkpoint_hours
  double* data_gb;              ///< RunMetrics::data_written_gb
  std::uint64_t* events;        ///< per-replica event counter
  std::uint64_t* written;       ///< RunMetrics::checkpoints_written

  double alpha_oci;             ///< iLazy: alpha = alpha_oci * ratio[s]
  double constant_alpha;        ///< periodic / static OCI interval
  bool ilazy;                   ///< which alpha source applies
  double work_target;           ///< config.compute_hours
  double budget;                ///< time budget (+inf when unbounded)
  double blocking;              ///< beta (synchronous: full write blocks)
  double size_gb;               ///< data written per checkpoint
  std::uint64_t max_events;     ///< config.max_events
};

/// Scalar fallback for one impure lane: runs the shared step on slot
/// `slot` and returns whether the replica is still live.  May throw; the
/// vector round must stay exception-transparent.
using BatchStepFn = bool (*)(void* kernel, std::size_t slot);

/// Whether the AVX-512 round pass can run on this CPU.
[[nodiscard]] bool batch_round_avx512_supported() noexcept;

/// Phase-1 fill, eight lanes at a time:
///   ratio[s] = max(now[s] - last_failure[s], alpha_oci) / alpha_oci
/// Subtract, max, and divide are IEEE correctly rounded, so this is
/// bitwise the scalar loop; usable whenever the CPU supports it,
/// independent of the round pass's sync/timeline gates.
void batch_ratio_fill_avx512(const double* now, const double* last_failure,
                             double* ratio, std::size_t count,
                             double alpha_oci);

/// One lockstep round over `count` dense slots.  Pure lanes advance
/// vectorized; impure lanes call `step` in ascending slot order — the
/// same order the scalar round visits them.  Slots whose replica
/// finished or truncated this round are appended to `dead` in ascending
/// order; the caller finalizes and compacts them.
void batch_round_avx512(const BatchLanes& lanes, std::size_t count,
                        void* kernel, BatchStepFn step,
                        std::vector<std::uint32_t>& dead);

}  // namespace lazyckpt::sim::detail
