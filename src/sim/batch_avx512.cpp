/// \file batch_avx512.cpp
/// \brief AVX-512 round pass for the batched trial kernel (batch_simd.hpp).
///
/// Bit-identity argument: a "pure" event — next failure beyond the
/// checkpoint boundary, no budget interaction, work target not reached —
/// takes a straight-line path through the shared step() consisting only
/// of adds, subtracts, one multiply (iLazy's alpha), two std::min calls,
/// and comparisons.  All of those are IEEE-754 correctly rounded, so the
/// eight-lane versions below produce bitwise the scalar results as long
/// as the association order matches — which it does, statement for
/// statement (see the lane trace in comments).  Lanes for which ANY of
/// the special conditions holds are not touched by the vector stores;
/// the shared step() (via the caller) re-derives their event from unmodified
/// state, including the exact throw behavior for max_events and
/// non-finite intervals.
///
/// Compiled with -mavx512f -mavx512dq -ffp-contract=off (contraction
/// would fuse the alpha multiply into a later add and change results);
/// dispatched only behind __builtin_cpu_supports checks.

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/batch_simd.hpp"

namespace lazyckpt::sim::detail {

bool batch_round_avx512_supported() noexcept {
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx512dq") != 0;
}

void batch_ratio_fill_avx512(const double* now, const double* last_failure,
                             double* ratio, std::size_t count,
                             double alpha_oci) {
  const __m512d alpha = _mm512_set1_pd(alpha_oci);
  for (std::size_t base = 0; base < count; base += 8) {
    const std::size_t rem = count - base;
    const __mmask8 lanes =
        rem >= 8 ? static_cast<__mmask8>(0xff)
                 : static_cast<__mmask8>((1u << rem) - 1u);
    const __m512d tsf =
        _mm512_sub_pd(_mm512_maskz_loadu_pd(lanes, now + base),
                      _mm512_maskz_loadu_pd(lanes, last_failure + base));
    _mm512_mask_storeu_pd(
        ratio + base, lanes,
        _mm512_div_pd(_mm512_max_pd(tsf, alpha), alpha));
  }
}

void batch_round_avx512(const BatchLanes& v, std::size_t count, void* kernel,
                        BatchStepFn step, std::vector<std::uint32_t>& dead) {
  const __m512d work_target = _mm512_set1_pd(v.work_target);
  const __m512d budget = _mm512_set1_pd(v.budget);
  const __m512d blocking = _mm512_set1_pd(v.blocking);
  const __m512d size_gb = _mm512_set1_pd(v.size_gb);
  const __m512d alpha_oci = _mm512_set1_pd(v.alpha_oci);
  const __m512d constant_alpha = _mm512_set1_pd(v.constant_alpha);
  const __m512d zero = _mm512_setzero_pd();
  const __m512d inf = _mm512_set1_pd(__builtin_inf());
  const __m512i one_u64 = _mm512_set1_epi64(1);
  const __m512i max_events =
      _mm512_set1_epi64(static_cast<long long>(v.max_events));

  for (std::size_t base = 0; base < count; base += 8) {
    const std::size_t rem = count - base;
    const __mmask8 lanes =
        rem >= 8 ? static_cast<__mmask8>(0xff)
                 : static_cast<__mmask8>((1u << rem) - 1u);

    const __m512d now = _mm512_maskz_loadu_pd(lanes, v.now + base);
    const __m512d committed =
        _mm512_maskz_loadu_pd(lanes, v.committed + base);
    const __m512d uncommitted =
        _mm512_maskz_loadu_pd(lanes, v.uncommitted + base);
    const __m512d next_failure =
        _mm512_maskz_loadu_pd(lanes, v.next_failure + base);

    // alpha: run-constant, or alpha_oci * ratio with the pow already
    // applied — the identical multiply the scalar path performs.
    const __m512d alpha =
        v.ilazy ? _mm512_mul_pd(
                      alpha_oci,
                      _mm512_maskz_loadu_pd(lanes, v.ratio + base))
                : constant_alpha;
    // Scalar requires isfinite(alpha) && alpha > 0 per event; lanes that
    // would fail go scalar so the throw site and message stay exact.
    const __mmask8 alpha_ok =
        _mm512_cmp_pd_mask(alpha, zero, _CMP_GT_OQ) &
        _mm512_cmp_pd_mask(alpha, inf, _CMP_LT_OQ);

    // Scalar: remaining = W - committed - uncommitted  (left to right)
    const __m512d remaining = _mm512_sub_pd(
        _mm512_sub_pd(work_target, committed), uncommitted);
    const __m512d chunk = _mm512_min_pd(alpha, remaining);
    const __m512d tplus = _mm512_add_pd(now, chunk);  // now + chunk
    const __m512d limit = _mm512_min_pd(tplus, budget);
    const __mmask8 fail1 =
        _mm512_cmp_pd_mask(next_failure, limit, _CMP_LT_OQ);
    const __mmask8 over1 = _mm512_cmp_pd_mask(tplus, budget, _CMP_GT_OQ);

    // Post-advance state a pure lane would hold.
    const __m512d unc1 = _mm512_add_pd(uncommitted, chunk);
    const __m512d sum1 = _mm512_add_pd(committed, unc1);
    const __mmask8 done =
        _mm512_cmp_pd_mask(sum1, work_target, _CMP_GE_OQ);

    // Checkpoint boundary: t2 = (now + chunk) + blocking, the scalar's
    // two sequential += updates.
    const __m512d t2 = _mm512_add_pd(tplus, blocking);
    const __m512d limit2 = _mm512_min_pd(t2, budget);
    const __mmask8 fail2 =
        _mm512_cmp_pd_mask(next_failure, limit2, _CMP_LT_OQ);
    const __mmask8 over2 = _mm512_cmp_pd_mask(t2, budget, _CMP_GT_OQ);

    // Event budget: a lane whose incremented counter would exceed
    // max_events goes scalar, where step() throws the canonical error.
    const __m512i ev =
        _mm512_maskz_loadu_epi64(lanes, v.events + base);
    const __m512i ev1 = _mm512_add_epi64(ev, one_u64);
    const __mmask8 ev_over = _mm512_cmpgt_epu64_mask(ev1, max_events);

    const __mmask8 impure =
        lanes & (fail1 | over1 | done | fail2 | over2 | ev_over |
                 static_cast<__mmask8>(~alpha_ok));
    const __mmask8 pure = lanes & static_cast<__mmask8>(~impure);

    if (pure != 0) {
      // The scalar straight line for a pure boundary, lane-parallel:
      //   now += chunk; uncommitted += chunk;        (compute phase)
      //   now += blocking; checkpoint_hours += blocking;
      //   covered = uncommitted;                     (== unc1)
      //   committed += covered; uncommitted -= covered;  (-> +0.0)
      //   ++checkpoints_written; data_written_gb += size;
      _mm512_mask_storeu_pd(v.now + base, pure, t2);
      _mm512_mask_storeu_pd(v.committed + base, pure,
                            _mm512_add_pd(committed, unc1));
      _mm512_mask_storeu_pd(v.uncommitted + base, pure,
                            _mm512_sub_pd(unc1, unc1));
      _mm512_mask_storeu_epi64(v.events + base, pure, ev1);
      const __m512d ckpt =
          _mm512_maskz_loadu_pd(pure, v.ckpt_hours + base);
      _mm512_mask_storeu_pd(v.ckpt_hours + base, pure,
                            _mm512_add_pd(ckpt, blocking));
      const __m512i wr =
          _mm512_maskz_loadu_epi64(pure, v.written + base);
      _mm512_mask_storeu_epi64(v.written + base, pure,
                               _mm512_add_epi64(wr, one_u64));
      const __m512d dg = _mm512_maskz_loadu_pd(pure, v.data_gb + base);
      _mm512_mask_storeu_pd(v.data_gb + base, pure,
                            _mm512_add_pd(dg, size_gb));
    }

    // Impure lanes in ascending order — the scalar round's visit order.
    // Their slots were untouched by the masked stores above, so step()
    // sees exactly the pre-round state.
    unsigned bits = impure;
    while (bits != 0) {
      const unsigned lane = static_cast<unsigned>(__builtin_ctz(bits));
      bits &= bits - 1;
      const std::size_t slot = base + lane;
      if (!step(kernel, slot)) {
        dead.push_back(static_cast<std::uint32_t>(slot));
      }
    }
  }
}

}  // namespace lazyckpt::sim::detail

#else  // !x86_64

#include "sim/batch_simd.hpp"

namespace lazyckpt::sim::detail {

bool batch_round_avx512_supported() noexcept { return false; }

void batch_ratio_fill_avx512(const double*, const double*, double*,
                             std::size_t, double) {}

void batch_round_avx512(const BatchLanes&, std::size_t, void*, BatchStepFn,
                        std::vector<std::uint32_t>&) {}

}  // namespace lazyckpt::sim::detail

#endif
