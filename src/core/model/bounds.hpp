#pragma once

/// \file bounds.hpp
/// \brief No-performance-loss upper bound for the iLazy interval
/// (paper Sec. 5, Observation 9, Fig. 21).
///
/// iLazy lets the checkpoint interval grow without limit between failures;
/// if a failure finally lands late, the extra lost work can exceed the I/O
/// saved.  The paper's conservative cap: an extended interval α > α_oci is
/// admissible only while the probability-weighted *additional* lost work
/// (relative to running at α_oci) does not exceed the checkpoint cost the
/// extension saves.  With F the inter-arrival CDF and t the time since the
/// last failure at the start of the interval:
///
///   P[fail in (t, t+α) | alive at t] · (α − α_oci)  ≤  β · (α/α_oci − 1)
///
/// The right-hand side is the expected checkpoint I/O avoided by taking one
/// checkpoint of a stretched interval instead of α/α_oci OCI checkpoints.
///
/// **The frontier in closed form.**  For α > α_oci both sides share the
/// factor (α − α_oci), so the test is P ≤ p0 with p0 = β/α_oci.  With the
/// survival S = 1 − F, the cumulative hazard H = −ln S and
/// P = 1 − S(t+α)/S(t), that reads H(t+α) − H(t) ≤ c, c = −log1p(−p0).
/// H increases, so the admissible set is α ≤ α* = H⁻¹(H(t) + c) − t, and
/// for the Weibull (H(x) = (x/λ)^k)
///
///   α* = λ·((t/λ)^k + c)^{1/k} − t.
///
/// **Why the Weibull overload still agrees to the bit.**  The returned
/// value is the one the floating-point bisection finds, so the Weibull
/// overload keeps its midpoints and decides each one by `mid ≤ α*` only
/// where the float test cannot disagree.  The float test's error is
/// modelled in terms of p0:
///   - F(t+α) − F(t) has an absolute error of a few ε, which the division
///     by S(t) turns into an error in P of order ε/S(t), or a relative
///     error of ε/(S(t)·p0) next to p0;
///   - the rounding of α/α_oci − 1 is a relative error of ε·α/(α − α_oci),
///     which swamps the margin as α nears α_oci;
///   - a relative error δ in the comparison moves the frontier by
///     δ·p0/P′, where P′ = (1 − p0)·h(t+α*) is the slope of P there.
/// Inside the guard band
///
///   |α − α*| ≤ 1e3·ε·(α/(α − α_oci) + 1/(S(t)·p0))·p0/(h(t+α*)·(1 − p0))
///              + 1e-9·max(α*, α_oci)
///
/// the float test decides; the last term covers the rounding of α*
/// itself, whose cancellation error (of order ε·H(t)/c relative) the
/// 1/S(t) term always exceeds.  A band keyed on S(t) alone is not enough:
/// near α_oci the α/(α − α_oci) term dominates.  The closed form is used
/// only on the domain p0 ≤ 1/2 (the paper's α_oci = √(2βM) gives that
/// whenever M ≥ 2β; Fig. 21 has p0 ≈ 0.15), with S(t) > 1e-200 and α*
/// and the band finite; elsewhere the Weibull overload bisects with the
/// float test alone.  A randomized bitwise differential against the
/// generic overload (tests/test_model.cpp) pins the equality.

#include "stats/distribution.hpp"
#include "stats/weibull.hpp"

namespace lazyckpt::core {

/// Parameters of the bound computation.
struct IntervalBoundParams {
  double alpha_oci_hours = 0.0;       ///< reference OCI
  double checkpoint_time_hours = 0.0; ///< β
  double max_stretch = 64.0;          ///< never return more than this × OCI
};

/// Largest admissible interval (hours) starting `time_since_failure_hours`
/// after the last failure, under inter-arrival distribution `inter_arrival`.
/// Always returns a value in [alpha_oci, max_stretch × alpha_oci].
double max_lazy_interval(const stats::Distribution& inter_arrival,
                         double time_since_failure_hours,
                         const IntervalBoundParams& params);

/// The same bound for a Weibull inter-arrival, bitwise equal to the generic
/// overload's, with each bisection step decided by the closed-form frontier
/// α* outside a guard band around it (see the file comment).
double max_lazy_interval(const stats::Weibull& inter_arrival,
                         double time_since_failure_hours,
                         const IntervalBoundParams& params);

}  // namespace lazyckpt::core
