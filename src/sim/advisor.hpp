#pragma once

/// \file advisor.hpp
/// \brief Policy advisor: from a failure log and an application's
/// checkpoint parameters to a concrete, simulation-validated
/// recommendation.  This is the end-to-end "what should my site run?"
/// entry point that ties the whole library together (fitting → OCI →
/// policy selection → projected savings).

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "sim/metrics.hpp"

namespace lazyckpt::sim {

/// What the advisor needs to know.
struct AdvisorInput {
  std::span<const double> inter_arrival_hours;  ///< failure gaps (>= 30)
  double checkpoint_size_gb = 0.0;              ///< application checkpoint
  double bandwidth_gbps = 0.0;                  ///< observed storage rate
  double compute_hours = 500.0;                 ///< projection horizon
};

/// The advisor's verdict.
struct Recommendation {
  // Fitted failure model.
  std::string best_fit_name;   ///< lowest K-S D among candidates
  double weibull_shape = 0.0;  ///< fitted k
  double weibull_scale = 0.0;  ///< fitted λ
  double mtbf_hours = 0.0;     ///< observed mean gap

  // Derived scheduling parameters.
  double beta_hours = 0.0;  ///< size / bandwidth
  double oci_hours = 0.0;   ///< Daly OCI at the observed MTBF
  bool temporal_locality = false;  ///< k < 0.95

  // The recommendation and its simulated projection vs static OCI.
  std::string policy_spec;              ///< e.g. "ilazy:0.58"
  AggregateMetrics base;    ///< static OCI on the fitted Weibull model
  AggregateMetrics chosen;  ///< policy_spec on the same replica streams
  double projected_io_saving = 0.0;     ///< fraction of ckpt I/O removed
  double projected_runtime_change = 0.0;///< fraction (positive = slower)
};

/// Analyze a gap sample and recommend a policy.  Deterministic in `seed`.
/// Throws InvalidArgument for fewer than 30 gaps or non-positive
/// size/bandwidth/compute.
Recommendation advise(const AdvisorInput& input, std::uint64_t seed = 1,
                      std::size_t replicas = 60);

}  // namespace lazyckpt::sim
