#pragma once

/// \file replay.hpp
/// \brief The traced path: one request served by calling each layer's
/// public function in spec::ScenarioRunner::run's order, each call timed
/// from outside.  Nothing inside src/ is instrumented; the replayed bytes
/// are checked against the same expected digests as the untraced path,
/// which is what shows the replay does the runner's work.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "spec/runner.hpp"

namespace perfbench {

/// Layers on the runner path, named after the src/ module whose public
/// call they time.  `spec.config` is the runner's own derivation of the
/// simulation config (Daly OCI, campaign config).
enum class Layer : std::size_t {
  kSpecParse,
  kSpecValidate,
  kSpecConfig,
  kStatsMakeDistribution,
  kIoMakeStorage,
  kCoreMakePolicy,
  kCacheFetch,
  kCacheStore,
  kCacheSerialize,
  kSimFlat,
  kSimHierarchy,
  kSimCampaign,
  kSimAggregate,
  kCount,
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

inline constexpr std::array<const char*, kLayerCount> kLayerNames{
    "spec.parse",      "spec.validate",
    "spec.config",     "stats.make_distribution",
    "io.make_storage", "core.make_policy",
    "cache.fetch",     "cache.store",
    "cache.serialize", "sim.flat",
    "sim.hierarchy",   "sim.campaign",
    "sim.aggregate"};

/// Policy families whose simulation time is reported separately.
inline constexpr std::array<const char*, 6> kPolicyFamilies{
    "bounded-ilazy", "ilazy", "static-oci", "periodic", "skip", "linear"};

/// Busy time and work counts accumulated over replayed requests.
struct LayerTrace {
  std::array<std::uint64_t, kLayerCount> busy_ns{};
  /// Simulation time (sim.flat + sim.hierarchy + sim.campaign) by policy
  /// family, indexed like kPolicyFamilies; other families are not kept.
  std::array<std::uint64_t, kPolicyFamilies.size()> policy_ns{};
  std::uint64_t request_ns = 0;  ///< wall time of whole requests

  std::uint64_t replicas = 0;
  std::uint64_t failures = 0;
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoints_skipped = 0;

  [[nodiscard]] std::uint64_t& busy(Layer layer) {
    return busy_ns[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] std::uint64_t busy(Layer layer) const {
    return busy_ns[static_cast<std::size_t>(layer)];
  }
  /// sim.flat + sim.hierarchy + sim.campaign.
  [[nodiscard]] std::uint64_t sim_ns() const;
  /// Every layer's busy time (the policy split is part of sim_ns()).
  [[nodiscard]] std::uint64_t attributed_ns() const;
};

/// Serve `text` as ScenarioRunner{max_replicas, cache}.run would, timing
/// each layer call into `trace`.  Returns cache::serialize_result's bytes.
/// Throws whatever the layers throw.
[[nodiscard]] std::string replay_request(std::string_view text,
                                         std::size_t max_replicas,
                                         lazyckpt::spec::ResultCache* cache,
                                         LayerTrace& trace);

}  // namespace perfbench
