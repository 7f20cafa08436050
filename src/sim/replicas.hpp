#pragma once

/// \file replicas.hpp
/// \brief The one replica driver (DESIGN.md §5c), internal to src/sim.
/// Flat, batched, tiered and campaign sweeps all split their streams,
/// pick each replica's policy and beat the progress heartbeat here.
///
/// Every replica's Rng streams are split from the seed before dispatch,
/// in index order, and results land in index-addressed slots
/// (common/parallel.hpp): the output is identical for any thread count,
/// and two policies run with the same seed see the same failure arrival
/// times — the paper's "for a fair comparison, both the iLazy and OCI
/// schemes use the same failure arrival times".

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "core/policy/policy.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lazyckpt::sim::detail {

/// `per_replica` streams for each of `replicas` replicas, split from
/// `seed` in index order: replica i owns streams [i·k, (i+1)·k).  k is 1
/// for flat, batched and campaign runs and 2 for tiered runs (failure
/// source, then severity).  Throws InvalidArgument, naming `what`, unless
/// replicas >= 1.
inline std::vector<Rng> split_streams(const char* what, std::size_t replicas,
                                      std::uint64_t seed,
                                      std::size_t per_replica = 1) {
  require(replicas >= 1, std::string(what) + " needs replicas >= 1");
  Rng master(seed);
  std::vector<Rng> streams;
  streams.reserve(replicas * per_replica);
  while (streams.size() < replicas * per_replica) {
    streams.push_back(master.split());
  }
  return streams;
}

/// `run(policy)` on a policy one replica may drive.  A stateless policy —
/// a pure function of the context, safe for concurrent calls — is shared
/// with no per-replica allocation; it is never written through, so
/// shedding const to match simulate()'s signature is sound.  Any other
/// policy is cloned for the call.
template <class Run>
auto with_replica_policy(const core::CheckpointPolicy& policy, Run&& run) {
  if (policy.is_stateless()) {
    return run(const_cast<core::CheckpointPolicy&>(policy));
  }
  const core::PolicyPtr replica_policy = policy.clone();
  return run(*replica_policy);
}

/// The counter family a sweep's heartbeat feeds.
enum class Progress { kReplicas, kCampaignReplicas };

/// Progress heartbeat: the `sim.replicas_done` (or
/// `sim.campaign_replicas_done`) counter track and gauge, plus a step on
/// the request's `spec.flow`.  It beats whenever the finished count
/// crosses a multiple of `every`, and on the last replica.  The atomic is
/// telemetry-only — results are index-addressed, so the completion order
/// it observes never feeds back into them.  Silent when obs is off.
class Heartbeat {
 public:
  Heartbeat(Progress family, std::size_t replicas, std::size_t every)
      : family_(family),
        on_(obs::enabled()),
        replicas_(replicas),
        every_(every) {}

  /// `count` more replicas have finished.
  void finished(std::size_t count) {
    if (!on_) return;
    const std::size_t done =
        done_.fetch_add(count, std::memory_order_relaxed) + count;
    if (done / every_ == (done - count) / every_ && done != replicas_) return;
    const auto value = static_cast<double>(done);
    if (family_ == Progress::kCampaignReplicas) {
      obs::counter("sim.campaign_replicas_done", value);
      obs::metrics().gauge("sim.campaign_replicas_done").record_max(value);
    } else {
      obs::counter("sim.replicas_done", value);
      obs::metrics().gauge("sim.replicas_done").record_max(value);
    }
    obs::flow_step("spec.flow", obs::current_flow());
  }

 private:
  Progress family_;
  bool on_;
  std::size_t replicas_;
  std::size_t every_;
  std::atomic<std::size_t> done_{0};
};

/// Run `replicas` replicas on the shared parallel pool: replica i calls
/// `run(policy, streams)` with its policy from with_replica_policy and its
/// `per_replica` streams, under a heartbeat sampled about sixteen times
/// per sweep.  Returns the results in index order.
template <class Run>
auto run_replicas(const char* what, const core::CheckpointPolicy& policy,
                  std::size_t replicas, std::uint64_t seed,
                  std::size_t per_replica, Progress family, Run&& run) {
  std::vector<Rng> streams =
      split_streams(what, replicas, seed, per_replica);
  Heartbeat heartbeat(family, replicas,
                      std::max<std::size_t>(1, replicas / 16));
  return parallel_map(replicas, [&](std::size_t i) {
    auto result = with_replica_policy(
        policy, [&](core::CheckpointPolicy& replica_policy) {
          return run(replica_policy, std::span<Rng>(streams).subspan(
                                         i * per_replica, per_replica));
        });
    heartbeat.finished(1);
    return result;
  });
}

}  // namespace lazyckpt::sim::detail
