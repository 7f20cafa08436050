#include "sim/metrics.hpp"

#include "common/error.hpp"

namespace lazyckpt::sim {

AggregateMetrics aggregate(std::span<const RunMetrics> runs) {
  require(!runs.empty(), "aggregate needs at least one run");
  AggregateMetrics agg;
  agg.replicas = runs.size();
  fill_stats(kAggregateFields, runs, agg);
  return agg;
}

}  // namespace lazyckpt::sim
