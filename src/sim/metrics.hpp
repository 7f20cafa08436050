#pragma once

/// \file metrics.hpp
/// \brief Per-run accounting and cross-replica aggregation.
///
/// Every hour of simulated wall time lands in exactly one bucket:
/// useful compute (work that ultimately committed), checkpoint I/O
/// (completed checkpoint writes), restart (completed recoveries), or waste
/// (compute lost to a failure, interrupted checkpoints, interrupted
/// restarts).  Conservation — makespan equals the bucket sum — is asserted
/// by the engine and re-checked by the property test suite.
///
/// Each metrics struct has one field table (DESIGN.md §5l): a constexpr
/// list of its members, in serialized order.  aggregate(), the cache entry
/// format and lazyckpt-run's JSON all walk the tables, so adding a field
/// is adding a row.

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace lazyckpt::sim {

/// A double or count data member of S, read as a double.
template <class S>
struct Member {
  double S::*real = nullptr;          ///< set for a double member
  std::uint64_t S::*count = nullptr;  ///< set for a count member

  // Implicit, so a table row can name the member pointer directly.
  constexpr Member(double S::*member) : real(member) {}
  constexpr Member(std::uint64_t S::*member) : count(member) {}

  [[nodiscard]] constexpr double value(const S& s) const {
    return count != nullptr ? static_cast<double>(s.*count) : s.*real;
  }
};

/// One row of a table of stored members: a member and its serialized name.
template <class S>
struct Field {
  const char* name;
  Member<S> member;
};

/// The statistic an aggregate row takes over the replicas.
enum class Stat : std::uint8_t { kMean, kMin, kMax };

/// One row of an aggregate table: `member` holds `stat` of the per-run
/// `source` member over every replica.
template <class Agg, class Run>
struct StatField {
  const char* name;
  double Agg::*member;
  Stat stat;
  Member<Run> source;
};

/// Fill every row of `table` in `out` from the non-empty `runs`, reading
/// each run through `project`.  A mean sums in replica index order, then
/// divides by the count; a min/max is seeded from the first run.  Each
/// field accumulates exactly as a hand-written serial loop would, so the
/// bits do not depend on the table.
template <class Agg, class Run, std::size_t N, class Runs,
          class Project = std::identity>
void fill_stats(const std::array<StatField<Agg, Run>, N>& table,
                std::span<const Runs> runs, Agg& out, Project project = {}) {
  for (const StatField<Agg, Run>& row : table) {
    const auto value = [&](const Runs& run) {
      return row.source.value(std::invoke(project, run));
    };
    double acc = row.stat == Stat::kMean ? 0.0 : value(runs.front());
    for (const Runs& run : runs) {
      switch (row.stat) {
        case Stat::kMean: acc += value(run); break;
        case Stat::kMin: acc = std::min(acc, value(run)); break;
        case Stat::kMax: acc = std::max(acc, value(run)); break;
      }
    }
    out.*row.member =
        row.stat == Stat::kMean ? acc / static_cast<double>(runs.size()) : acc;
  }
}

/// One point of the cumulative-progress timeline (paper Fig. 13).
struct TimelinePoint {
  double time_hours = 0.0;
  double compute_hours = 0.0;     ///< committed so far
  double checkpoint_hours = 0.0;  ///< checkpoint I/O so far
  double wasted_hours = 0.0;      ///< lost work so far
  double restart_hours = 0.0;     ///< restart overhead so far
};

/// Accounting for one simulated run.
struct RunMetrics {
  double makespan_hours = 0.0;
  double compute_hours = 0.0;
  double checkpoint_hours = 0.0;
  double wasted_hours = 0.0;
  double restart_hours = 0.0;

  std::uint64_t failures = 0;
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoints_skipped = 0;

  double data_written_gb = 0.0;  ///< checkpoints_written × checkpoint size

  /// Populated only when SimulationConfig.record_timeline is set.
  std::vector<TimelinePoint> timeline;

  /// Everything that is not useful compute.
  [[nodiscard]] double overhead_hours() const noexcept {
    return makespan_hours - compute_hours;
  }
};

/// Summary statistics over replicas of the same experiment.
struct AggregateMetrics {
  std::size_t replicas = 0;
  double mean_makespan_hours = 0.0;
  double min_makespan_hours = 0.0;
  double max_makespan_hours = 0.0;
  double mean_compute_hours = 0.0;
  double mean_checkpoint_hours = 0.0;
  double min_checkpoint_hours = 0.0;
  double max_checkpoint_hours = 0.0;
  double mean_wasted_hours = 0.0;
  double mean_restart_hours = 0.0;
  double mean_failures = 0.0;
  double mean_checkpoints_written = 0.0;
  double mean_checkpoints_skipped = 0.0;
  double mean_data_written_gb = 0.0;
};

// The field tables.  A member a table leaves out has a line or token of
// its own: every aggregate leads with `replicas`, and a run's timeline
// follows it as one `tp` line per point.  tests/test_cache.cpp fails to
// compile when a struct gains a data member that its table lacks.

inline constexpr auto kTimelineFields = std::to_array<Field<TimelinePoint>>({
    {"time_hours", &TimelinePoint::time_hours},
    {"compute_hours", &TimelinePoint::compute_hours},
    {"checkpoint_hours", &TimelinePoint::checkpoint_hours},
    {"wasted_hours", &TimelinePoint::wasted_hours},
    {"restart_hours", &TimelinePoint::restart_hours},
});

inline constexpr auto kRunFields = std::to_array<Field<RunMetrics>>({
    {"makespan_hours", &RunMetrics::makespan_hours},
    {"compute_hours", &RunMetrics::compute_hours},
    {"checkpoint_hours", &RunMetrics::checkpoint_hours},
    {"wasted_hours", &RunMetrics::wasted_hours},
    {"restart_hours", &RunMetrics::restart_hours},
    {"failures", &RunMetrics::failures},
    {"checkpoints_written", &RunMetrics::checkpoints_written},
    {"checkpoints_skipped", &RunMetrics::checkpoints_skipped},
    {"data_written_gb", &RunMetrics::data_written_gb},
});

using AggregateField = StatField<AggregateMetrics, RunMetrics>;
inline constexpr auto kAggregateFields = std::to_array<AggregateField>({
    {"mean_makespan_hours", &AggregateMetrics::mean_makespan_hours,
     Stat::kMean, &RunMetrics::makespan_hours},
    {"min_makespan_hours", &AggregateMetrics::min_makespan_hours, Stat::kMin,
     &RunMetrics::makespan_hours},
    {"max_makespan_hours", &AggregateMetrics::max_makespan_hours, Stat::kMax,
     &RunMetrics::makespan_hours},
    {"mean_compute_hours", &AggregateMetrics::mean_compute_hours,
     Stat::kMean, &RunMetrics::compute_hours},
    {"mean_checkpoint_hours", &AggregateMetrics::mean_checkpoint_hours,
     Stat::kMean, &RunMetrics::checkpoint_hours},
    {"min_checkpoint_hours", &AggregateMetrics::min_checkpoint_hours,
     Stat::kMin, &RunMetrics::checkpoint_hours},
    {"max_checkpoint_hours", &AggregateMetrics::max_checkpoint_hours,
     Stat::kMax, &RunMetrics::checkpoint_hours},
    {"mean_wasted_hours", &AggregateMetrics::mean_wasted_hours, Stat::kMean,
     &RunMetrics::wasted_hours},
    {"mean_restart_hours", &AggregateMetrics::mean_restart_hours,
     Stat::kMean, &RunMetrics::restart_hours},
    {"mean_failures", &AggregateMetrics::mean_failures, Stat::kMean,
     &RunMetrics::failures},
    {"mean_checkpoints_written", &AggregateMetrics::mean_checkpoints_written,
     Stat::kMean, &RunMetrics::checkpoints_written},
    {"mean_checkpoints_skipped", &AggregateMetrics::mean_checkpoints_skipped,
     Stat::kMean, &RunMetrics::checkpoints_skipped},
    {"mean_data_written_gb", &AggregateMetrics::mean_data_written_gb,
     Stat::kMean, &RunMetrics::data_written_gb},
});

/// Aggregate a non-empty set of runs.
AggregateMetrics aggregate(std::span<const RunMetrics> runs);

}  // namespace lazyckpt::sim
