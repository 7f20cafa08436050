#pragma once

/// \file progress.hpp
/// \brief Progress heartbeat for long sweeps and campaigns
/// (DESIGN.md §5f): a background ticker that periodically prints one
/// "done/total | rate | ETA" line to stderr.
///
/// The ticker *only reads*: the `sim.replicas_done` /
/// `sim.campaign_replicas_done` gauges the engine already maintains (the
/// one replica driver, sim/replicas.hpp, feeds `sim.replicas_done` from
/// flat, batched and tiered sweeps alike), and
/// the obs process clock.  It writes nothing any result path consumes, so
/// enabling it cannot perturb a single golden-mastered byte — the same
/// "observe, never perturb" contract as the tracer.  Output goes to
/// stderr (stdout stays reserved for deterministic tables/JSON).
///
/// Wired behind `lazyckpt-run --progress` and the LAZYCKPT_PROGRESS
/// environment variable; both imply obs::set_enabled(true) so the gauges
/// are live.

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>

#include "obs/clock.hpp"

namespace lazyckpt::obs {

/// Background progress printer.  One instance per driver process; tasks
/// (scenario runs) are announced via begin()/finish() from the driving
/// thread.  The ticker thread wakes every `interval_ms` and prints the
/// current task's progress; between tasks it stays silent.
class ProgressTicker {
 public:
  struct Options {
    unsigned interval_ms = 500;
    std::FILE* out = nullptr;  ///< nullptr → stderr
  };

  ProgressTicker() : ProgressTicker(Options{}) {}
  explicit ProgressTicker(Options options);
  ~ProgressTicker();
  ProgressTicker(const ProgressTicker&) = delete;
  ProgressTicker& operator=(const ProgressTicker&) = delete;

  /// Start reporting a task: `label` prefixes every line, `total` is the
  /// expected final value of the gauge named `gauge_name` (must be a
  /// string literal; the ticker re-reads it every tick).
  void begin(std::string label, std::uint64_t total, const char* gauge_name);

  /// Print a completion line for the current task and go silent until the
  /// next begin().
  void finish();

 private:
  void run();
  /// One progress line; returns silently when no task is active.
  void tick();

  std::FILE* out_;
  unsigned interval_ms_;

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool active_ = false;
  std::string label_;
  std::uint64_t total_ = 0;
  const char* gauge_name_ = nullptr;
  TimeNs start_ns_ = 0;

  std::thread thread_;
};

}  // namespace lazyckpt::obs
