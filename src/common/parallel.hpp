#pragma once

/// \file parallel.hpp
/// \brief Deterministic bounded-thread parallel execution.
///
/// Every evaluation surface in lazyckpt (replica sweeps, campaigns,
/// bootstrap resampling, parametric-bootstrap K-S) is embarrassingly
/// parallel: N independent work items, each deterministic in its own RNG
/// stream.  This module provides the one shared primitive they all use —
/// a work-stealing-free bounded pool of std::threads that pulls indices
/// from an atomic counter — under a hard contract:
///
///   *Output is bit-identical for any thread count, including 1.*
///
/// Callers achieve that by deriving all randomness *before* dispatch
/// (index-ordered `Rng::split()` calls on a master generator) and writing
/// results into index-addressed slots, so scheduling order can never leak
/// into results.  parallel_map() enforces the slot discipline; the RNG
/// pre-split is the caller's side of the bargain (see sim/replicas.hpp for
/// the canonical pattern).
///
/// Thread count resolution: an explicit ParallelConfig::threads wins,
/// otherwise the LAZYCKPT_THREADS environment variable, otherwise
/// std::thread::hardware_concurrency().  A count of 1 takes a pure serial
/// path on the calling thread — no threads are created, which keeps
/// single-core and debugger runs trivial.  Nested parallel regions
/// degrade to serial automatically, so composed parallel code (an interval
/// sweep whose per-interval replica loop is itself parallel) never
/// oversubscribes.

#include <cstddef>
#include <functional>
#include <type_traits>
#include <vector>

namespace lazyckpt {

/// How many worker threads a parallel region may use.
struct ParallelConfig {
  /// 0 = resolve from LAZYCKPT_THREADS, then hardware_concurrency().
  std::size_t threads = 0;

  /// The effective thread count (always >= 1).  Throws InvalidArgument if
  /// LAZYCKPT_THREADS is set to something that is not a positive integer.
  [[nodiscard]] std::size_t resolve() const;
};

/// True while the calling thread is executing inside a parallel_for body;
/// nested parallel_for calls detect this and run serially.
[[nodiscard]] bool in_parallel_region() noexcept;

/// Run body(0) .. body(n-1), each index exactly once, on a bounded pool of
/// `config.resolve()` threads (the caller participates as one worker).
/// Indices are handed out dynamically from an atomic counter — no work
/// stealing, no per-thread queues.  If any body throws, remaining indices
/// are abandoned and one of the captured exceptions is rethrown on the
/// caller; bodies that must not lose items to a sibling's failure should
/// catch locally (see stats::bootstrap_ci).  n == 0 is a no-op.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  ParallelConfig config = {});

/// Map fn over [0, n) into an index-addressed vector: out[i] = fn(i).
/// Result order is by index, never by completion, which is what makes the
/// output independent of scheduling.  The result type must be
/// default-constructible and movable.
template <typename Fn>
auto parallel_map(std::size_t n, Fn&& fn, ParallelConfig config = {})
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using Result = std::invoke_result_t<Fn&, std::size_t>;
  static_assert(std::is_default_constructible_v<Result>,
                "parallel_map result type must be default-constructible");
  std::vector<Result> out(n);
  parallel_for(
      n, [&out, &fn](std::size_t i) { out[i] = fn(i); }, config);
  return out;
}

}  // namespace lazyckpt
