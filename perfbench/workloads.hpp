#pragma once

/// \file workloads.hpp
/// \brief Seeded input generation for the three perfbench workloads.
///
/// Every workload is one fixed list of scenario texts (a "pass") that the
/// benchmark feeds through parse → run → serialize, repeated.  The inputs
/// are a pure function of (workload, variant), where the variant is the
/// command-line seed modulo kVariants, so each variant's expected output
/// digest can be committed (expected_digests.txt) and checked on every run.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Number of distinct input variants; `--seed n` selects variant n % kVariants.
inline constexpr std::uint64_t kVariants = 64;

/// The requests of one workload variant and how to run them.
struct Workload {
  std::size_t max_replicas = 0;  ///< RunnerOptions::max_replicas

  /// One pass: canonical scenario texts, in request order.
  std::vector<std::string> requests;

  /// Cache-replay only: the working set stored during set-up, and for each
  /// request the working-set entry it reads, or kWrite for a fresh-seed
  /// request that misses, computes and stores.
  std::vector<std::string> working_set;
  std::vector<std::size_t> entry_of_request;
  static constexpr std::size_t kWrite = static_cast<std::size_t>(-1);

  /// Untimed passes at the end of every set-up.  Warm-up passes leave out
  /// the writes: the store fill has already run the write path, and the
  /// file a write creates would add the host's noisiest cost to set-up.
  std::size_t warmup_passes = 1;

  /// Whether requests run through a cache::ResultStore.
  [[nodiscard]] bool uses_cache() const { return !working_set.empty(); }

  /// Whether request `i` is a cache-replay write.
  [[nodiscard]] bool is_write(std::size_t i) const {
    return uses_cache() && entry_of_request[i] == kWrite;
  }

  /// Timed passes needed for at least 1000 latency samples per run, so the
  /// 99th percentile has ten samples beyond it.
  [[nodiscard]] std::size_t min_passes() const {
    return (999 + requests.size()) / requests.size();
  }
};

/// Build the inputs of workload `name` for `variant`.  The sweep workload
/// expands its grids here (spec::expand_sweep), so this is set-up work;
/// when `expand_ns` is given, the time spent inside expand_sweep is added
/// to it.  Names are those of BENCHMARK.json; throws std::invalid_argument
/// on any other.
[[nodiscard]] Workload make_workload(std::string_view name,
                                     std::uint64_t variant,
                                     std::uint64_t* expand_ns = nullptr);

}  // namespace perfbench
