// Unit tests for the shared deterministic parallel engine
// (common/parallel.hpp): scheduling coverage, serial fallbacks, config
// resolution, nesting, and worker-exception propagation.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace lazyckpt {
namespace {

/// Scoped LAZYCKPT_THREADS override that restores the prior value.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    const char* old = std::getenv("LAZYCKPT_THREADS");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      setenv("LAZYCKPT_THREADS", value, 1);
    } else {
      unsetenv("LAZYCKPT_THREADS");
    }
  }
  ~ScopedThreadsEnv() {
    if (had_old_) {
      setenv("LAZYCKPT_THREADS", old_.c_str(), 1);
    } else {
      unsetenv("LAZYCKPT_THREADS");
    }
  }
  ScopedThreadsEnv(const ScopedThreadsEnv&) = delete;
  ScopedThreadsEnv& operator=(const ScopedThreadsEnv&) = delete;

 private:
  bool had_old_ = false;
  std::string old_;
};

TEST(ParallelConfig, ExplicitThreadsWin) {
  const ScopedThreadsEnv env("5");
  EXPECT_EQ(ParallelConfig{3}.resolve(), 3u);
}

TEST(ParallelConfig, EnvOverridesDefault) {
  const ScopedThreadsEnv env("5");
  EXPECT_EQ(ParallelConfig{}.resolve(), 5u);
}

TEST(ParallelConfig, DefaultIsHardwareConcurrency) {
  const ScopedThreadsEnv env(nullptr);
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(ParallelConfig{}.resolve(), hw > 0 ? hw : 1u);
}

TEST(ParallelConfig, MalformedEnvThrows) {
  for (const char* bad : {"0", "-2", "eight", "4x", ""}) {
    const ScopedThreadsEnv env(bad);
    if (*bad == '\0') {
      // Empty counts as unset, not malformed.
      EXPECT_NO_THROW(static_cast<void>(ParallelConfig{}.resolve()));
    } else {
      EXPECT_THROW(static_cast<void>(ParallelConfig{}.resolve()),
                   InvalidArgument)
          << bad;
    }
  }
}

TEST(ParallelFor, EmptyRangeIsANoOp) {
  std::atomic<int> calls{0};
  parallel_for(0, [&](std::size_t) { ++calls; }, ParallelConfig{8});
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t n = 1000;
  std::vector<std::atomic<int>> visits(n);
  parallel_for(n, [&](std::size_t i) { ++visits[i]; }, ParallelConfig{8});
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, FewerItemsThanThreads) {
  std::vector<std::atomic<int>> visits(3);
  parallel_for(3, [&](std::size_t i) { ++visits[i]; }, ParallelConfig{8});
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, OneThreadStaysOnCallerThread) {
  const auto caller = std::this_thread::get_id();
  bool all_on_caller = true;
  parallel_for(
      16,
      [&](std::size_t) {
        if (std::this_thread::get_id() != caller) all_on_caller = false;
      },
      ParallelConfig{1});
  EXPECT_TRUE(all_on_caller);
}

TEST(ParallelFor, SingleItemStaysOnCallerThread) {
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  parallel_for(1, [&](std::size_t) { seen = std::this_thread::get_id(); },
               ParallelConfig{8});
  EXPECT_EQ(seen, caller);
}

TEST(ParallelFor, WorkerExceptionPropagatesToCaller) {
  for (const std::size_t threads : {1u, 4u}) {
    EXPECT_THROW(
        parallel_for(
            64,
            [](std::size_t i) {
              if (i == 13) throw Error("worker failed");
            },
            ParallelConfig{threads}),
        Error)
        << "threads=" << threads;
  }
}

TEST(ParallelFor, ExceptionAbandonsRemainingWork) {
  // With one worker the serial path must stop at the throwing index.
  std::atomic<int> calls{0};
  EXPECT_THROW(parallel_for(
                   100,
                   [&](std::size_t i) {
                     ++calls;
                     if (i == 5) throw Error("stop");
                   },
                   ParallelConfig{1}),
               Error);
  EXPECT_EQ(calls.load(), 6);
}

TEST(ParallelFor, RejectsNullBody) {
  EXPECT_THROW(parallel_for(4, nullptr), InvalidArgument);
}

TEST(ParallelFor, NestedRegionRunsSerially) {
  // A nested parallel_for inside a worker must not spawn its own pool —
  // it reports in_parallel_region() and degrades to the serial path.
  std::atomic<int> total{0};
  std::atomic<bool> nested_detected{false};
  parallel_for(
      8,
      [&](std::size_t) {
        EXPECT_TRUE(in_parallel_region());
        parallel_for(
            8,
            [&](std::size_t) {
              ++total;
              if (in_parallel_region()) nested_detected = true;
            },
            ParallelConfig{8});
      },
      ParallelConfig{4});
  EXPECT_EQ(total.load(), 64);
  EXPECT_TRUE(nested_detected.load());
  EXPECT_FALSE(in_parallel_region());
}

TEST(ParallelMap, ResultsAreIndexOrdered) {
  const auto squares = parallel_map(
      100, [](std::size_t i) { return static_cast<double>(i * i); },
      ParallelConfig{8});
  ASSERT_EQ(squares.size(), 100u);
  for (std::size_t i = 0; i < squares.size(); ++i) {
    EXPECT_DOUBLE_EQ(squares[i], static_cast<double>(i * i));
  }
}

TEST(ParallelMap, EmptyRangeGivesEmptyVector) {
  const auto out =
      parallel_map(0, [](std::size_t i) { return i; }, ParallelConfig{8});
  EXPECT_TRUE(out.empty());
}

TEST(ParallelMap, SameResultForAnyThreadCount) {
  const auto run = [](std::size_t threads) {
    return parallel_map(
        257, [](std::size_t i) { return 3.0 * static_cast<double>(i) + 1.0; },
        ParallelConfig{threads});
  };
  const auto serial = run(1);
  for (const std::size_t threads : {2u, 8u}) {
    EXPECT_EQ(run(threads), serial) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace lazyckpt
