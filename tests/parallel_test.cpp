// util/parallel: the deterministic fork-join pool.  The tests pin the
// bit-identical contract (chunk layout independent of thread count) and the
// pool mechanics (full coverage, nested inlining, fair-share accounting).
#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

namespace qbp::par {
namespace {

TEST(ChunkPlan, IsAPureFunctionOfRangeAndGrain) {
  const ChunkPlan plan = ChunkPlan::make(1000, 64);
  EXPECT_EQ(plan.count, 16);
  EXPECT_EQ(plan.begin(0), 0);
  EXPECT_EQ(plan.end(0), 64);
  EXPECT_EQ(plan.begin(15), 960);
  EXPECT_EQ(plan.end(15), 1000);  // last chunk is the remainder
  // Identical inputs always give identical layouts -- there is no thread
  // count anywhere in the computation.
  const ChunkPlan again = ChunkPlan::make(1000, 64);
  EXPECT_EQ(plan.count, again.count);
  for (std::int32_t c = 0; c < plan.count; ++c) {
    EXPECT_EQ(plan.begin(c), again.begin(c));
    EXPECT_EQ(plan.end(c), again.end(c));
  }
}

TEST(ChunkPlan, DegenerateRanges) {
  EXPECT_EQ(ChunkPlan::make(0, 16).count, 0);
  EXPECT_EQ(ChunkPlan::make(-5, 16).count, 0);
  const ChunkPlan tiny = ChunkPlan::make(3, 16);
  EXPECT_EQ(tiny.count, 1);
  EXPECT_EQ(tiny.end(0), 3);
  // grain < 1 is clamped to 1, not UB.
  EXPECT_EQ(ChunkPlan::make(5, 0).count, 5);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const std::int32_t threads : {1, 2, 8}) {
    const std::int64_t n = 4099;  // prime, deliberately not a grain multiple
    std::vector<std::atomic<std::int32_t>> touched(n);
    parallel_for(n, 64, threads,
                 [&](std::int64_t begin, std::int64_t end, std::int32_t) {
                   for (std::int64_t i = begin; i < end; ++i) {
                     touched[static_cast<std::size_t>(i)].fetch_add(1);
                   }
                 });
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(touched[static_cast<std::size_t>(i)].load(), 1) << "index " << i;
    }
  }
}

// A region issued from inside a pool worker must run inline (no nested
// fan-out, no deadlock) and still produce the same coverage.
TEST(Pool, NestedRegionsRunInlineAndComplete) {
  Pool::instance().warm(8);
  const std::int64_t outer = 64;
  const std::int64_t inner = 257;
  std::vector<std::atomic<std::int64_t>> sums(outer);
  std::atomic<std::int32_t> nested_on_worker{0};
  parallel_for(outer, 4, 8, [&](std::int64_t begin, std::int64_t end, std::int32_t) {
    if (begin == 0 && !Pool::on_worker_thread()) {
      // Hold the submitting thread's first chunk until a helper has
      // demonstrably run one, so the nested-inline path is exercised even
      // when a loaded machine would otherwise let the caller finish every
      // chunk before any helper wakes.
      while (nested_on_worker.load() == 0) std::this_thread::yield();
    }
    for (std::int64_t o = begin; o < end; ++o) {
      if (Pool::on_worker_thread()) nested_on_worker.fetch_add(1);
      parallel_for(inner, 32, 8,
                   [&](std::int64_t b, std::int64_t e, std::int32_t) {
                     for (std::int64_t i = b; i < e; ++i) {
                       sums[static_cast<std::size_t>(o)].fetch_add(i);
                     }
                   });
    }
  });
  const std::int64_t expect = inner * (inner - 1) / 2;
  for (std::int64_t o = 0; o < outer; ++o) {
    ASSERT_EQ(sums[static_cast<std::size_t>(o)].load(), expect);
  }
  // With 8 requested threads some outer chunks ran on helpers, so the
  // inline-nesting path was actually exercised.
  EXPECT_GT(nested_on_worker.load(), 0);
}

TEST(Pool, FairShareBaseIsOverridableAndResultsUnchanged) {
  const std::int32_t saved = fair_share_base();
  set_fair_share_base(2);  // concurrent regions get at most 2 slots total
  std::vector<std::int64_t> out(1000, 0);
  parallel_for(1000, 50, 8, [&](std::int64_t b, std::int64_t e, std::int32_t) {
    for (std::int64_t i = b; i < e; ++i) out[static_cast<std::size_t>(i)] = i * i;
  });
  set_fair_share_base(0);
  EXPECT_EQ(fair_share_base(), saved);
  for (std::int64_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(out[static_cast<std::size_t>(i)], i * i);
  }
}

TEST(Pool, CountsRegionsAndSpawnsHelpersOnDemand) {
  Pool& pool = Pool::instance();
  std::atomic<std::int32_t> chunks{0};
  parallel_for(10000, 64, 8,
               [&](std::int64_t, std::int64_t, std::int32_t) {
                 chunks.fetch_add(1);
               });
  EXPECT_EQ(chunks.load(), 157);         // every chunk of the region ran
  EXPECT_GT(pool.helpers_spawned(), 0);  // 8-thread request grew the pool
  pool.warm(4);
  EXPECT_GE(pool.helpers_spawned(), 4);
  // Idle pool: utilization is a fraction in [0, 1].
  EXPECT_GE(utilization(), 0.0);
  EXPECT_LE(utilization(), 1.0);
}

TEST(Pool, SingleThreadRequestNeverFansOut) {
  std::vector<std::int64_t> order;
  bool on_worker = false;
  parallel_for(1000, 64, 1,
               [&](std::int64_t begin, std::int64_t, std::int32_t) {
                 // Safe without atomics: inline means the calling thread.
                 on_worker = on_worker || Pool::on_worker_thread();
                 order.push_back(begin);
               });
  EXPECT_FALSE(on_worker);  // no chunk ran on a pool helper
  // Inline execution visits chunks in ascending order.
  ASSERT_EQ(order.size(), 16u);
  for (std::size_t c = 1; c < order.size(); ++c) {
    EXPECT_LT(order[c - 1], order[c]);
  }
}

}  // namespace
}  // namespace qbp::par
