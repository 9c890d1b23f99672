// parallel_for (src/common/parallel_for.hpp): every index runs exactly
// once for any (n, jobs), including jobs > n and n == 0, all work is
// complete when the call returns, and a throwing index surfaces on the
// caller after every thread has been joined.
#include "common/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>

namespace latdiv {
namespace {

class ParallelFor
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned>> {};

TEST_P(ParallelFor, EveryIndexRunsExactlyOnce) {
  const auto [n, jobs] = GetParam();
  const auto hits = std::make_unique<std::atomic<int>[]>(n + 1);
  parallel_for(n, jobs, [&](std::size_t i) {
    ASSERT_LT(i, n);
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    NxJobs, ParallelFor,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 100),
                       ::testing::Values(1u, 2u, 8u)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_jobs" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ParallelForErrors, FirstExceptionIsRethrownAfterJoin) {
  for (const unsigned jobs : {1u, 4u}) {
    std::atomic<int> ran{0};
    const auto body = [&](std::size_t i) {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i == 3) throw std::runtime_error("boom");
    };
    EXPECT_THROW(parallel_for(100, jobs, body), std::runtime_error)
        << "jobs " << jobs;
    // Serially, nothing after the throwing index is started.
    if (jobs == 1) {
      EXPECT_EQ(ran.load(), 4);
    }
  }
}

}  // namespace
}  // namespace latdiv
