// Sweep-driver input validation: exp::parse_uint, the numeric parser
// every command-line front end shares, and run_manifest's refusal of
// run shapes that cannot be executed.
#include "exp/driver.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

namespace latdiv::exp {
namespace {

TEST(ParseUint, AcceptsDecimalDigits) {
  EXPECT_EQ(parse_uint("0"), std::optional<std::uint64_t>(0));
  EXPECT_EQ(parse_uint("50000"), std::optional<std::uint64_t>(50000));
  EXPECT_EQ(parse_uint("007"), std::optional<std::uint64_t>(7));
  EXPECT_EQ(parse_uint("18446744073709551615"),
            std::optional<std::uint64_t>(UINT64_MAX));
}

TEST(ParseUint, RejectsEmptySignsAndTrailingText) {
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "abc", "12abc", "0x10",
                          "1e3", "1.5"}) {
    EXPECT_EQ(parse_uint(bad), std::nullopt) << "'" << bad << "'";
  }
}

TEST(ParseUint, RejectsValuesPastTheLimit) {
  EXPECT_EQ(parse_uint("18446744073709551616"), std::nullopt);  // 2^64
  EXPECT_EQ(parse_uint("99999999999999999999999"), std::nullopt);
  EXPECT_EQ(parse_uint("4294967295", UINT32_MAX),
            std::optional<std::uint64_t>(UINT32_MAX));
  EXPECT_EQ(parse_uint("4294967296", UINT32_MAX), std::nullopt);  // 2^32
  EXPECT_EQ(parse_uint("10", 9), std::nullopt);
  EXPECT_EQ(parse_uint("9", 9), std::optional<std::uint64_t>(9));
  EXPECT_EQ(parse_uint("1", 0), std::nullopt);
}

TEST(RunManifest, ZeroSeedsIsAUsageError) {
  SweepRunArgs args;
  args.opts.quick = true;
  args.opts.seeds = 0;
  args.progress = false;
  EXPECT_EQ(run_manifest("fig8", args), 2);
}

TEST(RunManifest, ZeroSampleIntervalIsAUsageError) {
  SweepRunArgs args;
  args.opts.quick = true;
  args.opts.filter = "bfs/GMC";
  args.sample_interval = 0;
  args.progress = false;
  EXPECT_EQ(run_manifest("fig8", args), 2);
}

}  // namespace
}  // namespace latdiv::exp
