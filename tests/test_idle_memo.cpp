// SM idle-tick fast-forward equivalence: an SM whose scheduler scan fails
// memoizes its next wake-up (Sm::tick's idle_until_) and skips the warp
// scan until then, counting each skipped tick as idle.  The memo must
// never skip a tick that could act, so a run with it must be bit-identical
// to a run that forgets it before every step (DESIGN.md, "Per-component
// memos").
//
// The comparison goes through exp::metrics_from, the same flattening the
// sweep artifacts use, so every reported metric is covered, and then
// spot-checks the raw counters the flattening rounds through doubles.
#include <gtest/gtest.h>

#include "exp/executor.hpp"
#include "sim/simulator.hpp"

namespace latdiv {
namespace {

SimConfig small_cfg(SchedulerKind sched, const char* workload) {
  SimConfig cfg;
  cfg.shrink_for_tests();
  cfg.scheduler = sched;
  cfg.workload = profile_by_name(workload);
  return cfg;
}

/// Run `cfg` to completion with every SM's idle memo dropped before each
/// step: every scheduler tick rescans its warps.
RunResult run_without_idle_memo(const SimConfig& cfg) {
  Simulator sim(cfg);
  while (sim.now() < cfg.max_cycles) {
    for (std::uint32_t i = 0; i < cfg.num_sms; ++i) {
      sim.sm(i).forget_idle_memo();
    }
    sim.step();
  }
  return sim.finish();
}

/// Run `cfg` with the idle memo off and on; every metric must match.
void expect_equivalent(const SimConfig& cfg) {
  const RunResult off = run_without_idle_memo(cfg);
  const RunResult on = Simulator(cfg).run();

  EXPECT_EQ(exp::metrics_from(off), exp::metrics_from(on));
  EXPECT_EQ(off.instructions, on.instructions);
  EXPECT_EQ(off.core_cycles, on.core_cycles);
  EXPECT_EQ(off.dram_cycles, on.dram_cycles);
  EXPECT_EQ(off.dram_reads, on.dram_reads);
  EXPECT_EQ(off.dram_writes, on.dram_writes);
  EXPECT_EQ(off.dram_activates, on.dram_activates);
  EXPECT_EQ(off.sm_no_ready_warp_cycles, on.sm_no_ready_warp_cycles);
  EXPECT_EQ(off.sm_issue_stall_mshr, on.sm_issue_stall_mshr);
  EXPECT_EQ(off.wg_groups_selected, on.wg_groups_selected);
  EXPECT_EQ(off.wg_fallback_selections, on.wg_fallback_selections);
  EXPECT_EQ(off.wg_merb_deferrals, on.wg_merb_deferrals);
}

class FastForwardAllSchedulers
    : public ::testing::TestWithParam<SchedulerKind> {};

INSTANTIATE_TEST_SUITE_P(
    Schedulers, FastForwardAllSchedulers,
    ::testing::Values(SchedulerKind::kFcfs, SchedulerKind::kFrFcfs,
                      SchedulerKind::kGmc, SchedulerKind::kWafcfs,
                      SchedulerKind::kSbwas, SchedulerKind::kWg,
                      SchedulerKind::kWgM, SchedulerKind::kWgBw,
                      SchedulerKind::kWgW, SchedulerKind::kWgShared,
                      SchedulerKind::kZld),
    [](const auto& info) {
      std::string n = to_string(info.param);
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

TEST_P(FastForwardAllSchedulers, IdenticalResultsOnIrregularWorkload) {
  // The scheduler decides when each blocked warp's last line returns,
  // i.e. when a memoized SM is woken: every policy gets its own pattern.
  expect_equivalent(small_cfg(GetParam(), "bfs"));
}

TEST_P(FastForwardAllSchedulers, IdenticalResultsUnderWritePressure) {
  // spmv is the most write-intensive profile: write-drain phases delay
  // read responses, so memoized SMs wake on a different cadence.
  expect_equivalent(small_cfg(GetParam(), "spmv"));
}

TEST(FastForward, IdenticalWithCheckersDisabled) {
  // shrink_for_tests enables the protocol/invariant checkers; the memo
  // must be exact without their audits too.
  SimConfig cfg = small_cfg(SchedulerKind::kWgW, "sssp");
  cfg.check.protocol = false;
  cfg.check.invariants = false;
  expect_equivalent(cfg);
}

TEST(FastForward, IdenticalAcrossWarmupBoundary) {
  // The warmup snapshot is taken at exactly warmup_cycles; idle ticks
  // the memo skips around it must still be counted on the right side.
  SimConfig cfg = small_cfg(SchedulerKind::kGmc, "nw");
  cfg.warmup_cycles = 97;  // deliberately off any natural event cycle
  expect_equivalent(cfg);
}

TEST(FastForward, IdenticalWithRefreshDisabled) {
  // Without refresh the response cadence changes, and every memoized
  // SM must still wake on the cycle its warp becomes ready.
  SimConfig cfg = small_cfg(SchedulerKind::kWgBw, "kmeans");
  cfg.dram.refresh_enabled = false;
  expect_equivalent(cfg);
}

TEST(FastForward, CustomPolicyDefaultQuiescentIsSafe) {
  // A custom policy that keeps the conservative quiescent() default
  // (always true) but holds no hidden state: results must match the
  // built-in path bit for bit, with and without the idle memo.
  SimConfig cfg = small_cfg(SchedulerKind::kGmc, "bfs");
  const RunResult builtin = Simulator(cfg).run();
  cfg.custom_policy = [gmc = cfg.gmc](ChannelId, const DramTiming&) {
    return std::make_unique<GmcPolicy>(gmc);
  };
  expect_equivalent(cfg);
  EXPECT_EQ(exp::metrics_from(builtin),
            exp::metrics_from(Simulator(cfg).run()));
}

}  // namespace
}  // namespace latdiv
