// SM idle-tick memo equivalence: an SM whose scheduler scan fails
// memoizes when a scan could next act (Sm::tick's sleep_until_) and skips
// the warp scan until then, replaying the idle and MSHR-stall counts each
// skipped tick would make.  The memo must never skip a tick that could
// act, so a run with it must be bit-identical to a run that forgets it
// before every step (DESIGN.md, "Per-component memos").  The memory
// controller's memos (command readiness, policy skips) are held to the
// same rule at the end of this file.
//
// The comparison goes through exp::metrics_from, the same flattening the
// sweep artifacts use, so every reported metric is covered, and then
// spot-checks the raw counters the flattening rounds through doubles.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ckpt/sampler.hpp"
#include "core/policy_wg.hpp"
#include "exp/executor.hpp"
#include "mc/policy_frfcfs.hpp"
#include "mc/policy_gmc.hpp"
#include "scenario/scenario.hpp"
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

SimConfig scenario_cfg(SchedulerKind sched, const std::string& scenario) {
  SimConfig cfg;
  cfg.shrink_for_tests();
  cfg.scheduler = sched;
  cfg.workload.name = scenario;
  cfg.instr_source = [scenario](std::uint32_t sms, std::uint32_t warps,
                                std::uint64_t s) {
    return scenario::make_scenario(scenario::scenario_by_name(scenario), sms,
                                   warps, s);
  };
  return cfg;
}

/// Advance `sim` to `end`; with `forget`, every SM's idle memo is dropped
/// before each step, so every scheduler tick rescans its warps.  Returns
/// the SM-steps that began with an MSHR-stall memo armed.
std::uint64_t advance(Simulator& sim, Cycle end, bool forget) {
  std::uint64_t armed = 0;
  const std::uint32_t sms = sim.config().num_sms;
  while (sim.now() < end) {
    for (std::uint32_t i = 0; i < sms; ++i) {
      if (forget) {
        sim.sm(i).forget_idle_memo();
      } else if (sim.sm(i).mshr_stall_memo_armed(sim.now())) {
        ++armed;
      }
    }
    sim.step();
  }
  return armed;
}

void expect_same(const RunResult& off, const RunResult& on) {
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

/// Run `cfg` with the idle memo off and on; every metric must match.
/// Returns the SM-steps the memo run spent in an MSHR-stall skip.
std::uint64_t expect_equivalent(const SimConfig& cfg) {
  Simulator off(cfg);
  advance(off, cfg.max_cycles, /*forget=*/true);
  Simulator on(cfg);
  const std::uint64_t armed = advance(on, cfg.max_cycles, /*forget=*/false);
  expect_same(off.finish(), on.finish());
  return armed;
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

TEST(FastForward, IdenticalUnderLooseRoundRobin) {
  // LRR resumes its scan after the last issuer: the warp that takes the
  // scan's one memory attempt depends on that pointer.
  SimConfig cfg = small_cfg(SchedulerKind::kGmc, "bfs");
  cfg.sm.warp_sched = WarpSchedPolicy::kLrr;
  expect_equivalent(cfg);
}

TEST(FastForward, IdenticalWithPerfectCoalescing) {
  // One line per load: far fewer MSHR stalls and far more LSU-busy
  // stretches than the divergent default.
  SimConfig cfg = small_cfg(SchedulerKind::kWgW, "bfs");
  cfg.sm.perfect_coalescing = true;
  expect_equivalent(cfg);
}

TEST(FastForward, IdenticalOnScenarioSources) {
  for (const char* scenario : {"powerlaw-rows", "pointer-chase"}) {
    SCOPED_TRACE(scenario);
    expect_equivalent(scenario_cfg(SchedulerKind::kWgM, scenario));
  }
}

TEST(FastForward, IdenticalUnderMshrPressure) {
  // Four MSHRs and 32 warps: loads stall on MSHRs most of the time, so
  // most skipped ticks replay an issue_stall_mshr count.
  SimConfig cfg = small_cfg(SchedulerKind::kGmc, "bfs");
  cfg.sm.warps = 32;
  cfg.sm.l1_mshr = MshrConfig{4, 8};
  EXPECT_GT(expect_equivalent(cfg), 0u) << "no MSHR-stall skip was taken";
}

TEST(FastForward, IdenticalThroughSampledSkips) {
  // Sampled mode: detailed spans alternate with functional-warming skips
  // (Sm::warm_line, Simulator::teleport), which change L1 contents and
  // the clock without a tick; the fixed issue rates make both runs draw
  // the same warming stream.
  SimConfig cfg = small_cfg(SchedulerKind::kGmc, "bfs");
  cfg.check.protocol = false;
  cfg.check.invariants = false;
  cfg.sm.l1_mshr = MshrConfig{8, 8};
  cfg.max_cycles = 40'000;
  ckpt::SamplingConfig scfg;
  scfg.warm_cycles = 1'000;
  scfg.detail_cycles = 2'000;
  scfg.period_cycles = 8'000;
  auto sampled = [&](bool forget) {
    Simulator sim(cfg);
    ckpt::SampledRunner runner(sim, scfg);
    runner.freeze_issue_rates(std::vector<std::uint64_t>(cfg.num_sms, 400));
    for (Cycle start = 0; start < cfg.max_cycles;
         start += scfg.period_cycles) {
      advance(sim,
              std::min(start + scfg.warm_cycles + scfg.detail_cycles,
                       cfg.max_cycles),
              forget);
      const Cycle next = std::min(start + scfg.period_cycles, cfg.max_cycles);
      runner.skip_to(next);
    }
    EXPECT_GT(runner.warm_instructions(), 0u);
    return sim.finish();
  };
  expect_same(sampled(/*forget=*/true), sampled(/*forget=*/false));
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

// ---------------------------------------------------------------------------
// Memory-controller memos: the command scheduler's cached head readiness
// (MemoryController::issue_memo_armed) and the transaction scheduler's
// skip of passes that cannot pick (GMC's epoch + age horizon, FR-FCFS's
// epoch, WG's select memo).  A run that forgets both before every step
// must report exactly what the memoized run reports.

struct McMemoCounts {
  std::uint64_t issue_skips = 0;   ///< channel-steps with the command memo armed
  std::uint64_t policy_skips = 0;  ///< channel-steps with a policy skip armed
};

/// Drop (or count) every channel's command memo and policy skip memo.
void visit_mc_memos(Simulator& sim, bool forget, McMemoCounts& counts) {
  for (std::size_t p = 0; p < sim.config().icnt.partitions; ++p) {
    MemoryController& mc = sim.partition(p).mc();
    auto* gmc = dynamic_cast<GmcPolicy*>(&mc.policy());
    auto* frfcfs = dynamic_cast<FrFcfsPolicy*>(&mc.policy());
    auto* wg = dynamic_cast<WgPolicy*>(&mc.policy());
    if (forget) {
      mc.forget_issue_memo();
      if (gmc != nullptr) gmc->forget_skip_memo();
      if (frfcfs != nullptr) frfcfs->forget_skip_memo();
      if (wg != nullptr) wg->forget_select_memo();
      continue;
    }
    if (mc.issue_memo_armed(sim.now())) ++counts.issue_skips;
    if ((gmc != nullptr && gmc->skip_memo_armed(mc, sim.now())) ||
        (frfcfs != nullptr && frfcfs->skip_memo_armed(mc)) ||
        (wg != nullptr && wg->select_memo_armed(mc))) {
      ++counts.policy_skips;
    }
  }
}

McMemoCounts advance_mc(Simulator& sim, Cycle end, bool forget) {
  McMemoCounts counts;
  while (sim.now() < end) {
    visit_mc_memos(sim, forget, counts);
    sim.step();
  }
  return counts;
}

/// Run `cfg` forgetting the controller memos before every step, then
/// with them; every metric must match and both memos must have fired.
void expect_mc_memo_equivalent(const SimConfig& cfg) {
  Simulator off(cfg);
  advance_mc(off, cfg.max_cycles, /*forget=*/true);
  Simulator on(cfg);
  const McMemoCounts counts = advance_mc(on, cfg.max_cycles, /*forget=*/false);
  expect_same(off.finish(), on.finish());
  EXPECT_GT(counts.issue_skips, 0u) << "the command memo never armed";
  EXPECT_GT(counts.policy_skips, 0u) << "no policy skip memo armed";
}

SimConfig gmc_aged_cfg(SimConfig cfg) {
  // A short age threshold makes the starvation valve, and with it the
  // skip memo's time horizon, decide often.
  cfg.gmc.age_threshold = 32;
  return cfg;
}

struct McMemoCase {
  const char* name;
  SchedulerKind sched;
  bool short_age;
};

class McMemo : public ::testing::TestWithParam<McMemoCase> {
 protected:
  SimConfig with_case(SimConfig cfg) const {
    return GetParam().short_age ? gmc_aged_cfg(cfg) : cfg;
  }
};

INSTANTIATE_TEST_SUITE_P(
    Schedulers, McMemo,
    ::testing::Values(McMemoCase{"GMC", SchedulerKind::kGmc, false},
                      McMemoCase{"GMC_age32", SchedulerKind::kGmc, true},
                      McMemoCase{"FR_FCFS", SchedulerKind::kFrFcfs, false},
                      McMemoCase{"WG_W", SchedulerKind::kWgW, false}),
    [](const auto& info) { return std::string(info.param.name); });

TEST_P(McMemo, IdenticalOnBfs) {
  expect_mc_memo_equivalent(with_case(small_cfg(GetParam().sched, "bfs")));
}

TEST_P(McMemo, IdenticalUnderWritePressure) {
  expect_mc_memo_equivalent(with_case(small_cfg(GetParam().sched, "spmv")));
}

TEST_P(McMemo, IdenticalOnPowerlawRows) {
  expect_mc_memo_equivalent(
      with_case(scenario_cfg(GetParam().sched, "powerlaw-rows")));
}

TEST(McMemoSampled, IdenticalThroughSampledSkips) {
  // Functional warming (Channel::warm_row) reopens rows under queued bank
  // heads between detailed spans; the command memo must see it.
  SimConfig cfg = gmc_aged_cfg(small_cfg(SchedulerKind::kGmc, "bfs"));
  cfg.check.protocol = false;
  cfg.check.invariants = false;
  cfg.max_cycles = 40'000;
  ckpt::SamplingConfig scfg;
  scfg.warm_cycles = 1'000;
  scfg.detail_cycles = 2'000;
  scfg.period_cycles = 8'000;
  auto sampled = [&](bool forget) {
    Simulator sim(cfg);
    ckpt::SampledRunner runner(sim, scfg);
    runner.freeze_issue_rates(std::vector<std::uint64_t>(cfg.num_sms, 400));
    for (Cycle start = 0; start < cfg.max_cycles;
         start += scfg.period_cycles) {
      advance_mc(sim,
                 std::min(start + scfg.warm_cycles + scfg.detail_cycles,
                          cfg.max_cycles),
                 forget);
      runner.skip_to(std::min(start + scfg.period_cycles, cfg.max_cycles));
    }
    EXPECT_GT(runner.warm_instructions(), 0u);
    return sim.finish();
  };
  expect_same(sampled(/*forget=*/true), sampled(/*forget=*/false));
}

}  // namespace
}  // namespace latdiv
