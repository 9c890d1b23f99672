// Behavioural tests for the baseline transaction schedulers: FCFS,
// FR-FCFS, GMC (streak cap + age threshold), WAFCFS and SBWAS.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dram/params.hpp"
#include "mc/controller.hpp"
#include "mc/policy_fcfs.hpp"
#include "mc/policy_frfcfs.hpp"
#include "mc/policy_gmc.hpp"
#include "mc/policy_sbwas.hpp"
#include "mc/policy_wafcfs.hpp"

namespace latdiv {
namespace {

DramTiming timing_no_refresh() {
  DramParams p;
  p.refresh_enabled = false;
  return DramTiming::from(p);
}

MemRequest read_to(BankId bank, RowId row, std::uint32_t col = 0,
                   WarpInstrUid uid = 1) {
  MemRequest r;
  r.kind = ReqKind::kRead;
  r.addr = (static_cast<Addr>(row) << 15) | (static_cast<Addr>(col) << 7) |
           (static_cast<Addr>(bank) << 28);
  r.loc.bank = bank;
  r.loc.bank_group = bank / 4;
  r.loc.row = row;
  r.loc.col = col;
  r.tag.instr = uid;
  return r;
}

struct Harness {
  explicit Harness(std::unique_ptr<TransactionScheduler> policy,
                   McConfig cfg = {})
      : mc(0, cfg, timing_no_refresh(), std::move(policy),
           [this](const MemRequest& req, Cycle) {
             order.push_back(req);
           }) {}

  void run_to(Cycle end) {
    for (; now < end; ++now) mc.tick(now);
  }

  Cycle now = 0;
  std::vector<MemRequest> order;
  MemoryController mc;
};

// --- FCFS ---------------------------------------------------------------

TEST(Fcfs, ServesStrictArrivalOrderSameBank) {
  Harness h(std::make_unique<FcfsPolicy>());
  h.mc.push(read_to(0, 1, 0, 10), 0);
  h.mc.push(read_to(0, 9, 0, 20), 0);  // row miss in between
  h.mc.push(read_to(0, 1, 1, 30), 0);  // would be a hit if reordered
  h.run_to(1000);
  ASSERT_EQ(h.order.size(), 3u);
  EXPECT_EQ(h.order[0].tag.instr, 10u);
  EXPECT_EQ(h.order[1].tag.instr, 20u);
  EXPECT_EQ(h.order[2].tag.instr, 30u);
}

TEST(Fcfs, HeadOfLineBlocksOnFullBankQueue) {
  Harness h(std::make_unique<FcfsPolicy>());
  for (int i = 0; i < 9; ++i) h.mc.push(read_to(0, i, 0, i), 0);
  h.mc.push(read_to(5, 1, 0, 99), 0);  // different, idle bank
  h.run_to(12);
  // Bank 0's queue (depth 8) is full; the request to bank 5 is behind the
  // 9th bank-0 request and must NOT have been scheduled yet.
  EXPECT_EQ(h.mc.bank_queue_size(5), 0u);
}

// --- FR-FCFS ------------------------------------------------------------

TEST(FrFcfs, PrefersRowHitOverOlderMiss) {
  Harness h(std::make_unique<FrFcfsPolicy>());
  h.mc.push(read_to(0, 1, 0, 10), 0);
  h.run_to(30);  // row 1 is now the predicted/open row
  h.mc.push(read_to(0, 9, 0, 20), 30);  // older miss
  h.mc.push(read_to(0, 1, 1, 30), 30);  // younger hit
  h.run_to(1000);
  ASSERT_EQ(h.order.size(), 3u);
  EXPECT_EQ(h.order[1].tag.instr, 30u) << "row hit should jump the miss";
  EXPECT_EQ(h.order[2].tag.instr, 20u);
}

TEST(FrFcfs, FallsBackToOldestWhenNoHits) {
  Harness h(std::make_unique<FrFcfsPolicy>());
  h.mc.push(read_to(0, 5, 0, 10), 0);
  h.mc.push(read_to(0, 6, 0, 20), 0);
  h.run_to(1000);
  ASSERT_EQ(h.order.size(), 2u);
  EXPECT_EQ(h.order[0].tag.instr, 10u);
}

TEST(FrFcfs, SkipsRequestsForFullBanks) {
  Harness h(std::make_unique<FrFcfsPolicy>());
  for (int i = 0; i < 8; ++i) h.mc.push(read_to(0, i, 0, i), 0);
  h.mc.push(read_to(5, 1, 0, 99), 0);
  h.run_to(12);
  // Unlike FCFS, FR-FCFS schedules around the saturated bank.
  EXPECT_EQ(h.mc.bank_queue_size(5), 1u);
}

// --- GMC ----------------------------------------------------------------

TEST(Gmc, StreakCapBreaksRowMonopoly) {
  GmcConfig cfg;
  cfg.max_hit_streak = 4;
  Harness h(std::make_unique<GmcPolicy>(cfg));
  // 8 hits to row 1 and one miss to row 9, all present from cycle 0.
  for (int i = 0; i < 8; ++i) h.mc.push(read_to(0, 1, i, 10 + i), 0);
  h.mc.push(read_to(0, 9, 0, 99), 0);
  h.run_to(2000);
  ASSERT_EQ(h.order.size(), 9u);
  // The miss must be serviced before the full streak of 8 hits finishes.
  std::size_t miss_pos = 0;
  for (std::size_t i = 0; i < h.order.size(); ++i) {
    if (h.order[i].tag.instr == 99) miss_pos = i;
  }
  EXPECT_LT(miss_pos, 8u);
}

TEST(Gmc, AgeThresholdRescuesStarvedRequest) {
  GmcConfig cfg;
  cfg.age_threshold = 100;
  cfg.max_hit_streak = 1000;  // disable the streak valve
  Harness h(std::make_unique<GmcPolicy>(cfg));
  // Establish row 1 as the open stream first.
  for (int i = 0; i < 4; ++i) h.mc.push(read_to(0, 1, i, i), 0);
  h.run_to(30);
  h.mc.push(read_to(0, 9, 0, 99), 30);  // the would-be-starved miss
  // A *continuous* supply of row-1 hits (arrival rate above the drain
  // rate of one CAS per tCCDL) that would starve the miss forever
  // without the age valve (streaks are uncapped here).
  int pushed = 0;
  while (pushed < 40) {
    for (int j = 0; j < 4 && pushed < 40; ++j, ++pushed) {
      h.mc.push(read_to(0, 1, pushed % 16, 100 + pushed), h.now);
    }
    h.run_to(h.now + 10);
  }
  h.run_to(4000);
  ASSERT_EQ(h.order.size(), 45u);
  std::size_t miss_pos = h.order.size();
  for (std::size_t i = 0; i < h.order.size(); ++i) {
    if (h.order[i].tag.instr == 99) miss_pos = i;
  }
  EXPECT_GT(miss_pos, 4u) << "hits younger than the threshold go first";
  EXPECT_LT(miss_pos, 44u) << "aged request must pre-empt the hit stream";
}

TEST(Gmc, SkippedPassWakesOnTheAgeCrossing) {
  // A pass that picks nothing is skipped until the selection epoch moves
  // or a young request ages past the threshold.  Nothing else happens
  // here: bank 0 holds one request waiting out tRCD, and the row miss
  // queued behind it may enter only as an over-age request, on the first
  // cycle its age exceeds the threshold.
  GmcConfig cfg;
  cfg.age_threshold = 4;
  Harness h(std::make_unique<GmcPolicy>(cfg));
  const auto& gmc = dynamic_cast<const GmcPolicy&>(h.mc.policy());
  h.mc.push(read_to(0, 1, 0, 10), 0);
  h.run_to(1);
  ASSERT_EQ(h.mc.bank_queue_size(0), 1u);
  h.mc.push(read_to(0, 9, 0, 20), 1);
  const Cycle crossing = 1 + cfg.age_threshold + 1;
  h.run_to(crossing);
  EXPECT_EQ(h.mc.bank_queue_size(0), 1u) << "a young miss waits";
  EXPECT_TRUE(gmc.skip_memo_armed(h.mc, crossing - 1));
  EXPECT_FALSE(gmc.skip_memo_armed(h.mc, crossing));
  h.run_to(crossing + 1);
  EXPECT_EQ(h.mc.bank_queue_size(0), 2u)
      << "the aged miss enters on the crossing cycle";
  ASSERT_TRUE(h.order.empty()) << "the first read's CAS came before tRCD";
}

TEST(Gmc, ExploitsRowHitsLikeFrFcfs) {
  Harness h(std::make_unique<GmcPolicy>());
  h.mc.push(read_to(0, 1, 0, 10), 0);
  h.run_to(30);
  h.mc.push(read_to(0, 9, 0, 20), 30);
  h.mc.push(read_to(0, 1, 1, 30), 30);
  h.run_to(1000);
  ASSERT_EQ(h.order.size(), 3u);
  EXPECT_EQ(h.order[1].tag.instr, 30u);
}

// --- WAFCFS -------------------------------------------------------------

TEST(Wafcfs, InOrderLikeFcfs) {
  Harness h(std::make_unique<WafcfsPolicy>());
  h.mc.push(read_to(0, 1, 0, 10), 0);
  h.mc.push(read_to(0, 9, 0, 20), 0);
  h.mc.push(read_to(0, 1, 1, 30), 0);
  h.run_to(1000);
  ASSERT_EQ(h.order.size(), 3u);
  EXPECT_EQ(h.order[0].tag.instr, 10u);
  EXPECT_EQ(h.order[1].tag.instr, 20u);
  EXPECT_EQ(h.order[2].tag.instr, 30u);
}

// --- SBWAS --------------------------------------------------------------

TEST(Sbwas, InterleavedWritesFlag) {
  SbwasPolicy p;
  EXPECT_TRUE(p.wants_interleaved_writes());
}

TEST(Sbwas, HighAlphaFavoursShortWarp) {
  // Warp 7 has a single request (a row miss); warp 1 has a long row-hit
  // stream.  With alpha=0.75 the potential of the unit warp
  // (0.75/1) beats a hit (0.25), so it must be served first.
  SbwasConfig cfg;
  cfg.alpha = 0.75;
  Harness h(std::make_unique<SbwasPolicy>(cfg));
  h.mc.push(read_to(0, 1, 0, 1), 0);
  h.run_to(30);
  for (int i = 1; i < 8; ++i) h.mc.push(read_to(0, 1, i, 1), 30);
  h.mc.push(read_to(0, 9, 0, 7), 30);
  h.run_to(2000);
  ASSERT_EQ(h.order.size(), 9u);
  EXPECT_EQ(h.order[1].tag.instr, 7u);
}

TEST(Sbwas, LowAlphaFavoursRowHits) {
  SbwasConfig cfg;
  cfg.alpha = 0.25;
  Harness h(std::make_unique<SbwasPolicy>(cfg));
  h.mc.push(read_to(0, 1, 0, 1), 0);
  h.run_to(30);
  for (int i = 1; i < 8; ++i) h.mc.push(read_to(0, 1, i, 1), 30);
  h.mc.push(read_to(0, 9, 0, 7), 30);
  h.run_to(2000);
  ASSERT_EQ(h.order.size(), 9u);
  // With alpha=0.25 a hit (0.75) always beats the short-warp potential
  // (<= 0.25): the miss drains last.
  EXPECT_EQ(h.order.back().tag.instr, 7u);
}

TEST(Sbwas, DrainsWritesUnderPressure) {
  SbwasConfig cfg;
  cfg.write_pressure = 4;
  Harness h(std::make_unique<SbwasPolicy>(cfg));
  for (int i = 0; i < 6; ++i) {
    MemRequest w = read_to(0, 2, i, kNoWarpInstr);
    w.kind = ReqKind::kWrite;
    h.mc.push(w, 0);
  }
  for (int i = 0; i < 4; ++i) h.mc.push(read_to(1, 1, i, 5), 0);
  h.run_to(2000);
  EXPECT_EQ(h.mc.stats().writes_served, 6u);
  EXPECT_EQ(h.order.size(), 4u);
}

TEST(Sbwas, NeverEntersDrainMode) {
  SbwasConfig cfg;
  Harness h(std::make_unique<SbwasPolicy>(cfg));
  for (int i = 0; i < 40; ++i) {
    MemRequest w = read_to(i % 16, 2, i / 16, kNoWarpInstr);
    w.kind = ReqKind::kWrite;
    h.mc.push(w, 0);
  }
  h.run_to(100);
  EXPECT_FALSE(h.mc.in_write_drain());
  h.run_to(5000);
  EXPECT_EQ(h.mc.stats().writes_served, 40u);
}

}  // namespace
}  // namespace latdiv
