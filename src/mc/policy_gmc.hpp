// The throughput-optimized GPU memory controller baseline (paper §II-C).
//
// The GMC's row sorter forms streams of row-hit requests per bank; the
// transaction scheduler "picks a row-hit stream from the row sorter to
// service in each bank and interleaves requests to different banks" — so
// unlike classic FR-FCFS (one global pick), the GMC keeps EVERY bank's
// command queue fed with that bank's best stream each cycle.  Two
// fairness valves bound the reordering:
//   * an age threshold — a request older than `age_threshold` cycles is
//     scheduled next regardless of row locality;
//   * a maximum row-hit streak — a bank's planned same-row run is capped
//     so one stream cannot monopolise a bank.
//
// The streak state lives in the controller's per-bank insertion metadata
// (tail_streak), which is exactly the row sorter's "current stream length"
// without duplicating the bookkeeping here.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>

#include "mc/controller.hpp"
#include "mc/policy.hpp"

namespace latdiv {

struct GmcConfig {
  /// Cycles after which a pending request pre-empts row-hit streaming
  /// (~680 ns at tCK=0.667ns, ~1.4x the typical loaded round trip).
  Cycle age_threshold = 1024;
  /// Maximum consecutive same-row transactions planned per bank.
  std::uint32_t max_hit_streak = 16;
  /// Per-bank lookahead: how many transactions may sit in a bank's
  /// command queue before the row sorter stops feeding it.  Committing
  /// decisions early into a deep in-order queue would forfeit row hits
  /// from requests that arrive a few cycles later; the row sorter keeps
  /// the choice open until the bank is nearly ready (double-buffering).
  std::uint32_t bank_lookahead = 2;
};

class GmcPolicy : public TransactionScheduler {
 public:
  explicit GmcPolicy(const GmcConfig& cfg = {}) : cfg_(cfg) {}

  [[nodiscard]] const char* name() const override { return "GMC"; }

  void schedule_reads(MemoryController& mc, Cycle now) override {
    auto& rq = mc.read_queue();
    if (rq.empty()) return;
    // A pass that picked nothing stays empty until a selection-epoch event
    // (push, send_to_bank, CAS pop, ACT/PRE on a bank with no tail row) or
    // until a request still under the age threshold crosses it.
    const std::uint64_t epoch = mc.selection_epoch();
    if (skip_epoch_ == epoch && now < skip_until_) {
      LATDIV_DCHECK(evaluate(mc, now).n_picks == 0,
                    "GMC skip memo hid a schedulable request");
      return;
    }
    const Pass pass = evaluate(mc, now);
    if (pass.n_picks == 0) {
      skip_epoch_ = epoch;
      skip_until_ = pass.retry_at;
      return;
    }
    // Erase from the back so the recorded positions stay valid.
    for (std::size_t i = pass.n_picks; i-- > 0;) {
      auto it = rq.begin() + static_cast<std::ptrdiff_t>(pass.picks[i]);
      MemRequest req = *it;
      rq.erase(it);
      mc.send_to_bank(req, now);
    }
  }

  /// True while a pass that picked nothing is memoized for `now`.
  [[nodiscard]] bool skip_memo_armed(const MemoryController& mc,
                                     Cycle now) const {
    return skip_epoch_ == mc.selection_epoch() && now < skip_until_;
  }
  /// Drop the skip memo: the next pass evaluates the read queue (memo
  /// equivalence tests call this before every step).
  void forget_skip_memo() { skip_epoch_ = kNoEpoch; }

 private:
  static constexpr std::size_t kMaxBanks = MemoryController::kMaxBanks;
  static constexpr std::uint64_t kNoEpoch = ~std::uint64_t{0};

  /// One pass's outcome: the read-queue positions to move, ascending, and
  /// for an empty pass the first cycle at which age alone can change it.
  struct Pass {
    std::array<std::size_t, kMaxBanks> picks;
    std::size_t n_picks = 0;
    Cycle retry_at = kNoCycle;
  };

  [[nodiscard]] Pass evaluate(const MemoryController& mc, Cycle now) const {
    const auto& rq = mc.read_queue();
    // One pass: per bank, remember the queue position of the best
    // candidate in each priority class.
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    struct Cand {
      std::size_t aged, hit, breaker, oldest;
    };
    std::array<Cand, kMaxBanks> cands;
    cands.fill(Cand{kNone, kNone, kNone, kNone});
    const auto banks = static_cast<std::size_t>(mc.channel().timing().banks);
    // Per-bank inputs, read once per pass: whether the bank takes another
    // transaction at all, whether it takes a row-closing one (only once it
    // has fully drained: a hit for the still-open row may be one arrival
    // away, and closing early forfeits it — the row sorter's stream
    // hysteresis), whether its planned stream is below the streak cap,
    // and the row a hit must match.
    struct BankView {
      bool open_slot, miss_ok, under_cap;
      RowId predicted;
    };
    std::array<BankView, kMaxBanks> view;
    for (std::size_t b = 0; b < banks; ++b) {
      const auto bank = static_cast<BankId>(b);
      const std::size_t depth = mc.bank_queue_size(bank);
      view[b] = {depth < cfg_.bank_lookahead, depth == 0,
                 mc.tail_streak(bank) < cfg_.max_hit_streak,
                 mc.predicted_row(bank)};
    }
    Pass pass;

    std::size_t pos = 0;
    for (auto it = rq.begin(); it != rq.end(); ++it, ++pos) {
      const bool aged = now - it->arrived_at_mc > cfg_.age_threshold;
      if (!aged) {
        pass.retry_at = std::min(pass.retry_at,
                                 it->arrived_at_mc + cfg_.age_threshold + 1);
      }
      const BankView& v = view[it->loc.bank];
      if (!v.open_slot) continue;
      Cand& c = cands[it->loc.bank];
      const bool extends = v.predicted == it->loc.row;
      if (c.oldest == kNone && ((extends && v.under_cap) || v.miss_ok)) {
        c.oldest = pos;
      }
      // The starvation valve overrides the hysteresis: an over-age
      // request is inserted as soon as the bank can take it at all.
      if (c.aged == kNone && aged) c.aged = pos;
      if (c.hit == kNone && extends && v.under_cap) c.hit = pos;
      if (c.breaker == kNone && !extends && v.miss_ok) c.breaker = pos;
    }

    // Per bank: starvation valve, then row-hit streaming below the streak
    // cap, then (streak capped) the oldest stream-breaking request, then
    // arrival order.
    for (std::size_t b = 0; b < banks; ++b) {
      const Cand& c = cands[b];
      std::size_t pick = c.aged;
      if (pick == kNone) pick = c.hit;
      if (pick == kNone) pick = c.breaker;
      if (pick == kNone) pick = c.oldest;
      if (pick != kNone) pass.picks[pass.n_picks++] = pick;
    }
    std::sort(pass.picks.begin(), pass.picks.begin() + pass.n_picks);
    return pass;
  }

  GmcConfig cfg_;
  // Skip memo (not serialized; a snapshot load bumps the epoch).
  std::uint64_t skip_epoch_ = kNoEpoch;
  Cycle skip_until_ = 0;
};

}  // namespace latdiv
