// First-Ready FCFS (Rixner et al., ISCA 2000).
//
// Each cycle: the oldest request that would be a row hit on its bank's
// predicted row is scheduled; if no schedulable hit exists, the oldest
// schedulable request is.  This is the classic bandwidth-greedy policy the
// GMC baseline refines.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/log.hpp"
#include "mc/controller.hpp"
#include "mc/policy.hpp"

namespace latdiv {

class FrFcfsPolicy final : public TransactionScheduler {
 public:
  [[nodiscard]] const char* name() const override { return "FR-FCFS"; }

  void schedule_reads(MemoryController& mc, Cycle now) override {
    auto& rq = mc.read_queue();
    if (rq.empty()) return;
    // With no age term, a pass that picked nothing stays empty until a
    // selection-epoch event (push, send_to_bank, CAS pop).
    const std::uint64_t epoch = mc.selection_epoch();
    if (skip_epoch_ == epoch) {
      LATDIV_DCHECK(evaluate(mc) == kNone,
                    "FR-FCFS skip memo hid a schedulable request");
      return;
    }
    const std::size_t best = evaluate(mc);
    if (best == kNone) {
      skip_epoch_ = epoch;
      return;
    }
    auto it = rq.begin() + static_cast<std::ptrdiff_t>(best);
    MemRequest req = *it;
    rq.erase(it);
    mc.send_to_bank(req, now);
  }

  /// True while a pass that picked nothing is memoized.
  [[nodiscard]] bool skip_memo_armed(const MemoryController& mc) const {
    return skip_epoch_ == mc.selection_epoch();
  }
  /// Drop the skip memo (memo equivalence tests).
  void forget_skip_memo() { skip_epoch_ = kNoEpoch; }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  static constexpr std::uint64_t kNoEpoch = ~std::uint64_t{0};

  /// Read-queue position of this cycle's pick, or kNone.
  [[nodiscard]] static std::size_t evaluate(const MemoryController& mc) {
    std::size_t best = kNone;
    std::size_t pos = 0;
    for (auto it = mc.read_queue().begin(); it != mc.read_queue().end();
         ++it, ++pos) {
      // Classic FR-FCFS re-evaluates row state at issue time; bounding
      // the per-bank backlog keeps the decision near service time.
      if (mc.bank_queue_size(it->loc.bank) >= 2) continue;
      if (mc.predicted_row(it->loc.bank) == it->loc.row) {
        return pos;  // oldest row-hit wins outright
      }
      if (best == kNone) best = pos;  // remember oldest schedulable
    }
    return best;
  }

  // Skip memo (not serialized; a snapshot load bumps the epoch).
  std::uint64_t skip_epoch_ = kNoEpoch;
};

}  // namespace latdiv
