// Warp-group scheduling — the paper's contribution (§IV).
//
// One policy class implements the whole WG family; the paper's four design
// points are feature flags layered bottom-up exactly as in the evaluation:
//
//   WG     (§IV-B)  bank-aware shortest-job-first over *warp-groups*: all
//                   requests of one warp at this controller are scheduled
//                   as a unit; groups are ranked by an estimated completion
//                   time (row-hit=1 / row-miss=3 per request, plus the
//                   score of everything already queued at each bank; the
//                   group score is the max over its banks) and the lowest
//                   score wins, ties broken by most row-hits.
//   WG-M   (§IV-C)  + controllers broadcast (warp id, local score) when
//                   they select a group; a receiver holding the same
//                   warp's group lowers its local score by (LC - RC) when
//                   the local estimate LC exceeds the remote RC.
//   WG-Bw  (§IV-D)  + MERB: a row-miss from the selected group is admitted
//                   to a bank only after that bank's planned row-hit run
//                   reaches the MERB threshold; pending row hits from
//                   other (nearly-complete first) warps fill the gap, and
//                   the "orphan control" rule tops up runs that would
//                   leave only 1-2 stranded hits behind.
//   WG-W   (§IV-E)  + write awareness: once the write queue is within 8
//                   entries of its high watermark, warp-groups with a
//                   single remaining request are served first regardless
//                   of score, so an imminent drain does not strand
//                   almost-finished warps.
//
// Requests physically stay in the controller's 64-entry read queue until
// pulled; the warp sorter here is the paper's 128-entry <SM-id, Warp-id>
// tracking structure (we key it by the dynamic warp instruction, which is
// unique per in-flight load since warps block on loads).
//
// Liveness beyond the paper's text: if the read queue fills with requests
// of groups that are all incomplete, no group would ever become eligible
// and the controller would deadlock (the remaining requests of every group
// are stuck behind the full queue).  When no complete group exists and the
// queue is under pressure — or the oldest request exceeds an age bound —
// the policy falls back to draining the group that contains the oldest
// request.  Such partially-serviced groups are the "orphaned" groups of
// Fig. 12; their leftover requests are scheduled when their completion
// signal eventually arrives.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/log.hpp"
#include "core/merb.hpp"
#include "mc/controller.hpp"
#include "mc/policy.hpp"

namespace latdiv {

struct WgConfig {
  bool multi_channel = false;  ///< WG-M coordination
  bool merb = false;           ///< WG-Bw bandwidth optimisation
  bool write_aware = false;    ///< WG-W drain awareness
  /// Extension (paper Conclusions): prioritise warp-groups that touch
  /// DRAM rows other pending warp-groups also need — serving them opens
  /// rows that benefit multiple warps.  Off in all paper configurations.
  bool shared_data_boost = false;
  std::uint32_t shared_weight = 1;  ///< score discount per shared request

  std::uint32_t score_hit = 1;   ///< ~tCAS (12 ns)
  std::uint32_t score_miss = 3;  ///< ~tRP+tRCD+tCAS (36 ns)
  std::uint32_t orphan_limit = 2;
  std::uint32_t wq_guard = 8;  ///< WG-W arms at (high watermark - guard)
  /// Liveness fallback: drain an incomplete group once the oldest request
  /// is this old, or when the read queue is nearly full.
  Cycle fallback_age = 8192;
  /// WG-M: how long a remote-selection message stays matchable against
  /// not-yet-arrived warp-groups.
  Cycle coord_msg_ttl = 256;
  std::size_t rq_pressure_slack = 4;
  std::uint32_t max_pushes_per_cycle = 8;
};

/// Per-warp-group bookkeeping (the warp sorter / bank table entry).
///
/// Besides the paper's counters this carries the incremental read-queue
/// index: one entry per request of the group still waiting in the
/// controller's read queue, grouped by bank and kept in arrival order.
/// WgPolicy maintains it in on_push and at every read-queue erase, so
/// selection and scoring never rescan the read queue.
struct WgGroupMeta {
  WarpTag tag;
  Cycle first_arrival = kNoCycle;
  std::uint32_t seen = 0;    ///< requests received at this controller
  std::uint32_t pushed = 0;  ///< requests already sent to bank queues
  std::uint32_t coord_bonus = 0;  ///< accumulated WG-M score reduction
  bool complete = false;

  struct QueuedReq {
    std::uint64_t seq;  ///< controller-wide arrival sequence number
    Cycle arrival;      ///< == arrived_at_mc (non-decreasing in seq)
    RowId row;
  };
  struct BankSlot {
    BankId bank;
    std::vector<QueuedReq> items;  ///< this group's queued requests, in
                                   ///< read-queue (= seq) order
    /// bank_epoch(bank)+1 when cached_score was computed (score cache).
    mutable std::uint64_t score_epoch = 0;
  };
  /// Per-bank slots in first-touch order; a slot may drain empty.
  std::vector<BankSlot> slots;
  std::uint64_t version = 0;  ///< bumped on every index add/remove
  /// Listed in WgPolicy::active_ (exactly while queued() > 0).
  bool in_active = false;

  /// Group score cache (see WgPolicy::score_group): valid while
  /// score_version matches `version` and every non-empty slot's
  /// score_epoch matches the controller's current bank epoch.
  mutable std::uint64_t score_version = ~std::uint64_t{0};
  mutable std::uint32_t score_completion = 0;
  mutable std::uint32_t score_row_hits = 0;

  /// Selection summary (see WgPolicy::summarize), valid while
  /// summary_version matches `version`: seq and arrival of the group's
  /// earliest queued request.  Arrival is non-decreasing in seq, so
  /// `head_seq` alone orders groups by age.
  mutable std::uint64_t summary_version = ~std::uint64_t{0};
  mutable std::uint64_t head_seq = 0;
  mutable Cycle oldest = kNoCycle;

  /// "Does not fit" memo per selection mode (index: require_drained): at
  /// `version`, the group was blocked by `bank` while that bank's fit
  /// epoch was `fit_epoch`.  Neither can change without the other key
  /// moving, so a matching memo proves the group still blocked.
  struct FitMemo {
    std::uint64_t version = ~std::uint64_t{0};
    std::uint64_t fit_epoch = 0;
    BankId bank = 0;
  };
  mutable std::array<FitMemo, 2> fit_memo{};

  /// Requests of this group currently in the read queue (== the old
  /// O(read-queue) pending_in_queue scan).
  [[nodiscard]] std::uint32_t queued() const { return seen - pushed; }
  /// True when fit_memo[require_drained] still proves the group blocked.
  [[nodiscard]] bool fit_memo_blocks(const MemoryController& mc,
                                     bool require_drained) const {
    const FitMemo& m = fit_memo[require_drained ? 1 : 0];
    return m.version == version && m.fit_epoch == mc.fit_epoch(m.bank);
  }
};

struct WgStats {
  std::uint64_t groups_completed = 0;
  std::uint64_t groups_selected = 0;
  std::uint64_t fallback_selections = 0;
  std::uint64_t merb_deferrals = 0;   ///< row-miss postponed for fillers
  std::uint64_t orphan_topups = 0;    ///< orphan-control filler pushes
  std::uint64_t coord_msgs_applied = 0;
  std::uint64_t writeaware_selections = 0;
  std::uint64_t shared_boosts = 0;  ///< selections aided by shared rows
  Accumulator group_size;             ///< requests per warp-group at this MC
};

class WgPolicy final : public TransactionScheduler {
 public:
  WgPolicy(const WgConfig& cfg, const DramTiming& timing)
      : cfg_(cfg), merb_(timing), banks_(timing.banks) {
    // The per-group bank footprint uses 32-bit bank masks (and the WG
    // paper's GDDR5 devices have 16 banks); wider devices need a wider
    // opens_row_mask before this policy can run on them.
    LATDIV_ASSERT(timing.banks <= 32,
                  "WgPolicy bank masks support at most 32 banks");
  }

  [[nodiscard]] const char* name() const override {
    if (cfg_.shared_data_boost) return "WG-Sh";
    if (cfg_.write_aware) return "WG-W";
    if (cfg_.merb) return "WG-Bw";
    if (cfg_.multi_channel) return "WG-M";
    return "WG";
  }

  void schedule_reads(MemoryController& mc, Cycle now) override;
  void on_push(MemoryController& mc, const MemRequest& req,
               Cycle now) override;
  void on_group_complete(MemoryController& mc, const WarpTag& tag,
                         Cycle now) override;
  void on_remote_selection(MemoryController& mc, const CoordMsg& msg,
                           Cycle now) override;
  void on_drain_start(MemoryController& mc, Cycle now) override;

  [[nodiscard]] const WgStats* wg_stats() const override { return &stats_; }
  [[nodiscard]] const WgConfig& config() const { return cfg_; }

  struct Score {
    std::uint32_t completion = 0;  ///< estimated completion-time score
    std::uint32_t row_hits = 0;    ///< tie-breaker
  };

  /// Completion-time estimate for the requests of `instr` currently in
  /// the read queue (paper §IV-B1), including each touched bank's queued
  /// backlog.  Request hit/miss status is evaluated against the bank's
  /// *planned* row sequence: predicted row, advanced per queued request.
  [[nodiscard]] Score score_group(const MemoryController& mc,
                                  WarpInstrUid instr) const;

  // Differential-test hooks (tests/test_wg_incremental.cpp): read-only
  // views of the incremental index so reference scans of the real read
  // queue can be checked against it after arbitrary event sequences.
  [[nodiscard]] const std::unordered_map<WarpInstrUid, WgGroupMeta>& groups()
      const {
    return groups_;
  }
  [[nodiscard]] const std::optional<WarpInstrUid>& current() const {
    return current_;
  }
  /// Whether `meta`'s requests fit the bank command queues, evaluated
  /// from scratch (no fit memo consulted; the memo is refreshed).
  [[nodiscard]] bool fits_unmemoized(const MemoryController& mc,
                                     const WgGroupMeta& meta,
                                     bool require_drained) const {
    return fits(mc, meta, require_drained, /*use_memo=*/false);
  }
  /// True while a failed selection is memoized against `mc`'s current
  /// selection epoch (time may still lift it; see select_next_group).
  [[nodiscard]] bool select_memo_armed(const MemoryController& mc) const {
    return skip_epoch_ == mc.selection_epoch();
  }
  /// Drop the select-skip memo, every group's fit memos and selection
  /// summaries: the next selection re-derives everything (memo
  /// equivalence tests call this before every step).
  void forget_select_memo();

  /// Snapshot serialization (src/ckpt): the warp sorter, the incremental
  /// read-queue index, caches and stats all round-trip; merb_ is a pure
  /// function of the DRAM timing and is rebuilt at construction.
  void ckpt_save(ckpt::CkptWriter& ar) const override;
  void ckpt_load(ckpt::CkptReader& ar) override;

 private:
  /// Shared save/load body behind ckpt_save/ckpt_load (src/ckpt owns the
  /// definition; member access keeps the private index reachable).
  template <class Ar>
  void ckpt_io(Ar& ar);

  /// Sum of request scores pending in `bank`'s command queue (cached per
  /// bank, invalidated by the controller's bank epoch).
  [[nodiscard]] std::uint32_t bank_queue_score(const MemoryController& mc,
                                               BankId bank) const;

  /// Outcome of one selection evaluation (nothing is committed yet).
  struct Selection {
    enum class Rule : std::uint8_t { kWriteAware, kBasjf, kFallback };
    const WgGroupMeta* meta = nullptr;  ///< null: nothing selectable
    Rule rule = Rule::kBasjf;
    std::uint32_t effective = 0;   ///< BASJF: announced effective score
    bool shared_boosted = false;   ///< BASJF: won with a shared-row bonus
    Cycle retry_at = kNoCycle;     ///< on failure: when age alone flips it
  };

  void select_next_group(MemoryController& mc, Cycle now);
  /// Pick the next warp-group without committing to it.  `use_memos`
  /// false ignores every fit memo and summary cache (the DCHECK
  /// cross-check of the select-skip memo).
  [[nodiscard]] Selection evaluate_selection(const MemoryController& mc,
                                             Cycle now, bool use_memos) const;
  /// A group is selectable when its requests fit the bank command queues
  /// and, if `require_drained`, every bank whose row it would close has
  /// drained.  Failures are memoized in meta.fit_memo.
  [[nodiscard]] bool fits(const MemoryController& mc, const WgGroupMeta& meta,
                          bool require_drained, bool use_memo) const;
  /// Refresh meta's head_seq/oldest unless cached at its version.
  void summarize(const WgGroupMeta& meta, bool use_cache) const;
  [[nodiscard]] Score score_meta(const MemoryController& mc,
                                 const WgGroupMeta& meta) const;
  /// Drain the current group's read-queue requests into bank queues,
  /// applying MERB admission for row misses when WG-Bw is on.  Returns
  /// the number of requests pushed.
  std::uint32_t drain_current(MemoryController& mc, Cycle now);
  /// Push one row-hit filler to `bank` from the group nearest completion.
  bool push_filler(MemoryController& mc, BankId bank, Cycle now);
  void forget_if_done(WarpInstrUid instr);

  [[nodiscard]] bool write_pressure(const MemoryController& mc) const;

  // --- incremental index maintenance -----------------------------------
  /// Record a read request entering the read queue (called from on_push,
  /// when the request is already queued).
  void index_add(WgGroupMeta& meta, const MemRequest& req);
  /// Record a read request leaving the read queue (called at every
  /// policy-side erase, immediately before send_to_bank): counts it as
  /// pushed and delists the group from active_ once it drains.
  void index_remove(WgGroupMeta& meta, const MemRequest& req);
  /// Queued requests of `instr` matching (bank, row) — MERB orphan count.
  [[nodiscard]] std::uint32_t group_row_count(const WgGroupMeta& meta,
                                              BankId bank, RowId row) const;

  WgConfig cfg_;
  MerbTable merb_;
  std::uint32_t banks_;
  std::unordered_map<WarpInstrUid, WgGroupMeta> groups_;
  std::optional<WarpInstrUid> current_;
  /// Groups with queued requests — the candidate universe for selection
  /// and filler searches, so neither walks the groups_ hash table.
  /// index_add appends a group when it gains its first queued request and
  /// index_remove delists it when it drains, so a group is listed exactly
  /// while queued() > 0 (and the meta pointer never dangles: only drained
  /// groups are forgotten).  Order is irrelevant: every consumer totally
  /// orders candidates itself.
  std::vector<std::pair<WarpInstrUid, WgGroupMeta*>> active_;

  /// Controller-wide arrival sequence for read requests; slot items carry
  /// it so the read queue's relative order (a deque: push-back + erase)
  /// can be reconstructed from the index alone.
  std::uint64_t next_seq_ = 0;

  // Select-skip memo: when select_next_group fails, it records the
  // controller selection epoch (and, for age-gated fallback failures, the
  // cycle the age bound is reached).  Until either changes, re-running
  // the selection is provably futile and is skipped.
  std::uint64_t skip_epoch_ = ~std::uint64_t{0};
  Cycle skip_until_ = 0;

  /// Per-bank queue-score cache: (bank_epoch+1, score); 0 = invalid.
  mutable std::vector<std::pair<std::uint64_t, std::uint32_t>> bqs_cache_;

  /// WG-Bw orphan control: total queued read requests per exact
  /// (bank, row), across all groups.  Maintained only when cfg_.merb.
  std::unordered_map<std::uint64_t, std::uint32_t> row_counts_;
  /// Shared-row census for the shared-data extension: per truncated
  /// (bank, row24) key, the distinct groups with queued requests on it
  /// (and their counts).  Maintained only when cfg_.shared_data_boost;
  /// a key is "shared" when two or more groups appear.
  std::unordered_map<std::uint32_t,
                     std::vector<std::pair<WarpInstrUid, std::uint32_t>>>
      census_;

  /// WG-M: recent remote selections kept briefly so a coordination
  /// message can still boost a warp-group whose requests arrive here a
  /// few cycles *after* the remote controller selected it (the crossbar
  /// and the coordination network race; hardware would hold the message
  /// in the 128-entry tracking structure either way).
  struct RecentMsg {
    WarpInstrUid instr;
    std::uint32_t score;
    Cycle at;
  };
  std::deque<RecentMsg> recent_msgs_;
  WgStats stats_;
};

}  // namespace latdiv
