#include "core/policy_wg.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace latdiv {

namespace {

/// Exact (bank, row) key for the MERB orphan-control counts.
inline std::uint64_t row_key(BankId bank, RowId row) {
  return (static_cast<std::uint64_t>(bank) << 32) | row;
}

/// Truncated (bank, row) key for the shared-row census — must match the
/// historical census exactly, including its 24-bit row truncation.
inline std::uint32_t census_key(BankId bank, RowId row) {
  return (static_cast<std::uint32_t>(bank) << 24) | (row & 0xFFFFFF);
}

}  // namespace

// ---- incremental read-queue index -------------------------------------
//
// The index mirrors the read queue: every read request of a group is one
// QueuedReq in that group's per-bank slot, in queue (arrival-sequence)
// order.  The queue is a deque that only ever push_backs and erases, so
// relative order is stable and `seq` reconstructs it exactly: a group's
// position among the selection candidates is the minimum seq over its
// slots' front items (the old code's first-occurrence-in-queue order).

void WgPolicy::index_add(WgGroupMeta& meta, const MemRequest& req) {
  const std::uint64_t seq = next_seq_++;
  auto it = std::find_if(
      meta.slots.begin(), meta.slots.end(),
      [&](const WgGroupMeta::BankSlot& s) { return s.bank == req.loc.bank; });
  if (it == meta.slots.end()) {
    meta.slots.push_back(WgGroupMeta::BankSlot{req.loc.bank, {}, 0});
    it = meta.slots.end() - 1;
  }
  it->items.push_back(
      WgGroupMeta::QueuedReq{seq, req.arrived_at_mc, req.loc.row});
  ++meta.version;
  if (!meta.in_active) {
    active_.emplace_back(req.tag.instr, &meta);
    meta.in_active = true;
  }
  if (cfg_.merb) ++row_counts_[row_key(req.loc.bank, req.loc.row)];
  if (cfg_.shared_data_boost) {
    auto& users = census_[census_key(req.loc.bank, req.loc.row)];
    auto uit = std::find_if(users.begin(), users.end(), [&](const auto& u) {
      return u.first == req.tag.instr;
    });
    if (uit == users.end()) {
      users.emplace_back(req.tag.instr, 1u);
    } else {
      ++uit->second;
    }
  }
}

void WgPolicy::index_remove(WgGroupMeta& meta, const MemRequest& req) {
  auto it = std::find_if(
      meta.slots.begin(), meta.slots.end(),
      [&](const WgGroupMeta::BankSlot& s) { return s.bank == req.loc.bank; });
  LATDIV_ASSERT(it != meta.slots.end(), "index_remove: unknown bank slot");
  // The erased queue element is always the earliest remaining request of
  // this (group, bank) matching its row, so the first (row, arrival)
  // match in the seq-ordered slot is the right one.
  auto rit = std::find_if(
      it->items.begin(), it->items.end(), [&](const WgGroupMeta::QueuedReq& q) {
        return q.row == req.loc.row && q.arrival == req.arrived_at_mc;
      });
  LATDIV_ASSERT(rit != it->items.end(), "index_remove: request not indexed");
  it->items.erase(rit);
  ++meta.version;
  ++meta.pushed;
  if (meta.queued() == 0) {
    // Drained: leave the candidate universe now, so active_ never lists
    // an empty group and its contents do not depend on when selection
    // last ran.
    const auto ait = std::find_if(
        active_.begin(), active_.end(),
        [&](const auto& e) { return e.second == &meta; });
    LATDIV_ASSERT(ait != active_.end(), "drained group not listed");
    *ait = active_.back();
    active_.pop_back();
    meta.in_active = false;
  }
  if (cfg_.merb) {
    auto cit = row_counts_.find(row_key(req.loc.bank, req.loc.row));
    LATDIV_ASSERT(cit != row_counts_.end() && cit->second > 0,
                  "index_remove: row count underflow");
    if (--cit->second == 0) row_counts_.erase(cit);
  }
  if (cfg_.shared_data_boost) {
    auto kit = census_.find(census_key(req.loc.bank, req.loc.row));
    LATDIV_ASSERT(kit != census_.end(), "index_remove: census key missing");
    auto& users = kit->second;
    auto uit = std::find_if(users.begin(), users.end(), [&](const auto& u) {
      return u.first == req.tag.instr;
    });
    LATDIV_ASSERT(uit != users.end() && uit->second > 0,
                  "index_remove: census count underflow");
    if (--uit->second == 0) users.erase(uit);
    if (users.empty()) census_.erase(kit);
  }
}

std::uint32_t WgPolicy::group_row_count(const WgGroupMeta& meta, BankId bank,
                                        RowId row) const {
  auto it = std::find_if(
      meta.slots.begin(), meta.slots.end(),
      [&](const WgGroupMeta::BankSlot& s) { return s.bank == bank; });
  if (it == meta.slots.end()) return 0;
  std::uint32_t n = 0;
  for (const WgGroupMeta::QueuedReq& q : it->items) {
    if (q.row == row) ++n;
  }
  return n;
}

// ---- notifications ----------------------------------------------------

void WgPolicy::on_push(MemoryController& mc, const MemRequest& req,
                       Cycle now) {
  if (req.kind != ReqKind::kRead) return;  // warp-groups are read-only
  WgGroupMeta& meta = groups_[req.tag.instr];
  const bool first = meta.seen == 0;
  // Index before the WG-M replay below: the replay scores this group, and
  // the request is already in the read queue when on_push fires.
  index_add(meta, req);
  if (first) {
    meta.tag = req.tag;
    meta.first_arrival = now;
    // A remote controller may have selected this warp before its
    // requests reached us; replay any matching recent message.
    if (cfg_.multi_channel) {
      while (!recent_msgs_.empty() &&
             recent_msgs_.front().at + cfg_.coord_msg_ttl < now) {
        recent_msgs_.pop_front();
      }
      for (const RecentMsg& m : recent_msgs_) {
        if (m.instr == req.tag.instr) {
          CoordMsg replay;
          replay.tag = req.tag;
          replay.score = m.score;
          ++meta.seen;  // count first so the handler sees it pending
          on_remote_selection(mc, replay, now);
          --meta.seen;
          break;
        }
      }
    }
  }
  ++meta.seen;
}

void WgPolicy::on_group_complete(MemoryController&, const WarpTag& tag,
                                 Cycle) {
  auto it = groups_.find(tag.instr);
  if (it == groups_.end()) return;  // every request hit in the caches
  it->second.complete = true;
  ++stats_.groups_completed;
  forget_if_done(tag.instr);
}

void WgPolicy::on_remote_selection(MemoryController& mc, const CoordMsg& msg,
                                   Cycle now) {
  if (!cfg_.multi_channel) return;
  auto it = groups_.find(msg.tag.instr);
  if (it == groups_.end() || it->second.pushed >= it->second.seen) {
    // Nothing to boost yet — remember the message briefly in case this
    // warp's requests are still in flight towards us.
    recent_msgs_.push_back(RecentMsg{msg.tag.instr, msg.score, now});
    if (recent_msgs_.size() > 64) recent_msgs_.pop_front();
    return;
  }
  WgGroupMeta& meta = it->second;
  const Score local = score_group(mc, msg.tag.instr);
  const std::uint32_t lc = local.completion > meta.coord_bonus
                               ? local.completion - meta.coord_bonus
                               : 0;
  // Another controller expects to finish this warp's requests at RC; if
  // we are the laggard (LC > RC), boost the group by the difference.
  if (lc > msg.score) {
    meta.coord_bonus += lc - msg.score;
    ++stats_.coord_msgs_applied;
  }
}

void WgPolicy::on_drain_start(MemoryController& mc, Cycle) {
  std::size_t stalled = 0;
  std::size_t small = 0;
  // lint: order-independent (pure counting; no selection by position)
  for (const auto& [instr, meta] : groups_) {
    const std::uint32_t remaining = meta.queued();
    if (remaining == 0) continue;
    ++stalled;
    const bool unit_sized = meta.seen == 1;
    const bool orphaned = meta.pushed > 0 && remaining <= cfg_.orphan_limit;
    if (unit_sized || orphaned) ++small;
  }
  mc.record_drain_stall(stalled, small);
}

bool WgPolicy::write_pressure(const MemoryController& mc) const {
  if (!cfg_.write_aware) return false;
  // Only the window BEFORE a drain matters: once the drain is underway
  // the stalled groups are already stalled, and right after it the
  // occupancy passes back down through the band harmlessly.
  if (mc.in_write_drain()) return false;
  return mc.write_queue().size() + cfg_.wq_guard >=
         mc.config().wq_high_watermark;
}

// ---- scoring ----------------------------------------------------------

std::uint32_t WgPolicy::bank_queue_score(const MemoryController& mc,
                                         BankId bank) const {
  if (bqs_cache_.empty()) bqs_cache_.assign(banks_, {0, 0});
  auto& entry = bqs_cache_[bank];
  const std::uint64_t epoch = mc.bank_epoch(bank) + 1;  // 0 = never cached
  if (entry.first == epoch) return entry.second;
  std::uint32_t score = 0;
  RowId running = mc.channel().open_row(bank);
  for (const MemRequest& queued : mc.bank_queue(bank)) {
    score += (queued.loc.row == running) ? cfg_.score_hit : cfg_.score_miss;
    running = queued.loc.row;
  }
  entry = {epoch, score};
  return score;
}

WgPolicy::Score WgPolicy::score_group(const MemoryController& mc,
                                      WarpInstrUid instr) const {
  const auto git = groups_.find(instr);
  if (git == groups_.end()) return {};
  return score_meta(mc, git->second);
}

WgPolicy::Score WgPolicy::score_meta(const MemoryController& mc,
                                     const WgGroupMeta& meta) const {
  if (meta.score_version == meta.version) {
    bool valid = true;
    for (const WgGroupMeta::BankSlot& slot : meta.slots) {
      if (!slot.items.empty() &&
          slot.score_epoch != mc.bank_epoch(slot.bank) + 1) {
        valid = false;
        break;
      }
    }
    if (valid) return Score{meta.score_completion, meta.score_row_hits};
  }

  // Walk the group's queued requests per touched bank, simulating the
  // bank's planned row sequence starting from the controller's predictor.
  Score out;
  for (const WgGroupMeta::BankSlot& slot : meta.slots) {
    if (slot.items.empty()) continue;
    RowId running = mc.predicted_row(slot.bank);
    std::uint32_t score = bank_queue_score(mc, slot.bank);
    for (const WgGroupMeta::QueuedReq& q : slot.items) {
      const bool hit = q.row == running;
      score += hit ? cfg_.score_hit : cfg_.score_miss;
      if (hit) ++out.row_hits;
      running = q.row;
    }
    out.completion = std::max(out.completion, score);
    slot.score_epoch = mc.bank_epoch(slot.bank) + 1;
  }
  meta.score_version = meta.version;
  meta.score_completion = out.completion;
  meta.score_row_hits = out.row_hits;
  return out;
}

void WgPolicy::forget_if_done(WarpInstrUid instr) {
  auto it = groups_.find(instr);
  if (it == groups_.end()) return;
  const WgGroupMeta& meta = it->second;
  if (meta.complete && meta.pushed >= meta.seen &&
      (!current_ || *current_ != instr)) {
    LATDIV_DCHECK(!meta.in_active, "drained group still listed");
    groups_.erase(it);
  }
}

// ---- selection --------------------------------------------------------
//
// Selection does work in proportion to what changed since its last call.
// A failed selection is memoized on the controller's selection epoch,
// which moves only on events that can flip it; each group caches its
// (head_seq, oldest) summary on its index version; and each group's
// "does not fit" verdict is memoized against the blocking bank's fit
// epoch, so a complete group that is still blocked costs one compare.
// Every tie is broken on head_seq, which reproduces the read queue's
// first-occurrence order because arrival never decreases as seq grows.

void WgPolicy::forget_select_memo() {
  skip_epoch_ = ~std::uint64_t{0};
  skip_until_ = 0;
  // lint: order-independent (resets every entry; no selection by position)
  for (auto& [instr, meta] : groups_) {
    meta.summary_version = ~std::uint64_t{0};
    meta.fit_memo = {};
  }
}

void WgPolicy::summarize(const WgGroupMeta& meta, bool use_cache) const {
  if (use_cache && meta.summary_version == meta.version) return;
  meta.head_seq = ~std::uint64_t{0};
  meta.oldest = kNoCycle;
  for (const WgGroupMeta::BankSlot& slot : meta.slots) {
    if (slot.items.empty()) continue;
    meta.head_seq = std::min(meta.head_seq, slot.items.front().seq);
    meta.oldest = std::min(meta.oldest, slot.items.front().arrival);
  }
  meta.summary_version = meta.version;
}

bool WgPolicy::fits(const MemoryController& mc, const WgGroupMeta& meta,
                    bool require_drained, bool use_memo) const {
  if (use_memo && meta.fit_memo_blocks(mc, require_drained)) return false;
  // Closing a bank's row is held back until the bank has drained — the
  // same stream hysteresis the GMC row sorter applies: a hit for the
  // still-open row may be one arrival away, and closing early forfeits
  // it.  The liveness fallback ignores this rule.
  const auto depth_cap = mc.config().bank_queue_depth;
  for (const WgGroupMeta::BankSlot& slot : meta.slots) {
    if (slot.items.empty()) continue;
    // Groups larger than a bank's command queue can never fit whole;
    // they become selectable once the full queue depth is free and
    // then drain incrementally (drain_current keeps them current).
    const auto need = std::min<std::size_t>(slot.items.size(), depth_cap);
    const bool blocked =
        !mc.bank_queue_has_space(slot.bank, need) ||
        (require_drained &&
         mc.predicted_row(slot.bank) != slot.items.front().row &&
         mc.bank_queue_size(slot.bank) != 0);
    if (blocked) {
      meta.fit_memo[require_drained ? 1 : 0] = WgGroupMeta::FitMemo{
          meta.version, mc.fit_epoch(slot.bank), slot.bank};
      return false;
    }
  }
  return true;
}

WgPolicy::Selection WgPolicy::evaluate_selection(const MemoryController& mc,
                                                 Cycle now,
                                                 bool use_memos) const {
  Selection sel;
  if (mc.read_queue().empty()) return sel;  // only new state can help

  // WG-W: imminent write drain — unit-remaining complete groups first.
  // Two tiers: unit groups that respect the stream hysteresis are
  // preferred; only when none exists does drain-imminence justify
  // closing a row early to finish a warp before the drain.  The oldest
  // fitting group wins, so groups that cannot beat the current winner
  // are not checked for fit.
  if (write_pressure(mc)) {
    for (const bool require_drained : {true, false}) {
      for (const auto& [instr, meta] : active_) {
        if (!meta->complete || meta->queued() != 1) continue;
        summarize(*meta, use_memos);
        if (sel.meta != nullptr && meta->head_seq > sel.meta->head_seq) {
          continue;
        }
        if (!fits(mc, *meta, require_drained, use_memos)) continue;
        sel.meta = meta;
      }
      if (sel.meta != nullptr) {
        sel.rule = Selection::Rule::kWriteAware;
        return sel;
      }
    }
  }

  // Shared-data extension: how many of the group's queued requests touch
  // a (bank, row) that at least one other pending group also needs.  The
  // census is maintained incrementally by index_add/index_remove.
  auto shared_requests = [&](const WgGroupMeta& meta) -> std::uint32_t {
    std::uint32_t n = 0;
    for (const WgGroupMeta::BankSlot& slot : meta.slots) {
      for (const WgGroupMeta::QueuedReq& q : slot.items) {
        const auto kit = census_.find(census_key(slot.bank, q.row));
        if (kit != census_.end() && kit->second.size() >= 2) ++n;
      }
    }
    return n;
  };

  // BASJF: lowest effective completion score among complete groups; ties
  // go to the group with more row hits, then the older group.
  Score best_score{};
  for (const auto& [instr, meta] : active_) {
    if (!meta->complete ||
        !fits(mc, *meta, /*require_drained=*/true, use_memos)) {
      continue;
    }
    summarize(*meta, use_memos);
    const Score s = score_meta(mc, *meta);
    std::uint32_t bonus = meta->coord_bonus;
    std::uint32_t shared_bonus = 0;
    if (cfg_.shared_data_boost) {
      shared_bonus = cfg_.shared_weight * shared_requests(*meta);
      bonus += shared_bonus;
    }
    const std::uint32_t eff = s.completion > bonus ? s.completion - bonus : 0;
    const bool better =
        sel.meta == nullptr || eff < sel.effective ||
        (eff == sel.effective &&
         (s.row_hits > best_score.row_hits ||
          (s.row_hits == best_score.row_hits &&
           meta->head_seq < sel.meta->head_seq)));
    if (better) {
      sel.meta = meta;
      sel.effective = eff;
      sel.shared_boosted = shared_bonus > 0;
      best_score = s;
    }
  }
  if (sel.meta != nullptr) return sel;

  // No fully-formed warp-group.  Liveness fallback: under queue pressure
  // or age limit, drain the group holding the oldest request so the
  // remaining members of other groups can reach the controller.
  for (const auto& [instr, meta] : active_) {
    summarize(*meta, use_memos);
    if (sel.meta != nullptr && meta->head_seq > sel.meta->head_seq) continue;
    if (!fits(mc, *meta, /*require_drained=*/false, use_memos)) continue;
    sel.meta = meta;
  }
  // No candidate fits: every one waits on bank space (retry_at stays
  // kNoCycle, so only a state change helps).
  if (sel.meta == nullptr) return sel;
  const auto& rq = mc.read_queue();
  const bool pressure = rq.size() + cfg_.rq_pressure_slack >= rq.capacity();
  if (!pressure && now - sel.meta->oldest < cfg_.fallback_age) {
    // Time alone can flip this outcome: wake when the age bound hits.
    Selection wait;
    wait.retry_at = sel.meta->oldest + cfg_.fallback_age;
    return wait;
  }
  sel.rule = Selection::Rule::kFallback;
  return sel;
}

void WgPolicy::select_next_group(MemoryController& mc, Cycle now) {
  const std::uint64_t epoch = mc.selection_epoch();
  if (skip_epoch_ == epoch && now < skip_until_) {
    LATDIV_DCHECK(evaluate_selection(mc, now, /*use_memos=*/false).meta ==
                      nullptr,
                  "select-skip memo hid a selectable warp-group");
    return;
  }
  const Selection sel = evaluate_selection(mc, now, /*use_memos=*/true);
  if (sel.meta == nullptr) {
    skip_epoch_ = epoch;
    skip_until_ = sel.retry_at;
    return;
  }
  current_ = sel.meta->tag.instr;
  skip_epoch_ = ~std::uint64_t{0};
  ++stats_.groups_selected;
  stats_.group_size.add(sel.meta->seen);
  switch (sel.rule) {
    case Selection::Rule::kWriteAware:
      ++stats_.writeaware_selections;
      if (cfg_.multi_channel) mc.announce_selection(sel.meta->tag, 0);
      break;
    case Selection::Rule::kBasjf:
      if (sel.shared_boosted) ++stats_.shared_boosts;
      if (cfg_.multi_channel) {
        mc.announce_selection(sel.meta->tag, sel.effective);
      }
      break;
    case Selection::Rule::kFallback:
      ++stats_.fallback_selections;
      break;
  }
}

// ---- draining ---------------------------------------------------------

bool WgPolicy::push_filler(MemoryController& mc, BankId bank, Cycle now) {
  auto& rq = mc.read_queue();
  const RowId target_row = mc.predicted_row(bank);
  if (target_row == kNoRow || !mc.bank_queue_has_space(bank)) return false;

  // Prefer the filler whose warp-group is closest to completion at this
  // controller (paper: overlap the miss with hits from nearly-complete
  // warps); among ties, the group whose matching request is oldest in
  // the queue.  The winner minimises (remaining, earliest matching seq),
  // which is exactly what the old oldest-first queue scan selected.
  const WgGroupMeta* best_meta = nullptr;
  WarpInstrUid best_instr = 0;
  std::uint32_t best_remaining = 0;
  std::uint64_t best_seq = 0;
  // Winner minimises a unique (remaining, seq) key, so active_ order is
  // irrelevant here too.
  for (const auto& [instr, ameta] : active_) {
    const WgGroupMeta& meta = *ameta;
    if (current_ && instr == *current_) continue;  // not a filler
    const auto sit = std::find_if(
        meta.slots.begin(), meta.slots.end(),
        [&](const WgGroupMeta::BankSlot& s) { return s.bank == bank; });
    if (sit == meta.slots.end()) continue;
    std::uint64_t seq = ~std::uint64_t{0};
    for (const WgGroupMeta::QueuedReq& q : sit->items) {
      if (q.row == target_row) {
        seq = q.seq;
        break;
      }
    }
    if (seq == ~std::uint64_t{0}) continue;
    const std::uint32_t rem = meta.queued();
    if (best_meta == nullptr || rem < best_remaining ||
        (rem == best_remaining && seq < best_seq)) {
      best_meta = &meta;
      best_instr = instr;
      best_remaining = rem;
      best_seq = seq;
    }
  }
  if (best_meta == nullptr) return false;

  // One targeted scan to erase the chosen request from the real queue
  // (the index has no iterators into it); the first match is the
  // earliest, which is the indexed winner.
  auto it = rq.begin();
  for (; it != rq.end(); ++it) {
    if (it->tag.instr == best_instr && it->loc.bank == bank &&
        it->loc.row == target_row) {
      break;
    }
  }
  LATDIV_ASSERT(it != rq.end(), "push_filler: indexed request not in queue");
  MemRequest req = *it;
  rq.erase(it);
  index_remove(groups_.at(best_instr), req);
  mc.send_to_bank(req, now);
  return true;
}

std::uint32_t WgPolicy::drain_current(MemoryController& mc, Cycle now) {
  LATDIV_ASSERT(current_.has_value(), "drain without a selected group");
  auto& rq = mc.read_queue();
  std::uint32_t pushes = 0;

  // The bank table services each bank's slice of the warp-group as a
  // row-sorted stream: requests extending a bank's current row go first,
  // so the group's intra-warp row locality survives the (arbitrary)
  // arrival order.  Two passes: row-extending requests, then the rest.
  for (int pass = 0; pass < 2; ++pass) {
    auto it = rq.begin();
    while (it != rq.end() && pushes < cfg_.max_pushes_per_cycle) {
      if (it->tag.instr != *current_) {
        ++it;
        continue;
      }
      if (pass == 0 && mc.predicted_row(it->loc.bank) != it->loc.row) {
        ++it;  // misses wait for the second pass
        continue;
      }
    const BankId bank = it->loc.bank;
    if (!mc.bank_queue_has_space(bank)) {
      ++it;  // this bank is saturated; other banks of the group may go
      continue;
    }
    const bool miss = mc.predicted_row(bank) != it->loc.row;
    if (cfg_.merb && miss) {
      const std::uint32_t threshold = merb_.value(mc.banks_with_work());
      if (mc.tail_streak(bank) < threshold) {
        if (push_filler(mc, bank, now)) {
          ++stats_.merb_deferrals;
          ++pushes;
          it = rq.begin();  // erase invalidated iterators; rescan
          continue;
        }
        // No fillers available: nothing to hide behind; admit the miss.
      } else {
        // Threshold met — orphan control: if only 1..orphan_limit hits to
        // the outgoing row remain, service them before closing it.
        const RowId target = mc.predicted_row(bank);
        const auto cit = row_counts_.find(row_key(bank, target));
        const std::uint32_t total =
            cit != row_counts_.end() ? cit->second : 0;
        const std::uint32_t own =
            group_row_count(groups_.at(*current_), bank, target);
        LATDIV_ASSERT(total >= own, "orphan count underflow");
        const std::uint32_t fillers = total - own;
        if (fillers >= 1 && fillers <= cfg_.orphan_limit) {
          bool pushed_any = false;
          while (pushes < cfg_.max_pushes_per_cycle &&
                 push_filler(mc, bank, now)) {
            ++stats_.orphan_topups;
            ++pushes;
            pushed_any = true;
          }
          if (pushed_any) {
            it = rq.begin();
            continue;
          }
        }
      }
      if (!mc.bank_queue_has_space(bank)) {
        ++it;
        continue;
      }
    }
      MemRequest req = *it;
      it = rq.erase(it);
      index_remove(groups_.at(req.tag.instr), req);
      mc.send_to_bank(req, now);
      ++pushes;
      if (pass == 0) it = rq.begin();  // a new tail row may unlock more hits
    }
  }
  return pushes;
}

void WgPolicy::schedule_reads(MemoryController& mc, Cycle now) {
  // Several rounds per cycle: each selected group now fits its bank
  // queues by construction, so a round either pulls a whole group or
  // stops — multiple small groups can be pulled in one cycle, keeping
  // every bank fed (the GMC feeds all banks in parallel; the warp-aware
  // scheduler must not fall behind on sheer insertion throughput).
  for (int round = 0; round < 4; ++round) {
    if (!current_) select_next_group(mc, now);
    if (!current_) return;
    const WarpInstrUid instr = *current_;
    drain_current(mc, now);
    if (groups_.at(instr).queued() == 0) {
      // Fully pulled (or, for a fallback-selected incomplete group, all
      // of its received requests pulled) — move on.
      current_.reset();
      forget_if_done(instr);
      continue;
    }
    return;
  }
}

}  // namespace latdiv
