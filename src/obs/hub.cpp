#include "obs/hub.hpp"

#include <array>
#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "common/log.hpp"

namespace latdiv::obs {

namespace {

/// Warp-track tid: one lane per (SM, warp).  Warp counts are far below
/// 256 (Table II: 48/SM), so the packing never collides.
[[nodiscard]] std::uint32_t warp_tid(SmId sm, WarpId warp) {
  return (static_cast<std::uint32_t>(sm) << 8) |
         (static_cast<std::uint32_t>(warp) & 0xFF);
}

[[nodiscard]] std::uint32_t mc_pid(ChannelId ch) {
  return kPidMcBase + static_cast<std::uint32_t>(ch);
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const int n = std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out.append(buf, static_cast<std::size_t>(n));
}

}  // namespace

ObsHub::ObsHub(const ObsConfig& cfg) : cfg_(cfg) {
  if (cfg_.trace) sink_ = &chrome_;
  if (!cfg_.attrib_path.empty()) cfg_.attrib = true;
  h_gap_ = &registry_.histogram("warp.divergence_gap");
  h_first_ = &registry_.histogram("warp.first_latency");
  h_last_ = &registry_.histogram("warp.last_latency");
  h_queue_ = &registry_.histogram("req.read_queue_wait");
  h_service_ = &registry_.histogram("req.read_service");
  c_drains_ = &registry_.counter("mc.drain_episodes");
  // Created after the base instruments so the metrics-export order of
  // attrib-off runs is untouched.
  if (cfg_.attrib) attrib_ = std::make_unique<AttributionProfiler>(registry_);
}

bool ObsHub::first_use(std::uint32_t pid, std::uint32_t tid) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(pid) << 32) | tid;
  return named_tracks_.insert(key).second;
}

void ObsHub::name_warp_track(SmId sm, WarpId warp) {
  if (named_pids_.insert(kPidWarps).second) {
    sink_->process_name(kPidWarps, "warps");
  }
  const std::uint32_t tid = warp_tid(sm, warp);
  if (!first_use(kPidWarps, tid)) return;
  char buf[32];
  std::snprintf(buf, sizeof buf, "sm%u.w%u", static_cast<unsigned>(sm),
                static_cast<unsigned>(warp));
  sink_->thread_name(kPidWarps, tid, buf);
}

void ObsHub::name_bank_track(ChannelId ch, std::uint32_t tid) {
  const std::uint32_t pid = mc_pid(ch);
  if (named_pids_.insert(pid).second) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "mc%u", static_cast<unsigned>(ch));
    sink_->process_name(pid, buf);
  }
  if (!first_use(pid, tid)) return;
  if (tid == kTidCtrl) {
    sink_->thread_name(pid, tid, "ctrl");
  } else {
    char buf[16];
    std::snprintf(buf, sizeof buf, "bank%u", tid);
    sink_->thread_name(pid, tid, buf);
  }
}

void ObsHub::req_enqueued(const MemRequest& req, Cycle now) {
  if (attrib_ != nullptr) attrib_->req_enqueued(req, now);
  if (sink_ == nullptr) return;
  const std::uint32_t tid = req.loc.bank;
  name_bank_track(req.loc.channel, tid);
  const std::array<TraceArg, 4> args{{
      {"addr", req.addr},
      {"uid", req.tag.instr},
      {"transit",
       req.issued_by_sm == kNoCycle ? 0 : now - req.issued_by_sm},
      {"write", req.kind == ReqKind::kWrite ? 1u : 0u},
  }};
  sink_->emit({TraceEvent::Phase::kInstant, "enq", "req",
               mc_pid(req.loc.channel), tid, now, 0, args});
}

void ObsHub::req_to_bank(const MemRequest& req, Cycle now) {
  // Attribution-only event; no trace emission (see hub.hpp).
  if (attrib_ != nullptr) attrib_->req_to_bank(req, now);
}

void ObsHub::req_cas(const MemRequest& req, Cycle now) {
  if (attrib_ != nullptr) attrib_->req_cas(req, now);
  if (sink_ == nullptr) return;
  const std::uint32_t tid = req.loc.bank;
  name_bank_track(req.loc.channel, tid);
  const Cycle queue_wait =
      req.arrived_at_mc == kNoCycle ? 0 : now - req.arrived_at_mc;
  if (req.kind == ReqKind::kRead) h_queue_->add(queue_wait);
  const std::array<TraceArg, 3> args{{
      {"uid", req.tag.instr},
      {"queue", queue_wait},
      {"row", req.loc.row},
  }};
  sink_->emit({TraceEvent::Phase::kInstant, "cas", "req",
               mc_pid(req.loc.channel), tid, now, 0, args});
}

void ObsHub::req_data(const MemRequest& req, Cycle done) {
  if (attrib_ != nullptr) attrib_->req_data(req, done);
  const Cycle service =
      req.arrived_at_mc == kNoCycle ? 0 : done - req.arrived_at_mc;
  h_service_->add(service);
  if (sink_ == nullptr) return;
  const std::uint32_t tid = req.loc.bank;
  name_bank_track(req.loc.channel, tid);
  const std::array<TraceArg, 3> args{{
      {"uid", req.tag.instr},
      {"service", service},
      {"sm", req.tag.sm},
  }};
  sink_->emit({TraceEvent::Phase::kInstant, "data", "req",
               mc_pid(req.loc.channel), tid, done, 0, args});
}

void ObsHub::req_write_retired(const MemRequest& req, Cycle done) {
  if (sink_ == nullptr) return;
  const std::uint32_t tid = req.loc.bank;
  name_bank_track(req.loc.channel, tid);
  const std::array<TraceArg, 1> args{{{"addr", req.addr}}};
  sink_->emit({TraceEvent::Phase::kInstant, "wr", "req",
               mc_pid(req.loc.channel), tid, done, 0, args});
}

void ObsHub::dram_command(ChannelId ch, const DramCommand& cmd, Cycle now) {
  if (sink_ == nullptr) return;
  switch (cmd.cmd) {
    case DramCmd::kActivate: {
      name_bank_track(ch, cmd.bank);
      const std::array<TraceArg, 1> args{{{"row", cmd.row}}};
      sink_->emit({TraceEvent::Phase::kInstant, "ACT", "dram", mc_pid(ch),
                   cmd.bank, now, 0, args});
      break;
    }
    case DramCmd::kPrecharge: {
      name_bank_track(ch, cmd.bank);
      sink_->emit({TraceEvent::Phase::kInstant, "PRE", "dram", mc_pid(ch),
                   cmd.bank, now, 0, {}});
      break;
    }
    case DramCmd::kRefresh:
      name_bank_track(ch, kTidCtrl);
      sink_->emit({TraceEvent::Phase::kInstant, "REF", "dram", mc_pid(ch),
                   kTidCtrl, now, 0, {}});
      break;
    case DramCmd::kRead:
    case DramCmd::kWrite:
      break;  // carried by req_cas / req_write_retired with context
  }
}

void ObsHub::drain_begin(ChannelId ch, Cycle now) {
  if (attrib_ != nullptr) attrib_->drain_begin(ch, now);
  if (drain_start_.size() <= ch) drain_start_.resize(ch + 1, kNoCycle);
  drain_start_[ch] = now;
  c_drains_->add();
}

void ObsHub::drain_end(ChannelId ch, Cycle now, std::uint64_t writes) {
  if (attrib_ != nullptr) attrib_->drain_end(ch, now);
  if (drain_start_.size() <= ch || drain_start_[ch] == kNoCycle) return;
  const Cycle start = drain_start_[ch];
  drain_start_[ch] = kNoCycle;
  if (sink_ == nullptr) return;
  name_bank_track(ch, kTidCtrl);
  const std::array<TraceArg, 1> args{{{"writes", writes}}};
  sink_->emit({TraceEvent::Phase::kComplete, "drain", "mc", mc_pid(ch),
               kTidCtrl, start, now - start, args});
}

void ObsHub::warp_load(SmId sm, WarpId warp, WarpInstrUid uid, Cycle issued,
                       Cycle first_done, Cycle last_done, Cycle woke,
                       std::uint32_t reqs) {
  if (attrib_ != nullptr) {
    attrib_->warp_load(uid, issued, woke == kNoCycle ? last_done : woke,
                       reqs);
  }
  if (issued == kNoCycle || last_done == kNoCycle) return;
  const Cycle first_lat =
      first_done == kNoCycle ? 0 : first_done - issued;
  const Cycle last_lat = last_done - issued;
  const Cycle gap = last_lat - first_lat;
  h_gap_->add(gap);
  h_first_->add(first_lat);
  h_last_->add(last_lat);
  if (sink_ == nullptr) return;
  name_warp_track(sm, warp);
  const std::array<TraceArg, 4> args{{
      {"reqs", reqs},
      {"first", first_lat},
      {"last", last_lat},
      {"gap", gap},
  }};
  const Cycle end = woke == kNoCycle ? last_done : woke;
  sink_->emit({TraceEvent::Phase::kComplete, "load", "warp", kPidWarps,
               warp_tid(sm, warp), issued, end - issued, args});
}

void ObsHub::set_series_columns(std::vector<std::string> names) {
  LATDIV_ASSERT(columns_.empty(), "series columns declared twice");
  columns_ = std::move(names);
  series_ = "cycle";
  for (const auto& c : columns_) {
    series_.push_back(',');
    series_ += c;
  }
  series_.push_back('\n');
}

void ObsHub::sample(Cycle now, std::span<const std::uint64_t> values) {
  LATDIV_ASSERT(values.size() == columns_.size(),
                "sample width != declared columns");
  append_u64(series_, now);
  for (const std::uint64_t v : values) {
    series_.push_back(',');
    append_u64(series_, v);
  }
  series_.push_back('\n');
  if (sink_ == nullptr) return;
  if (named_pids_.insert(kPidCounters).second) {
    sink_->process_name(kPidCounters, "counters");
  }
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    const std::array<TraceArg, 1> args{{{"value", values[i]}}};
    sink_->emit({TraceEvent::Phase::kCounter, columns_[i].c_str(), "ts",
                 kPidCounters, 0, now, 0, args});
  }
}

void ObsHub::finalize(Cycle end) {
  if (finalized_) return;
  finalized_ = true;
  for (ChannelId ch = 0; ch < drain_start_.size(); ++ch) {
    drain_end(ch, end, 0);
  }
  if (!cfg_.trace_path.empty() && cfg_.trace) {
    std::ofstream f(cfg_.trace_path, std::ios::binary);
    if (f) f << chrome_.finish();
  }
  if (!cfg_.timeseries_path.empty() && cfg_.timeseries) {
    std::ofstream f(cfg_.timeseries_path, std::ios::binary);
    if (f) f << series_;
  }
  if (!cfg_.metrics_path.empty()) {
    std::ofstream f(cfg_.metrics_path, std::ios::binary);
    if (f) f << registry_.to_json();
  }
  if (attrib_ != nullptr) {
    attrib_->finalize(end);
    if (!cfg_.attrib_path.empty()) {
      std::ofstream f(cfg_.attrib_path, std::ios::binary);
      if (f) f << attrib_->to_json();
    }
  }
}

const std::string& ObsHub::trace_json() {
  return chrome_.finish();
}

std::uint64_t ObsHub::trace_events() const {
  return chrome_.events();
}

}  // namespace latdiv::obs
