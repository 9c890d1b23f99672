#include "traced_sim.hpp"

#include <cstdio>
#include <stdexcept>

#include "common/stats.hpp"
#include "mc/policy_fcfs.hpp"
#include "mc/policy_frfcfs.hpp"
#include "mc/policy_gmc.hpp"
#include "mc/policy_sbwas.hpp"
#include "mc/policy_wafcfs.hpp"
#include "workload/generator.hpp"

namespace latbench {

using namespace latdiv;

TimedPolicy::TimedPolicy(std::unique_ptr<TransactionScheduler> inner,
                         Profiler& prof)
    : inner_(std::move(inner)),
      prof_(prof),
      layer_(inner_->wg_stats() != nullptr ? Layer::kWg : Layer::kPolicy) {}

void TimedPolicy::schedule_reads(MemoryController& mc, Cycle now) {
  const Scope s(prof_, layer_);
  inner_->schedule_reads(mc, now);
}
void TimedPolicy::schedule_writes(MemoryController& mc, Cycle now) {
  const Scope s(prof_, layer_);
  inner_->schedule_writes(mc, now);
}
void TimedPolicy::on_push(MemoryController& mc, const MemRequest& req,
                          Cycle now) {
  const Scope s(prof_, layer_);
  inner_->on_push(mc, req, now);
}
void TimedPolicy::on_group_complete(MemoryController& mc, const WarpTag& tag,
                                    Cycle now) {
  const Scope s(prof_, layer_);
  inner_->on_group_complete(mc, tag, now);
}
void TimedPolicy::on_remote_selection(MemoryController& mc,
                                      const CoordMsg& msg, Cycle now) {
  const Scope s(prof_, layer_);
  inner_->on_remote_selection(mc, msg, now);
}
void TimedPolicy::on_drain_start(MemoryController& mc, Cycle now) {
  const Scope s(prof_, layer_);
  inner_->on_drain_start(mc, now);
}

namespace {

/// The untimed instruction source a config asks for: its instr_source
/// factory when set (scenario kernels), else the statistical generator.
std::unique_ptr<InstrSource> make_source(const SimConfig& cfg) {
  if (cfg.instr_source) {
    return cfg.instr_source(cfg.num_sms, cfg.sm.warps, cfg.seed);
  }
  return std::make_unique<WorkloadGenerator>(cfg.workload, cfg.num_sms,
                                             cfg.sm.warps, cfg.seed);
}

Layer source_layer(const SimConfig& cfg) {
  return cfg.instr_source ? Layer::kScenario : Layer::kWorkload;
}

}  // namespace

TracedSim::TracedSim(const SimConfig& cfg, Profiler& prof)
    : cfg_(cfg),
      prof_(prof),
      timing_(DramTiming::from(cfg.dram)),
      amap_([&] {
        AddressMapConfig a = cfg.amap;
        a.channels = cfg.icnt.partitions;
        a.banks_per_channel = cfg.dram.banks;
        a.banks_per_group = cfg.dram.banks_per_group;
        return a;
      }()),
      source_(make_source(cfg), prof, source_layer(cfg)),
      xbar_([&] {
        IcntConfig i = cfg.icnt;
        i.sms = cfg.num_sms;
        i.sticky_arbitration = cfg.scheduler == SchedulerKind::kWafcfs;
        return i;
      }()) {
  if (!cfg_.replay_trace_path.empty() || !cfg_.record_trace_path.empty() ||
      cfg_.obs.enabled() || cfg_.check.protocol || cfg_.check.invariants ||
      cfg_.custom_policy) {
    throw std::invalid_argument(
        "traced core supports plain detailed configurations only");
  }
  for (std::uint32_t p = 0; p < cfg_.icnt.partitions; ++p) {
    partitions_.push_back(std::make_unique<Partition>(
        static_cast<ChannelId>(p), cfg_.partition, cfg_.mc, timing_,
        std::make_unique<TimedPolicy>(make_policy(), prof_), amap_, xbar_,
        tracker_, nullptr));
  }
  for (std::uint32_t s = 0; s < cfg_.num_sms; ++s) {
    sms_.push_back(std::make_unique<Sm>(
        static_cast<SmId>(s), cfg_.sm, source_, amap_, xbar_, tracker_,
        /*uid_base=*/s + 1, /*uid_stride=*/cfg_.num_sms));
  }
  std::vector<MemoryController*> mcs;
  mcs.reserve(partitions_.size());
  for (auto& part : partitions_) mcs.push_back(&part->mc());
  coord_ = std::make_unique<CoordinationNetwork>(std::move(mcs),
                                                 cfg_.coordination_latency);
}

std::unique_ptr<TransactionScheduler> TracedSim::make_policy() const {
  switch (cfg_.scheduler) {
    case SchedulerKind::kFcfs: return std::make_unique<FcfsPolicy>();
    case SchedulerKind::kFrFcfs: return std::make_unique<FrFcfsPolicy>();
    case SchedulerKind::kGmc: return std::make_unique<GmcPolicy>(cfg_.gmc);
    case SchedulerKind::kWafcfs: return std::make_unique<WafcfsPolicy>();
    case SchedulerKind::kSbwas: return std::make_unique<SbwasPolicy>(cfg_.sbwas);
    case SchedulerKind::kWg:
    case SchedulerKind::kWgM:
    case SchedulerKind::kWgBw:
    case SchedulerKind::kWgW:
    case SchedulerKind::kWgShared: {
      // The flag mapping of Simulator::make_policy.
      const SchedulerKind k = cfg_.scheduler;
      WgConfig wg = cfg_.wg;
      wg.multi_channel = k != SchedulerKind::kWg;
      wg.merb = k == SchedulerKind::kWgBw || k == SchedulerKind::kWgW ||
                k == SchedulerKind::kWgShared;
      wg.write_aware =
          k == SchedulerKind::kWgW || k == SchedulerKind::kWgShared;
      wg.shared_data_boost = k == SchedulerKind::kWgShared;
      return std::make_unique<WgPolicy>(wg, timing_);
    }
    case SchedulerKind::kZld: break;
  }
  throw std::invalid_argument(std::string("traced core has no policy for ") +
                              to_string(cfg_.scheduler));
}

void TracedSim::step() {
  if (now_ % cfg_.sm.core_clock_ratio == 0) {
    for (auto& sm : sms_) {
      const Scope s(prof_, Layer::kSm);
      sm->tick(now_);
    }
    {
      const Scope s(prof_, Layer::kIcnt);
      xbar_.tick(now_);
    }
    for (auto& part : partitions_) {
      const Scope s(prof_, Layer::kPartition);
      part->tick_core(now_);
    }
  }
  for (auto& part : partitions_) {
    const Scope s(prof_, Layer::kMc);
    part->tick_dram(now_);
  }
  {
    const Scope s(prof_, Layer::kCoord);
    coord_->tick(now_);
  }
  ++now_;
  if (warmup_done_at_ == 0 && now_ >= cfg_.warmup_cycles) {
    warmup_done_at_ = now_;
    warmup_instructions_ = total_instructions();
  }
}

std::uint64_t TracedSim::total_instructions() const {
  std::uint64_t total = 0;
  for (const auto& sm : sms_) total += sm->stats().instructions;
  return total;
}

double TracedSim::ipc() const {
  const double measured_core_cycles =
      static_cast<double>(now_ - warmup_done_at_) / cfg_.sm.core_clock_ratio;
  return safe_ratio(
      static_cast<double>(total_instructions() - warmup_instructions_),
      measured_core_cycles);
}

namespace {

void add(CounterList& out, const std::string& name, double v) {
  out.emplace_back(name, v);
}

void add_acc(CounterList& out, const std::string& name, const Accumulator& a) {
  add(out, name + ".count", static_cast<double>(a.count()));
  add(out, name + ".sum", a.sum());
  add(out, name + ".max", a.max());
}

void add_per_bank(CounterList& out, const std::string& name,
                  const std::vector<std::uint64_t>& v) {
  for (std::size_t b = 0; b < v.size(); ++b) {
    add(out, name + "[" + std::to_string(b) + "]", static_cast<double>(v[b]));
  }
}

void add_cache(CounterList& out, const std::string& pre, const Cache& c) {
  const CacheStats& s = c.stats();
  add(out, pre + ".hits", static_cast<double>(s.hits));
  add(out, pre + ".misses", static_cast<double>(s.misses));
  add(out, pre + ".evictions", static_cast<double>(s.evictions));
  add(out, pre + ".dirty_evictions", static_cast<double>(s.dirty_evictions));
}

void add_sm(CounterList& out, std::size_t i, const Sm& sm) {
  const std::string pre = "sm" + std::to_string(i);
  const SmStats& s = sm.stats();
  add(out, pre + ".instructions", static_cast<double>(s.instructions));
  add(out, pre + ".loads", static_cast<double>(s.loads));
  add(out, pre + ".stores", static_cast<double>(s.stores));
  add(out, pre + ".issue_stall_mshr", static_cast<double>(s.issue_stall_mshr));
  add(out, pre + ".no_ready_warp_cycles",
      static_cast<double>(s.no_ready_warp_cycles));
  const CoalescerStats& c = sm.coalescer().stats();
  add(out, pre + ".coalescer.loads", static_cast<double>(c.loads));
  add(out, pre + ".coalescer.divergent_loads",
      static_cast<double>(c.divergent_loads));
  add(out, pre + ".coalescer.load_requests",
      static_cast<double>(c.load_requests));
  add(out, pre + ".coalescer.stores", static_cast<double>(c.stores));
  add(out, pre + ".coalescer.store_requests",
      static_cast<double>(c.store_requests));
  add_cache(out, pre + ".l1", sm.l1());
}

void add_partition(CounterList& out, std::size_t i, const Partition& part) {
  const std::string pre = "part" + std::to_string(i);
  const PartitionStats& p = part.stats();
  add(out, pre + ".read_hits", static_cast<double>(p.read_hits));
  add(out, pre + ".read_misses", static_cast<double>(p.read_misses));
  add(out, pre + ".write_hits", static_cast<double>(p.write_hits));
  add(out, pre + ".write_misses", static_cast<double>(p.write_misses));
  add(out, pre + ".writebacks", static_cast<double>(p.writebacks));
  add(out, pre + ".mshr_merges", static_cast<double>(p.mshr_merges));
  add(out, pre + ".stall_cycles", static_cast<double>(p.stall_cycles));
  add_cache(out, pre + ".l2", part.l2());

  const std::string mpre = "mc" + std::to_string(i);
  const McStats& m = part.mc().stats();
  add(out, mpre + ".reads_accepted", static_cast<double>(m.reads_accepted));
  add(out, mpre + ".writes_accepted", static_cast<double>(m.writes_accepted));
  add(out, mpre + ".reads_served", static_cast<double>(m.reads_served));
  add(out, mpre + ".writes_served", static_cast<double>(m.writes_served));
  add(out, mpre + ".drains_started", static_cast<double>(m.drains_started));
  add_acc(out, mpre + ".read_queueing_cycles", m.read_queueing_cycles);
  add_acc(out, mpre + ".read_service_cycles", m.read_service_cycles);
  add(out, mpre + ".drain_stalled_groups",
      static_cast<double>(m.drain_stalled_groups));
  add(out, mpre + ".drain_stalled_small_groups",
      static_cast<double>(m.drain_stalled_small_groups));
  add_per_bank(out, mpre + ".bank_row_hits", m.bank_row_hits);
  add_per_bank(out, mpre + ".bank_row_misses", m.bank_row_misses);
  add_per_bank(out, mpre + ".bank_row_conflicts", m.bank_row_conflicts);
  if (const WgStats* wg = part.mc().policy().wg_stats()) {
    add(out, mpre + ".wg.groups_completed",
        static_cast<double>(wg->groups_completed));
    add(out, mpre + ".wg.groups_selected",
        static_cast<double>(wg->groups_selected));
    add(out, mpre + ".wg.fallback_selections",
        static_cast<double>(wg->fallback_selections));
    add(out, mpre + ".wg.merb_deferrals",
        static_cast<double>(wg->merb_deferrals));
    add(out, mpre + ".wg.orphan_topups", static_cast<double>(wg->orphan_topups));
    add(out, mpre + ".wg.coord_msgs_applied",
        static_cast<double>(wg->coord_msgs_applied));
    add(out, mpre + ".wg.writeaware_selections",
        static_cast<double>(wg->writeaware_selections));
    add(out, mpre + ".wg.shared_boosts", static_cast<double>(wg->shared_boosts));
    add_acc(out, mpre + ".wg.group_size", wg->group_size);
  }

  const std::string cpre = "ch" + std::to_string(i);
  const ChannelStats& c = part.mc().channel().stats();
  add(out, cpre + ".activates", static_cast<double>(c.activates));
  add(out, cpre + ".precharges", static_cast<double>(c.precharges));
  add(out, cpre + ".reads", static_cast<double>(c.reads));
  add(out, cpre + ".writes", static_cast<double>(c.writes));
  add(out, cpre + ".refreshes", static_cast<double>(c.refreshes));
  add(out, cpre + ".data_bus_busy_cycles",
      static_cast<double>(c.data_bus_busy_cycles));
  add(out, cpre + ".all_banks_idle_cycles",
      static_cast<double>(c.all_banks_idle_cycles));
  add_per_bank(out, cpre + ".per_bank_activates", c.per_bank_activates);
  add_per_bank(out, cpre + ".per_bank_precharges", c.per_bank_precharges);
}

void add_tracker(CounterList& out, const InstrTracker& t) {
  const TrackerSummary& s = t.summary();
  add(out, "tracker.loads_finalized", static_cast<double>(s.loads_finalized));
  add(out, "tracker.loads_touching_dram",
      static_cast<double>(s.loads_touching_dram));
  add_acc(out, "tracker.dram_reqs_per_load", s.dram_reqs_per_load);
  add_acc(out, "tracker.channels_per_load", s.channels_per_load);
  add_acc(out, "tracker.banks_per_load", s.banks_per_load);
  add_acc(out, "tracker.same_row_frac", s.same_row_frac);
  add_acc(out, "tracker.first_req_latency", s.first_req_latency);
  add_acc(out, "tracker.last_req_latency", s.last_req_latency);
  add_acc(out, "tracker.last_to_first_ratio", s.last_to_first_ratio);
  add_acc(out, "tracker.divergence_gap", s.divergence_gap);
  add(out, "tracker.inflight", static_cast<double>(t.inflight()));
}

}  // namespace

CounterList TracedSim::counters() const {
  CounterList out;
  add(out, "cycles", static_cast<double>(now_));
  add(out, "ipc", ipc());
  for (std::size_t s = 0; s < sms_.size(); ++s) add_sm(out, s, *sms_[s]);
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    add_partition(out, p, *partitions_[p]);
  }
  add_tracker(out, tracker_);
  add(out, "icnt.inject_stalls", static_cast<double>(xbar_.stats().inject_stalls));
  add(out, "coord.messages", static_cast<double>(coord_->messages_sent()));
  return out;
}

CounterList reference_counters(Simulator& sim, const RunResult& result) {
  CounterList out;
  add(out, "cycles", static_cast<double>(sim.now()));
  add(out, "ipc", result.ipc);
  for (std::size_t s = 0; s < sim.config().num_sms; ++s) {
    add_sm(out, s, sim.sm(s));
  }
  for (std::size_t p = 0; p < sim.config().icnt.partitions; ++p) {
    add_partition(out, p, sim.partition(p));
  }
  add_tracker(out, sim.tracker());
  add(out, "icnt.inject_stalls", static_cast<double>(result.icnt_inject_stalls));
  add(out, "coord.messages", static_cast<double>(result.coord_messages));
  return out;
}

std::string diff_counters(const CounterList& traced,
                          const CounterList& reference) {
  const std::size_t n = std::min(traced.size(), reference.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (traced[i].first != reference[i].first ||
        traced[i].second != reference[i].second) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s: traced %.17g, reference %s %.17g",
                    traced[i].first.c_str(), traced[i].second,
                    reference[i].first.c_str(), reference[i].second);
      return buf;
    }
  }
  if (traced.size() != reference.size()) {
    return "counter list length: traced " + std::to_string(traced.size()) +
           ", reference " + std::to_string(reference.size());
  }
  return {};
}

}  // namespace latbench
