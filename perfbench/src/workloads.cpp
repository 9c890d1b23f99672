#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ckpt/sampler.hpp"
#include "ckpt/snapshot.hpp"
#include "common/log.hpp"
#include "exp/executor.hpp"
#include "exp/manifest.hpp"
#include "exp/reporter.hpp"
#include "profiler.hpp"
#include "sim/simulator.hpp"
#include "traced_sim.hpp"
#include "workload/profile.hpp"

namespace latbench {

using namespace latdiv;
using exp::JsonValue;

namespace {

constexpr WorkloadDef kWorkloads[] = {
    {"fig8-quick", WorkloadDef::Kind::kSweep, "fig8", true, 1},
    {"kernels-jobs4", WorkloadDef::Kind::kSweep, "kernels", false, 4},
    {"sampled-gmc", WorkloadDef::Kind::kSampled, "", false, 4},
};

/// Run length of every sampled-gmc point.
constexpr Cycle kSampledCycles = 1'000'000;

double seconds_between(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

/// Process user + system CPU seconds (all threads).
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// FNV-1a 64 of `text`, as 16 hex digits.
std::string digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

void append_num(std::string& s, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g;", v);
  s += buf;
}

std::string point_digest(const exp::PointResult& r) {
  std::string text = r.id + (r.ok ? ";ok;" : ";failed;") + r.scheduler + ";";
  for (const auto& [key, value] : r.metrics) {
    text += key + "=";
    append_num(text, value);
  }
  return digest(text);
}

/// The fan-out schedule's raw outcome: every window plus the cost fields.
std::string schedule_text(const ckpt::SampledResult& r) {
  std::string text;
  for (const ckpt::SampledWindow& w : r.windows) {
    for (const double v :
         {static_cast<double>(w.start), static_cast<double>(w.cycles),
          static_cast<double>(w.instructions), static_cast<double>(w.dram_reads),
          static_cast<double>(w.dram_writes),
          static_cast<double>(w.dram_activates),
          static_cast<double>(w.data_bus_busy_cycles), w.ipc}) {
      append_num(text, v);
    }
  }
  for (const double v :
       {static_cast<double>(r.start), static_cast<double>(r.end),
        static_cast<double>(r.detailed_cycles),
        static_cast<double>(r.warm_instructions)}) {
    append_num(text, v);
  }
  return text;
}

std::string sampled_digest(const std::string& name,
                           const ckpt::SampledResult& r) {
  std::string text = name + ";" + schedule_text(r);
  for (const double v :
       {r.ipc, r.instructions, r.row_hit_rate, r.bandwidth_utilization}) {
    append_num(text, v);
  }
  return digest(text);
}

/// The SimConfig exp::execute_point builds for a simulated point.
SimConfig config_of(const exp::ExpPoint& p) {
  SimConfig cfg;
  cfg.workload = p.workload;
  cfg.scheduler = p.scheduler;
  cfg.max_cycles = p.cycles;
  cfg.warmup_cycles = p.warmup;
  cfg.seed = p.seed;
  if (p.hook) p.hook(cfg);
  return cfg;
}

exp::SweepOptions sweep_options(const WorkloadDef& w, const RunArgs& args) {
  exp::SweepOptions opts;
  opts.quick = w.quick;
  opts.seed = args.seed;
  opts.filter = args.filter;
  opts.jobs = args.jobs != 0 ? args.jobs : w.jobs;
  return opts;
}

struct SampledPoint {
  std::string name;
  SimConfig cfg;
};

/// GMC on every Table III workload for kSampledCycles.  No warm-up
/// exclusion: the sampled estimator has none, so the straight-through
/// reference must not either.
std::vector<SampledPoint> sampled_points(const RunArgs& args) {
  std::vector<SampledPoint> out;
  for (const WorkloadProfile& prof : irregular_suite()) {
    if (!args.filter.empty() && prof.name.find(args.filter) == std::string::npos) {
      continue;
    }
    SimConfig cfg;
    cfg.workload = prof;
    cfg.scheduler = SchedulerKind::kGmc;
    cfg.max_cycles = kSampledCycles;
    cfg.warmup_cycles = 0;
    cfg.seed = args.seed;
    out.push_back({prof.name, cfg});
  }
  return out;
}

/// Mean absolute gap (percentage points) between the measured geomean
/// IPC gains over GMC and the paper's Fig. 8 numbers.
JsonValue paper_gap(const exp::Artifact& a) {
  static constexpr std::pair<const char*, double> kPaper[] = {
      {"WG", 3.4}, {"WG-M", 6.2}, {"WG-Bw", 8.4}, {"WG-W", 10.1}};
  JsonValue gains(JsonValue::Object{});
  double gap = 0.0;
  for (const auto& [col, paper] : kPaper) {
    const auto it = a.col_geomean.find(col);
    if (it == a.col_geomean.end()) return JsonValue{};
    const double gain = (it->second - 1.0) * 100.0;
    gains.set(col, gain);
    gap += std::fabs(gain - paper);
  }
  JsonValue out(JsonValue::Object{});
  out.set("gap_pp", gap / 4.0);
  out.set("gain_pct", std::move(gains));
  return out;
}

JsonValue sweep_rep(const WorkloadDef& w, const RunArgs& args,
                    std::string* artifact_out) {
  const exp::SweepOptions opts = sweep_options(w, args);
  const double cpu0 = cpu_seconds();
  const std::uint64_t t0 = now_ns();
  exp::Manifest m = exp::make_manifest(w.manifest, opts);
  std::vector<exp::PointResult> results = exp::run_grid(m.grid, opts.jobs);
  const std::uint64_t t1 = now_ns();
  JsonValue points(JsonValue::Array{});
  double point_wall = 0.0;
  for (const exp::PointResult& r : results) {
    JsonValue p(JsonValue::Object{});
    p.set("id", r.id);
    p.set("ok", r.ok);
    p.set("wall_s", r.wall_ms * 1e-3);
    p.set("digest", point_digest(r));
    if (!r.ok) p.set("error", r.error);
    points.push_back(std::move(p));
    point_wall += r.wall_ms * 1e-3;
  }
  const exp::Artifact artifact =
      exp::make_artifact(m.spec, opts.shape(), std::move(results));
  std::string text = exp::to_json(artifact);
  const std::uint64_t t2 = now_ns();
  const double wall = seconds_between(t0, t2);

  JsonValue rep(JsonValue::Object{});
  rep.set("wall_s", wall);
  rep.set("cpu_s", cpu_seconds() - cpu0);
  rep.set("report_s", seconds_between(t1, t2));
  rep.set("busy_frac", point_wall / (seconds_between(t0, t1) * opts.jobs));
  rep.set("artifact_digest", digest(text));
  if (std::string(w.manifest) == "fig8") rep.set("paper", paper_gap(artifact));
  rep.set("points", std::move(points));
  if (artifact_out != nullptr) *artifact_out = std::move(text);
  return rep;
}

JsonValue sampled_rep(const WorkloadDef& w, const RunArgs& args) {
  const unsigned jobs = args.jobs != 0 ? args.jobs : w.jobs;
  const double cpu0 = cpu_seconds();
  const std::uint64_t t0 = now_ns();
  JsonValue points(JsonValue::Array{});
  for (const SampledPoint& sp : sampled_points(args)) {
    const std::uint64_t p0 = now_ns();
    const ckpt::SampledResult r = ckpt::run_sampled(sp.cfg, {}, jobs);
    JsonValue p(JsonValue::Object{});
    p.set("id", sp.name);
    p.set("ok", true);
    p.set("wall_s", seconds_between(p0, now_ns()));
    p.set("digest", sampled_digest(sp.name, r));
    p.set("ipc", r.ipc);
    points.push_back(std::move(p));
  }
  JsonValue rep(JsonValue::Object{});
  rep.set("wall_s", seconds_between(t0, now_ns()));
  rep.set("cpu_s", cpu_seconds() - cpu0);
  rep.set("points", std::move(points));
  return rep;
}

/// Seconds to build the workload's point list and construct a Simulator
/// for every point (the simulators are destroyed unrun).
double setup_once(const WorkloadDef& w, const RunArgs& args) {
  const std::uint64_t t0 = now_ns();
  if (w.kind == WorkloadDef::Kind::kSweep) {
    const exp::Manifest m =
        exp::make_manifest(w.manifest, sweep_options(w, args));
    for (const exp::ExpPoint& p : m.grid.points()) {
      const Simulator sim(config_of(p));
    }
  } else {
    for (const SampledPoint& sp : sampled_points(args)) {
      const Simulator sim(sp.cfg);
    }
  }
  return seconds_between(t0, now_ns());
}

double nominal_cycles(const WorkloadDef& w, const RunArgs& args) {
  double total = 0.0;
  if (w.kind == WorkloadDef::Kind::kSweep) {
    const exp::Manifest m =
        exp::make_manifest(w.manifest, sweep_options(w, args));
    for (const exp::ExpPoint& p : m.grid.points()) {
      total += static_cast<double>(p.cycles);
    }
  } else {
    total = static_cast<double>(sampled_points(args).size()) *
            static_cast<double>(kSampledCycles);
  }
  return total;
}

// ---------------------------------------------------------------------
// Traced run.

struct Span {
  std::string name;
  const char* cat;
  std::uint64_t start;
  std::uint64_t dur;
};

class SpanLog {
 public:
  explicit SpanLog(std::uint64_t origin) : origin_(origin) {}
  void add(std::string name, const char* cat, std::uint64_t start,
           std::uint64_t end) {
    spans_.push_back({std::move(name), cat, start - origin_, end - start});
  }
  /// Chrome trace_event JSON (chrome://tracing, Perfetto).
  void write(const std::string& path) const {
    JsonValue events(JsonValue::Array{});
    for (const Span& s : spans_) {
      JsonValue e(JsonValue::Object{});
      e.set("name", s.name);
      e.set("cat", s.cat);
      e.set("ph", "X");
      e.set("ts", static_cast<double>(s.start) * 1e-3);
      e.set("dur", static_cast<double>(s.dur) * 1e-3);
      e.set("pid", std::uint64_t{1});
      e.set("tid", std::uint64_t{1});
      events.push_back(std::move(e));
    }
    JsonValue doc(JsonValue::Object{});
    doc.set("traceEvents", std::move(events));
    std::ofstream out(path, std::ios::binary);
    out << doc.dump();
    if (!out) throw std::runtime_error("cannot write spans to '" + path + "'");
  }

 private:
  std::uint64_t origin_;
  std::vector<Span> spans_;
};

/// Work counts of the traced core, summed over points.
struct Counts {
  std::uint64_t cycles = 0;
  std::uint64_t wg_groups_selected = 0;
  std::uint64_t wg_merb_deferrals = 0;
  std::uint64_t sm_instructions = 0;
  std::uint64_t sm_no_ready_warp_cycles = 0;
  std::uint64_t sm_issue_stall_mshr = 0;
  std::uint64_t l1_hits = 0, l1_misses = 0;
  std::uint64_t l2_hits = 0, l2_misses = 0;
  std::uint64_t mc_reads_served = 0;
  std::uint64_t mc_drains_started = 0;
  Accumulator mc_read_queueing;
  std::uint64_t dram_activates = 0, dram_reads = 0, dram_writes = 0;
  std::uint64_t icnt_requests_moved = 0;
  std::uint64_t icnt_inject_stalls = 0;
  std::uint64_t coord_messages = 0;

  void add(const TracedSim& ts) {
    cycles += ts.now();
    for (std::size_t s = 0; s < ts.sms(); ++s) {
      const Sm& sm = ts.sm(s);
      sm_instructions += sm.stats().instructions;
      sm_no_ready_warp_cycles += sm.stats().no_ready_warp_cycles;
      sm_issue_stall_mshr += sm.stats().issue_stall_mshr;
      l1_hits += sm.l1().stats().hits;
      l1_misses += sm.l1().stats().misses;
    }
    for (std::size_t p = 0; p < ts.partitions(); ++p) {
      const Partition& part = ts.partition(p);
      l2_hits += part.l2().stats().hits;
      l2_misses += part.l2().stats().misses;
      const McStats& ms = part.mc().stats();
      mc_reads_served += ms.reads_served;
      mc_drains_started += ms.drains_started;
      mc_read_queueing.merge(ms.read_queueing_cycles);
      const ChannelStats& cs = part.mc().channel().stats();
      dram_activates += cs.activates;
      dram_reads += cs.reads;
      dram_writes += cs.writes;
      if (const WgStats* wg = part.mc().policy().wg_stats()) {
        wg_groups_selected += wg->groups_selected;
        wg_merb_deferrals += wg->merb_deferrals;
      }
    }
    icnt_requests_moved += ts.xbar().stats().requests_moved;
    icnt_inject_stalls += ts.xbar().stats().inject_stalls;
    coord_messages += ts.coord().messages_sent();
  }
};

/// Per-workload accumulation of the traced run.
struct TraceState {
  Profiler prof;
  Counts counts;
  std::uint64_t step_ns = 0;       ///< inside TracedSim::run_to
  std::uint64_t traced_ns = 0;     ///< traced points incl. construction
  std::uint64_t reference_ns = 0;  ///< library Simulator, same points
  std::size_t points = 0;
  JsonValue parity_failures{JsonValue::Array{}};
};

/// Reference run of the library Simulator to `stop`, then the traced core
/// over the same span; records timing, counts and the parity verdict.
void trace_point(const std::string& id, const SimConfig& cfg, Cycle stop,
                 TraceState& st, SpanLog& spans) {
  std::uint64_t t0 = now_ns();
  CounterList reference;
  {
    Simulator sim(cfg);
    sim.run_to(stop);
    const RunResult r = sim.finish();
    st.reference_ns += now_ns() - t0;
    reference = reference_counters(sim, r);
  }
  spans.add(id, "reference", t0, now_ns());

  t0 = now_ns();
  TracedSim ts(cfg, st.prof);
  const std::uint64_t t1 = now_ns();
  ts.run_to(stop);
  const std::uint64_t t2 = now_ns();
  st.step_ns += t2 - t1;
  st.traced_ns += t2 - t0;
  spans.add(id + " setup", "setup", t0, t1);
  spans.add(id, "point", t1, t2);

  const std::string diff = diff_counters(ts.counters(), reference);
  if (!diff.empty()) st.parity_failures.push_back(id + ": " + diff);
  st.counts.add(ts);
  ++st.points;
}

/// Host time of the replayed fan-out phases, summed over points.
struct CkptTotals {
  double window_s = 0, skip_s = 0, save_s = 0, load_s = 0, busy_s = 0;
  std::uint64_t snapshot_bytes = 0;
};

/// The fan-out schedule of ckpt::run_sampled (jobs > 1), replayed serially
/// through the public SampledRunner and snapshot calls with every phase
/// timed.  Fills the windows and cost fields, not the estimates (those
/// are the library's aggregation of the windows).
ckpt::SampledResult replay_fanout(const std::string& name, const SimConfig& cfg,
                                  const ckpt::SamplingConfig& scfg,
                                  CkptTotals& tot, SpanLog& spans) {
  ckpt::SampledResult r;
  r.start = 0;
  r.end = cfg.max_cycles;
  const Cycle period = scfg.period_cycles;
  const Cycle prime_span =
      std::min<Cycle>(scfg.warm_cycles + scfg.detail_cycles, cfg.max_cycles);
  const Cycle prime_warm = std::min(scfg.warm_cycles, prime_span);

  const std::uint64_t lead0 = now_ns();
  Simulator lead(cfg);
  ckpt::SampledRunner prime(lead, scfg);
  std::uint64_t t0 = now_ns();
  r.windows.push_back(prime.measure_window(prime_warm, prime_span - prime_warm));
  std::uint64_t t1 = now_ns();
  tot.window_s += seconds_between(t0, t1);
  spans.add(name + " prime", "ckpt.window", t0, t1);
  r.detailed_cycles += prime_span;
  const std::vector<unsigned char> snap = ckpt::save_snapshot(lead);
  t0 = now_ns();
  tot.save_s += seconds_between(t1, t0);
  spans.add(name + " save", "ckpt.snapshot_save", t1, t0);
  tot.snapshot_bytes += snap.size();
  const std::vector<std::uint64_t> rates = prime.issue_rates();
  tot.busy_s += seconds_between(lead0, t0);

  for (Cycle start = period; start < cfg.max_cycles; start += period) {
    const std::uint64_t c0 = now_ns();
    Simulator sim(cfg);
    t0 = now_ns();
    ckpt::load_snapshot(sim, snap.data(), snap.size());
    t1 = now_ns();
    tot.load_s += seconds_between(t0, t1);
    spans.add(name + " load", "ckpt.snapshot_load", t0, t1);
    ckpt::SampledRunner worker(sim, scfg);
    worker.freeze_issue_rates(rates);
    worker.skip_to(start);
    t0 = now_ns();
    tot.skip_s += seconds_between(t1, t0);
    spans.add(name + " skip", "ckpt.skip", t1, t0);
    const Cycle period_end = std::min(start + period, cfg.max_cycles);
    const Cycle warm = std::min(scfg.warm_cycles, period_end - start);
    const Cycle detail = std::min(scfg.detail_cycles, period_end - start - warm);
    if (detail > 0) {
      const ckpt::SampledWindow w = worker.measure_window(warm, detail);
      t1 = now_ns();
      tot.window_s += seconds_between(t0, t1);
      spans.add(name + " window", "ckpt.window", t0, t1);
      r.windows.push_back(w);
      r.detailed_cycles +=
          std::min(scfg.warm_cycles, cfg.max_cycles - start) + w.cycles;
      r.warm_instructions += worker.warm_instructions();
    }
    tot.busy_s += seconds_between(c0, now_ns());
  }
  return r;
}

void set_metric(JsonValue& metrics, const std::string& name, double value,
                const char* unit) {
  JsonValue m(JsonValue::Object{});
  m.set("value", value);
  m.set("unit", unit);
  metrics.set(name, std::move(m));
}

}  // namespace

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

JsonValue provenance() {
  JsonValue p(JsonValue::Object{});
  p.set("hardware_threads",
        static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
#if defined(__clang__)
  p.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  p.set("compiler", std::string("gcc ") + __VERSION__);
#else
  p.set("compiler", "unknown");
#endif
  p.set("build_type", LATBENCH_BUILD_TYPE);
#ifdef NDEBUG
  std::string asserts = "NDEBUG";
#else
  std::string asserts = "assert";
#endif
#if LATDIV_ENABLE_DCHECKS
  asserts += "+dchecks";
#endif
  p.set("assertions", asserts);
  return p;
}

JsonValue run_workload(const WorkloadDef& w, const RunArgs& args) {
  const double cycles = nominal_cycles(w, args);
  if (cycles == 0.0) {
    throw std::invalid_argument("filter '" + args.filter + "' matched no points");
  }
  JsonValue out(JsonValue::Object{});
  out.set("workload", w.name);
  out.set("seed", args.seed);
  out.set("jobs", static_cast<std::uint64_t>(args.jobs != 0 ? args.jobs : w.jobs));
  out.set("nominal_cycles", cycles);

  JsonValue setup(JsonValue::Array{});
  for (int i = 0; i < args.setup_reps; ++i) setup.push_back(setup_once(w, args));
  out.set("setup_s", std::move(setup));

  // Repeat while the next repetition, as long as the last one, still ends
  // within the budget.
  JsonValue reps(JsonValue::Array{});
  const std::uint64_t start = now_ns();
  double last = 0.0;
  for (int i = 0; i < args.min_reps ||
                  seconds_between(start, now_ns()) + last <= args.seconds;
       ++i) {
    const std::uint64_t rep_start = now_ns();
    std::string artifact;
    JsonValue rep = w.kind == WorkloadDef::Kind::kSweep
                        ? sweep_rep(w, args, i == 0 ? &artifact : nullptr)
                        : sampled_rep(w, args);
    if (i == 0 && !args.artifact.empty() && !artifact.empty()) {
      std::ofstream f(args.artifact, std::ios::binary);
      f << artifact;
    }
    reps.push_back(std::move(rep));
    last = seconds_between(rep_start, now_ns());
  }
  out.set("reps", std::move(reps));
  out.set("peak_rss_mib", peak_rss_mib());
  return out;
}

JsonValue trace_workload(const WorkloadDef& w, const RunArgs& args,
                         const std::string& spans_path) {
  SpanLog spans(now_ns());
  TraceState st;
  JsonValue metrics(JsonValue::Object{});
  double exp_busy = 0.0, exp_report = 0.0;
  CkptTotals ck;
  std::uint64_t warm_instructions = 0, detailed_cycles = 0;
  double fanout_wall = 0.0;
  const unsigned jobs = args.jobs != 0 ? args.jobs : w.jobs;

  if (w.kind == WorkloadDef::Kind::kSweep) {
    const exp::Manifest m =
        exp::make_manifest(w.manifest, sweep_options(w, args));
    for (const exp::ExpPoint& p : m.grid.points()) {
      const SimConfig cfg = config_of(p);
      trace_point(p.id, cfg, cfg.max_cycles, st, spans);
    }
    // One untraced pass through the executor for its own layer.
    const std::uint64_t t0 = now_ns();
    const JsonValue rep = sweep_rep(w, args, nullptr);
    spans.add(w.name, "exp", t0, now_ns());
    exp_busy = rep.at("busy_frac").as_number();
    exp_report = rep.at("report_s").as_number();
  } else {
    const ckpt::SamplingConfig scfg;
    const Cycle prime = scfg.warm_cycles + scfg.detail_cycles;
    for (const SampledPoint& sp : sampled_points(args)) {
      // Per-layer numbers: the priming segment every fan-out starts with.
      trace_point(sp.name + " prime", sp.cfg, prime, st, spans);

      std::uint64_t t0 = now_ns();
      const ckpt::SampledResult ref = ckpt::run_sampled(sp.cfg, scfg, jobs);
      const std::uint64_t t1 = now_ns();
      fanout_wall += seconds_between(t0, t1);
      spans.add(sp.name, "run_sampled", t0, t1);
      const ckpt::SampledResult replay =
          replay_fanout(sp.name, sp.cfg, scfg, ck, spans);
      if (schedule_text(replay) != schedule_text(ref)) {
        st.parity_failures.push_back(sp.name +
                                     ": replayed fan-out differs from "
                                     "run_sampled (windows or warming)");
      }
      warm_instructions += ref.warm_instructions;
      detailed_cycles += ref.detailed_cycles;
    }
  }
  if (st.points == 0) {
    throw std::invalid_argument("filter '" + args.filter + "' matched no points");
  }
  if (!spans_path.empty()) spans.write(spans_path);

  const double cycles = static_cast<double>(std::max<std::uint64_t>(st.counts.cycles, 1));
  const auto per_cycle = [cycles](double ns) { return ns / cycles; };
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const auto l = static_cast<Layer>(i);
    const bool source = l == Layer::kWorkload || l == Layer::kScenario;
    set_metric(metrics, std::string(layer_name(l)) + (source ? ".next_ns" : ".self_ns"),
               per_cycle(st.prof.self_ns(l)), "ns/cycle");
  }
  const auto step_ns = static_cast<double>(st.step_ns);
  set_metric(metrics, "sim.step_ns", per_cycle(step_ns), "ns/cycle");
  set_metric(metrics, "sim.other_ns",
             per_cycle(step_ns - st.prof.total_self_ns()), "ns/cycle");
  set_metric(metrics, "sim.cycles", static_cast<double>(st.counts.cycles), "cycles");
  set_metric(metrics, "trace.overhead_frac",
             st.reference_ns > 0 ? static_cast<double>(st.traced_ns) /
                                           static_cast<double>(st.reference_ns) -
                                       1.0
                                 : 0.0,
             "ratio");

  const Counts& c = st.counts;
  const auto count = [&metrics](const char* name, std::uint64_t v) {
    set_metric(metrics, name, static_cast<double>(v), "count");
  };
  count("core.wg.groups_selected", c.wg_groups_selected);
  count("core.wg.merb_deferrals", c.wg_merb_deferrals);
  count("gpu.sm.instructions", c.sm_instructions);
  count("gpu.sm.no_ready_warp_cycles", c.sm_no_ready_warp_cycles);
  count("gpu.sm.issue_stall_mshr", c.sm_issue_stall_mshr);
  set_metric(metrics, "cache.l1_hit_rate",
             safe_ratio(static_cast<double>(c.l1_hits),
                        static_cast<double>(c.l1_hits + c.l1_misses)),
             "ratio");
  count("mc.policy_calls",
        st.prof.calls(Layer::kPolicy) + st.prof.calls(Layer::kWg));
  count("mc.reads_served", c.mc_reads_served);
  count("mc.drains_started", c.mc_drains_started);
  set_metric(metrics, "mc.read_queueing_cycles", c.mc_read_queueing.mean(),
             "cycles");
  count("dram.activates", c.dram_activates);
  count("dram.reads", c.dram_reads);
  count("dram.writes", c.dram_writes);
  set_metric(metrics, "dram.row_hit_rate",
             1.0 - safe_ratio(static_cast<double>(c.dram_activates),
                              static_cast<double>(c.dram_reads + c.dram_writes)),
             "ratio");
  count("icnt.requests_moved", c.icnt_requests_moved);
  count("icnt.inject_stalls", c.icnt_inject_stalls);
  set_metric(metrics, "cache.l2_hit_rate",
             safe_ratio(static_cast<double>(c.l2_hits),
                        static_cast<double>(c.l2_hits + c.l2_misses)),
             "ratio");
  count("core.coord.messages", c.coord_messages);
  count("workload.next_calls", st.prof.calls(Layer::kWorkload));
  count("scenario.next_calls", st.prof.calls(Layer::kScenario));

  set_metric(metrics, "ckpt.window_s", ck.window_s, "s");
  set_metric(metrics, "ckpt.skip_s", ck.skip_s, "s");
  set_metric(metrics, "ckpt.snapshot_save_s", ck.save_s, "s");
  set_metric(metrics, "ckpt.snapshot_load_s", ck.load_s, "s");
  count("ckpt.warm_instructions", warm_instructions);
  count("ckpt.detailed_cycles", detailed_cycles);
  set_metric(metrics, "ckpt.snapshot_bytes", static_cast<double>(ck.snapshot_bytes),
             "bytes");
  set_metric(metrics, "par.busy_frac",
             fanout_wall > 0.0 ? ck.busy_s / (fanout_wall * jobs) : 0.0, "ratio");
  set_metric(metrics, "exp.busy_frac", exp_busy, "ratio");
  set_metric(metrics, "exp.report_s", exp_report, "s");

  JsonValue out(JsonValue::Object{});
  out.set("workload", w.name);
  out.set("seed", args.seed);
  out.set("points", static_cast<std::uint64_t>(st.points));
  out.set("parity_failures", std::move(st.parity_failures));
  out.set("metrics", std::move(metrics));
  out.set("peak_rss_mib", peak_rss_mib());
  return out;
}

JsonValue straight_ipcs(std::uint64_t seed, unsigned jobs) {
  RunArgs args;
  args.seed = seed;
  const std::vector<SampledPoint> pts = sampled_points(args);
  std::vector<double> ipc(pts.size(), 0.0);
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < pts.size();) {
      ipc[i] = Simulator(pts[i].cfg).run().ipc;
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < std::max(jobs, 1U); ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  JsonValue out(JsonValue::Object{});
  for (std::size_t i = 0; i < pts.size(); ++i) out.set(pts[i].name, ipc[i]);
  return out;
}

}  // namespace latbench
