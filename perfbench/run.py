#!/usr/bin/env python3
"""Simulator benchmark: builds latdiv from source, runs one workload and
prints its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; the lines before
it are the full report (every metric with its unit, provenance, reference
status).  With --trace 0 the metrics are the end-to-end ones, measured with
tracing off; with --trace 1 they are the per-layer ones from the traced
serial core (perfbench/src/traced_sim.hpp).  Exit code 0 when every output
matched, 1 when a check failed, 2 on a usage, build or environment error.

Maintainer commands (see perfbench/CATALOGUE.md, "Pinned references"):

    python3 perfbench/run.py --regen-refs --workload W --seeds 1-16
    python3 perfbench/run.py --regen-straight --seeds 1
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFS_DIR = BENCH_DIR / "refs"
FIG8_GOLDEN = ROOT / "bench" / "golden" / "fig8_quick.json"
FIG8_GOLDEN_SEED = 1
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("fig8-quick", "kernels-jobs4", "sampled-gmc")

# End-to-end metrics printed with --trace 0 (BENCHMARK.json "end_to_end").
E2E_METRICS = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("point_s_p50", "s"),
    ("point_s_tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

# Percentiles point_s_tail may report, highest first.
TAIL_LADDER = (99, 95, 90, 75, 50)
# Repetitions every run makes (latbench's --min-reps default).  The tail
# percentile is chosen from this many repetitions' worth of samples, so it
# stays the same for a workload however many repetitions a run adds.
MIN_REPS = 3

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail_env(msg):
    log(f"perfbench: {msg}")
    sys.exit(2)


def build_dir():
    # Harnesses that name a build directory through CARGO_TARGET_DIR get
    # the CMake tree there too.
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure (once) and build latbench; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail_env(f"latdiv sources not found under {ROOT}/src")
    bdir = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "--target", "latbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail_env(f"build step {cmd[:2]} failed: {e}")
        if proc.returncode != 0:
            fail_env(f"build step {' '.join(cmd[:2])} exited {proc.returncode}")
    return bdir / "latbench"


def latbench(binary, args, out):
    """Run latbench, return its JSON document (exits 2 on failure)."""
    out.parent.mkdir(parents=True, exist_ok=True)
    if out.exists():
        out.unlink()
    cmd = [str(binary)] + [str(a) for a in args] + ["--out", str(out)]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail_env(f"latbench timed out after {RUN_TIMEOUT_S} s")
    if proc.returncode != 0 or not out.is_file():
        fail_env(f"latbench exited {proc.returncode}")
    return json.loads(out.read_text())


def git_describe():
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def load_refs(name, refs_dir=REFS_DIR):
    path = Path(refs_dir) / f"{name}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text()).get("seeds", {})


def tail(samples, basis):
    """(percentile, value, beyond): the highest ladder percentile with at
    least ten of `basis` samples beyond it, evaluated over `samples`."""
    for q in TAIL_LADDER:
        if basis * (100 - q) / 100.0 >= 10:
            cut = statistics.quantiles(samples, n=100, method="inclusive")
            return q, cut[q - 1], len(samples) * (100 - q) / 100.0
    return 100, max(samples), 0.0


def geomean(xs):
    prod = 1.0
    for x in xs:
        prod *= x
    return prod ** (1.0 / len(xs))


def check_fig8_golden(artifact_path):
    """Number of mismatches between the fig8-quick artifact and the
    committed golden: differing points, or 1 when only the bytes differ."""
    got = artifact_path.read_bytes()
    want = FIG8_GOLDEN.read_bytes()
    if got == want:
        return 0
    got_points = {p["id"]: p for p in json.loads(got)["points"]}
    bad = sum(1 for p in json.loads(want)["points"]
              if got_points.get(p["id"]) != p)
    return max(bad, 1)


def score_run(doc, refs, golden_mismatches):
    """(attempted, failed, notes) over every point of every repetition."""
    pinned = refs.get(str(doc["seed"]))
    first = {p["id"]: p["digest"] for p in doc["reps"][0]["points"]}
    attempted = failed = 0
    notes = []
    for r, rep in enumerate(doc["reps"]):
        seen = set()
        for p in rep["points"]:
            attempted += 1
            seen.add(p["id"])
            why = None
            if not p["ok"]:
                why = f"failed: {p.get('error', '')}"
            elif p["digest"] != first.get(p["id"]):
                why = "output differs between repetitions"
            elif pinned is not None and p["digest"] != pinned.get(p["id"]):
                why = "output differs from the pinned reference"
            if why:
                failed += 1
                notes.append(f"rep {r} {p['id']}: {why}")
        if pinned is not None and not doc.get("filtered"):
            missing = set(pinned) - seen
            attempted += len(missing)
            failed += len(missing)
            notes += [f"rep {r} {m}: missing" for m in sorted(missing)]
    if golden_mismatches:
        failed = min(attempted, failed + golden_mismatches)
        notes.append(f"artifact differs from {FIG8_GOLDEN.relative_to(ROOT)} "
                     f"({golden_mismatches} point(s))")
    return attempted, failed, notes


def run_mode(binary, args):
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}"
    artifact = OUT_DIR / f"artifact-{stem}.json"
    cmd = ["run", "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--artifact", artifact]
    if args.filter:
        cmd += ["--filter", args.filter]
    doc = latbench(binary, cmd, OUT_DIR / f"raw-run-{stem}.json")
    doc["filtered"] = bool(args.filter)

    refs = load_refs(args.workload, args.refs_dir)
    golden = 0
    if (args.workload == "fig8-quick" and args.seed == FIG8_GOLDEN_SEED
            and not args.filter):
        golden = check_fig8_golden(artifact)
    attempted, failed, notes = score_run(doc, refs, golden)

    reps = doc["reps"]
    walls = [r["wall_s"] for r in reps]
    point_walls = [p["wall_s"] for r in reps for p in r["points"]]
    wall = statistics.median(walls)
    q, tail_value, beyond = tail(point_walls,
                                 len(reps[0]["points"]) * MIN_REPS)
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "sim_mcycles_per_s": doc["nominal_cycles"] / 1e6 / wall,
        "point_s_p50": statistics.median(point_walls),
        "point_s_tail": tail_value,
        "setup_s": statistics.median(doc["setup_s"]),
        "peak_rss_mib": doc["peak_rss_mib"],
    }
    extra = {
        "failed_frac": (failed / attempted, "ratio"),
        "point_s_tail.percentile": (q, "pct"),
        "point_s_tail.samples_beyond": (beyond, "count"),
        "reps": (len(reps), "count"),
    }
    if "busy_frac" in reps[0]:
        extra["exp.busy_frac"] = (
            statistics.median(r["busy_frac"] for r in reps), "ratio")
        extra["exp.report_s"] = (
            statistics.median(r["report_s"] for r in reps), "s")
    if reps[0].get("paper"):
        paper = reps[0]["paper"]
        extra["paper_gap_pp"] = (paper["gap_pp"], "pp")
        for col, gain in paper["gain_pct"].items():
            extra[f"paper_gap_pp.gain.{col}"] = (gain, "%")
    if args.workload == "sampled-gmc":
        straight = load_refs("sampled-gmc.straight",
                             args.refs_dir).get(str(args.seed))
        if straight:
            errs = [max(abs(p["ipc"] - straight[p["id"]]) / straight[p["id"]],
                        1e-9)
                    for p in reps[0]["points"] if p["id"] in straight]
            if errs:
                extra["ipc_err_pct"] = (geomean(errs) * 100.0, "%")
    pinned = str(args.seed) in refs
    status = {
        "references": "pinned" if pinned else "unpinned seed: repeatability "
                      "check only",
        "golden": ("checked" if args.workload == "fig8-quick"
                   and args.seed == FIG8_GOLDEN_SEED and not args.filter
                   else "n/a"),
    }
    return doc, attempted, failed, notes, metrics, dict(E2E_METRICS), extra, \
        status


def trace_mode(binary, args):
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}"
    cmd = ["trace", "--workload", args.workload, "--seed", args.seed,
           "--spans", OUT_DIR / f"spans-{stem}.json"]
    if args.filter:
        cmd += ["--filter", args.filter]
    doc = latbench(binary, cmd, OUT_DIR / f"raw-trace-{stem}.json")
    attempted = max(doc["points"], 1)
    failed = min(len(doc["parity_failures"]), attempted)
    notes = [f"parity: {f}" for f in doc["parity_failures"]]
    metrics = {k: v["value"] for k, v in doc["metrics"].items()}
    units = {k: v["unit"] for k, v in doc["metrics"].items()}
    status = {"parity": "ok" if not failed else "FAILED",
              "spans": str((OUT_DIR / f"spans-{stem}.json").relative_to(ROOT))}
    return doc, attempted, failed, notes, metrics, units, {}, status


def emit(args, doc, attempted, failed, notes, metrics, units, extra, status):
    provenance = dict(doc.get("provenance", {}))
    provenance.update({
        "git_describe": git_describe(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "filter": args.filter,
        "shape": {k: doc[k] for k in ("jobs", "nominal_cycles", "points")
                  if k in doc},
    })
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for key, value in status.items():
        print(f"status {key}: {value}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"report {name} = {value:.6g} {unit}")
    for note in notes[:20]:
        print(f"FAIL {note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    record = {"provenance": provenance, "status": status, "result": result,
              "report": {k: {"value": v, "unit": u}
                         for k, (v, u) in extra.items()}}
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT_DIR / f"result-{tag}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def parse_seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def write_refs(path, doc, pinned):
    doc["seeds"] = dict(sorted(pinned.items(), key=lambda kv: int(kv[0])))
    REFS_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def regen_refs(binary, workload, seeds):
    path = REFS_DIR / f"{workload}.json"
    pinned = json.loads(path.read_text())["seeds"] if path.is_file() else {}
    doc = {
        "workload": workload,
        "digest": "FNV-1a 64 of each point's result (perfbench/src/"
                  "workloads.cpp)",
        "regenerate": f"python3 perfbench/run.py --regen-refs --workload "
                      f"{workload} --seeds <list>",
    }
    for seed in seeds:
        log(f"perfbench: pinning {workload} seed {seed}")
        raw = latbench(binary, ["run", "--workload", workload, "--seed", seed,
                                "--seconds", 0, "--min-reps", 1,
                                "--setup-reps", 1, "--jobs", 4],
                       OUT_DIR / "raw-regen.json")
        points = raw["reps"][0]["points"]
        bad = [p["id"] for p in points if not p["ok"]]
        if bad:
            fail_env(f"refusing to pin failed points: {bad}")
        pinned[str(seed)] = {p["id"]: p["digest"] for p in points}
        write_refs(path, doc, pinned)


def regen_straight(binary, seeds):
    path = REFS_DIR / "sampled-gmc.straight.json"
    pinned = json.loads(path.read_text())["seeds"] if path.is_file() else {}
    doc = {
        "what": "straight-through (fully detailed) IPC of every sampled-gmc "
                "point: GMC, 1M cycles, no warm-up exclusion",
        "regenerate": "python3 perfbench/run.py --regen-straight --seeds "
                      "<list>",
    }
    for seed in seeds:
        log(f"perfbench: straight-through GMC IPCs, seed {seed}")
        pinned[str(seed)] = latbench(binary, ["straight", "--seed", seed,
                                              "--jobs", 4],
                                     OUT_DIR / "raw-straight.json")
        write_refs(path, doc, pinned)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=FIG8_GOLDEN_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--filter", default="",
                    help="only points whose id contains this (tests)")
    ap.add_argument("--refs-dir", default=str(REFS_DIR),
                    help="pinned references to check against (tests)")
    ap.add_argument("--regen-refs", action="store_true")
    ap.add_argument("--regen-straight", action="store_true")
    ap.add_argument("--seeds", default="1")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    if not FIG8_GOLDEN.is_file():
        fail_env(f"pinned golden {FIG8_GOLDEN} not found; run from a latdiv "
                 "checkout")
    binary = build()
    if args.regen_refs or args.regen_straight:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        if args.regen_straight:
            regen_straight(binary, parse_seeds(args.seeds))
        if args.regen_refs:
            for w in [args.workload] if args.workload else WORKLOADS:
                regen_refs(binary, w, parse_seeds(args.seeds))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    mode = trace_mode if args.trace else run_mode
    return emit(args, *mode(binary, args))


if __name__ == "__main__":
    sys.exit(main())
