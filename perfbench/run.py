#!/usr/bin/env python3
"""The repository benchmark: slot latency, viewer-slot throughput and
schedule quality of the emulator and the fleet engine.

    python3 perfbench/run.py --workload metro_swarm --seed 7 --seconds 40 --trace 0

Run from the root of a checkout. Builds perfbench_driver (Release) from the
checkout's sources, runs it on one workload, checks that every horizon of the
run produced the same schedules, and prints the metrics. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
of a traced run with --trace 1. Earlier lines give each metric with its unit,
the tail percentile and sample count, and the host and build record. Every
result is also written to .bench_out/ with the full detail, and a traced
run writes one Chrome trace there with a lane per swarm.

Exit codes: 0 for a correct run; 1 when the schedules diverge, the build is
a Debug or sanitizer build, the build fails or the checkout has no sources
(nothing is printed on stdout then, except for divergence); 2 for bad
arguments.

perfbench/METRICS.md documents every metric and workload.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOADS = ("metro_swarm", "flash_coupled")
DRIVER_TIMEOUT_S = 160
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo", "MinSizeRel")

# name -> unit, in report order.
END_TO_END = {
    "slot_p50_ms": "ms",
    "slot_tail_ms": "ms",
    "viewer_slots_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "welfare": "utility",
    "miss_rate": "ratio",
    "inter_isp_pct": "%",
}

PER_LAYER = {
    "vod.build_s": "s",
    "vod.neighbor_refresh_s": "s",
    "vod.apply_s": "s",
    "vod.playback_s": "s",
    "vod.population_s": "s",
    "vod.shed_s": "s",
    "vod.tracker_inversions": "count",
    "vod.delta_reuse_ratio": "ratio",
    "core.solve_s": "s",
    "core.solves": "count",
    "core.bids": "count",
    "core.bids_per_request": "ratio",
    "core.eps_phases": "count",
    "core.pivots": "count",
    "net.cost_cache_hits": "count",
    "net.cost_cache_misses": "count",
    "net.cost_cache_hit_ratio": "ratio",
    "engine.parallel_s": "s",
    "engine.shard_busy_s": "s",
    "engine.straggler_s": "s",
    "engine.worker_idle_s": "s",
    "engine.utilization": "ratio",
    "engine.imbalance": "ratio",
    "engine.work_inflation": "ratio",
    "capacity.hook_s": "s",
    "capacity.admitted": "count",
    "capacity.deferred": "count",
    "capacity.abandoned": "count",
    "capacity.saturated_pairs_peak": "count",
    "abandon_rate": "ratio",
    "isp.transit_bytes": "B",
    "isp.peer_bytes": "B",
    "isp.sibling_bytes": "B",
    "isp.price_epochs": "count",
    "transit_cost": "cost",
    "mem.footprint_bytes_per_viewer": "B",
    "mem.rss_post_construct_mb": "MiB",
    "mem.sys_cpu_s": "s",
    "mem.minor_faults": "count",
    "obs.tracing_overhead_pct": "%",
    "obs.tracing_noise_pct": "%",
}


class BenchError(Exception):
    """A run that must end without a result."""


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and host record
# ---------------------------------------------------------------------------

def build_driver(root):
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        raise BenchError("no p2pcd sources at %s; run from the root of a checkout" % root)
    # CARGO_TARGET_DIR, when set, names the build directory to use.
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench_driver",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise BenchError("build step failed: " + " ".join(cmd))
    return build_dir / "perfbench_driver"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_identity(root):
    """The git commit when the checkout is a repository, plus a digest of the
    sources the driver is built from (a checkout need not be one)."""
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    digest = hashlib.sha256()
    files = [root / "CMakeLists.txt"]
    for top in (root / "src", HERE):
        files += [p for p in top.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    for path in sorted(files):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return commit, digest.hexdigest()


def host_record(root, build):
    commit, digest = source_identity(root)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "hardware_concurrency": build["hardware_concurrency"],
        "cpu_model": cpu_model(),
        "compiler": build["compiler"],
        "build_type": build["build_type"],
        "cxx_flags": build["cxx_flags"].strip(),
        "commit": commit,
        "source_sha256": digest,
    }


def refuse_unoptimized(build):
    if (build["build_type"] not in OPTIMIZED_BUILD_TYPES or not build["ndebug"]
            or build["sanitize"] or build["sanitizer_runtime"]):
        raise BenchError(
            "refusing to measure a %s build (NDEBUG %s, sanitizers '%s'); "
            "configure the build directory with -DCMAKE_BUILD_TYPE=Release"
            % (build["build_type"], build["ndebug"], build["sanitize"]))


def build_info(driver):
    done = subprocess.run([str(driver), "--build-info"], stdout=subprocess.PIPE,
                          text=True)
    if done.returncode != 0:
        raise BenchError("driver --build-info exited with code %d" % done.returncode)
    return json.loads(done.stdout)


def run_driver(driver, args, trace_dir):
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError("driver exited with code %d" % done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def check(record):
    """Compares every horizon's per-slot hashes with the first complete
    untraced horizon (the reference) on their common prefix, sanity-checks
    the reference's behaviour aggregates and, at the golden seed, its run
    hash. Returns (attempted, failed, notes, golden_ok, reference)."""
    horizons = record["horizons"]
    reference = next(h for h in horizons if h["mode"] == "untraced" and h["complete"])
    attempted = sum(len(h["slot_hash"]) for h in horizons)
    failed = 0
    notes = []
    for i, h in enumerate(horizons):
        if h is reference or not h["slot_hash"]:
            continue
        bad = sum(1 for a, b in zip(reference["slot_hash"], h["slot_hash"]) if a != b)
        if bad:
            notes.append("horizon %d (%s, %d workers) diverges on %d of %d slots"
                         % (i, h["mode"], h["threads"], bad, len(h["slot_hash"])))
        failed += bad
    behaviour = {
        "welfare": reference["welfare"] > 0,
        "miss_rate": 0 <= reference["miss_rate"] <= 1,
        "inter_isp_fraction": 0 <= reference["inter_isp_fraction"] <= 1,
    }
    for name, ok in behaviour.items():
        if not ok:
            notes.append("implausible %s: %r" % (name, reference[name]))
            failed += 1
    golden = record["golden_metrics"]
    golden_ok = None
    if golden is not None:
        golden_ok = reference["run_hash"] == golden
        if not golden_ok:
            notes.append("run hash %s differs from the metro_5k golden %s"
                         % (reference["run_hash"], golden))
            failed += 1
    return attempted, failed, notes, golden_ok, reference


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(record, reference):
    full = [h for h in record["horizons"] if h["mode"] == "untraced" and h["complete"]]
    steps = [s for h in full for s in h["step_s"]]
    online = sum(v for h in full for v in h["online"])
    tail_s, tail_pct, n = stats.tail(steps)
    metrics = {
        "slot_p50_ms": stats.median(steps) * 1e3,
        "slot_tail_ms": tail_s * 1e3,
        "viewer_slots_per_s": stats.safe_ratio(online, sum(steps)),
        "setup_s": stats.median([s for h in full for s in h["setup_samples"]]),
        "peak_rss_mb": record["peak_rss_mb"],
        "welfare": reference["welfare"],
        "miss_rate": reference["miss_rate"],
        "inter_isp_pct": reference["inter_isp_fraction"] * 100.0,
    }
    detail = {
        "slot_tail_percentile": tail_pct,
        "slot_samples": n,
        "setup_samples": sum(len(h["setup_samples"]) for h in full),
        "horizons": len(full),
    }
    return metrics, detail


def per_layer(record):
    horizons = record["horizons"]
    traced = next(h for h in horizons if h["mode"] == "traced")
    untraced = next(h for h in horizons if h["mode"] == "untraced")
    one_worker = next((h for h in horizons if h["mode"] == "one_worker"), None)
    hook = next((h for h in horizons if h["mode"] == "hook"), None)
    layers = traced["layers"]

    def counter(name):
        return layers["counter." + name]

    busy_rows = traced["shard_busy_s"]
    busy = sum(sum(row) for row in busy_rows)
    straggler = sum(max(row) for row in busy_rows)
    mean_busy = sum(sum(row) / len(row) for row in busy_rows)
    parallel = sum(traced["parallel_s"])
    workers = traced["threads"]
    if one_worker is None:
        inflation = 1.0  # the traced run is itself the 1-worker run
    else:
        k = len(one_worker["shard_busy_s"])
        inflation = stats.safe_ratio(sum(sum(r) for r in busy_rows[:k]),
                                     sum(sum(r) for r in one_worker["shard_busy_s"]))
    # Horizon j of each mode came from the same pair: slot k is the same work.
    pairs = zip([h for h in horizons if h["mode"] == "traced"],
                [h for h in horizons if h["mode"] == "untraced"])
    ratios = [stats.safe_ratio(t, u)
              for traced_h, untraced_h in pairs
              for t, u in zip(traced_h["step_s"], untraced_h["step_s"])]
    _, ratio_median, _ = stats.quartiles(ratios)
    hits, misses = counter("cost.cache_hits"), counter("cost.cache_misses")
    dirty, reused = counter("delta.dirty_rows"), counter("delta.reused_rows")
    arrivals = traced["admitted"] + traced["abandoned"] + traced["queued"]
    return {
        "vod.build_s": layers["vod.build_s"],
        "vod.neighbor_refresh_s": layers["vod.neighbor_refresh_s"],
        "vod.apply_s": layers["vod.apply_s"],
        "vod.playback_s": layers["vod.playback_s"],
        "vod.population_s": layers["vod.population_s"],
        "vod.shed_s": layers["vod.shed_s"],
        "vod.tracker_inversions": counter("tracker.inversions"),
        "vod.delta_reuse_ratio": stats.safe_ratio(reused, reused + dirty),
        "core.solve_s": layers["core.solve_s"],
        "core.solves": counter("solver.rounds"),
        "core.bids": counter("solver.bids"),
        "core.bids_per_request": stats.safe_ratio(counter("solver.bids"),
                                                  sum(traced["requests"])),
        "core.eps_phases": counter("solver.phases"),
        "core.pivots": counter("solver.pivots"),
        "net.cost_cache_hits": hits,
        "net.cost_cache_misses": misses,
        "net.cost_cache_hit_ratio": stats.safe_ratio(hits, hits + misses),
        "engine.parallel_s": parallel,
        "engine.shard_busy_s": busy,
        "engine.straggler_s": straggler,
        "engine.worker_idle_s": workers * parallel - busy,
        "engine.utilization": stats.safe_ratio(busy, workers * parallel),
        "engine.imbalance": stats.safe_ratio(straggler, mean_busy),
        "engine.work_inflation": inflation,
        # Slot 0 of the hook horizon also emits the telemetry header and record.
        "capacity.hook_s": sum(hook["hook_s"][1:]) if hook else 0.0,
        "capacity.admitted": counter("admission.admitted"),
        "capacity.deferred": counter("admission.deferred"),
        "capacity.abandoned": counter("admission.abandoned"),
        "capacity.saturated_pairs_peak": traced["saturated_pairs_peak"],
        "abandon_rate": stats.safe_ratio(traced["abandoned"], arrivals),
        "isp.transit_bytes": counter("ledger.bytes_transit"),
        "isp.peer_bytes": counter("ledger.bytes_peer"),
        "isp.sibling_bytes": counter("ledger.bytes_sibling"),
        "isp.price_epochs": layers["isp.price_epochs"],
        "transit_cost": traced["transit_cost"],
        "mem.footprint_bytes_per_viewer": stats.safe_ratio(
            layers["mem.footprint_bytes"], layers["mem.online_viewers_end"]),
        "mem.rss_post_construct_mb": untraced["rss_post_construct_mb"],
        "mem.sys_cpu_s": untraced["sys_cpu_s"],
        "mem.minor_faults": untraced["minor_faults"],
        "obs.tracing_overhead_pct": (ratio_median - 1.0) * 100.0,
        "obs.tracing_noise_pct": stats.relative_iqr(ratios) * 100.0,
    }


def merge_traces(trace_dir, out_path):
    """One Chrome trace with a process lane (pid = swarm index) per shard."""
    events = []
    for path in sorted(trace_dir.glob("shard_*.json"),
                       key=lambda p: int(p.stem.split("_")[1])):
        swarm = int(path.stem.split("_")[1])
        events.append({"name": "process_name", "ph": "M", "pid": swarm, "tid": swarm,
                       "args": {"name": "swarm %d" % swarm}})
        events.extend(json.loads(path.read_text())["traceEvents"])
    out_path.write_text(json.dumps({"traceEvents": events}))
    shutil.rmtree(trace_dir)
    return len(events)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv):
    args = parse_args(argv)
    root = Path.cwd()
    out_dir = root / ".bench_out"
    try:
        driver = build_driver(root)
        build = build_info(driver)
        refuse_unoptimized(build)
        load_before = os.getloadavg()
        out_dir.mkdir(exist_ok=True)
        trace_dir = None
        if args.trace:
            trace_dir = out_dir / ("lanes-%s-%d" % (args.workload, args.seed))
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir()
        started = time.monotonic()
        record = run_driver(driver, args, trace_dir)
    except BenchError as e:
        log(str(e))
        return 1
    host = host_record(root, build)
    host["loadavg_before"] = list(load_before)
    host["loadavg_after"] = list(os.getloadavg())

    attempted, failed, notes, golden_ok, reference = check(record)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "driver_wall_s": time.monotonic() - started,
              "run_hash": reference["run_hash"], "golden_ok": golden_ok,
              "divergences": notes, "host": host}
    if args.trace:
        values, units = per_layer(record), PER_LAYER
        trace_path = out_dir / ("%s-seed%d.trace.json" % (args.workload, args.seed))
        detail["trace_events"] = merge_traces(trace_dir, trace_path)
        detail["chrome_trace"] = str(trace_path.relative_to(root))
    else:
        values, e2e_detail = end_to_end(record, reference)
        units = END_TO_END
        detail.update(e2e_detail)

    metrics = {name: {"value": stats.finite(float(values[name])), "unit": unit}
               for name, unit in units.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    for name, m in metrics.items():
        line = "%-32s %18.6f %s" % (name, m["value"], m["unit"])
        if name == "slot_tail_ms":
            line += "  (p%.1f of %d slots)" % (detail["slot_tail_percentile"],
                                              detail["slot_samples"])
        print(line)
    for note in notes:
        log("DIVERGENCE: " + note)
    print(json.dumps(detail))
    (out_dir / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
     ).write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
