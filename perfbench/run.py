"""Benchmark of diophiq on four workloads taken from the paper's computations.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the program is imported from
`src/`.  Every pass of a workload runs in a fresh interpreter
(perfbench/child.py), so set-up time includes interpreter start, import
and input generation.

--trace 0 repeats the workload's set-up and timed passes (at least twice,
and until S seconds have passed) and reports the end-to-end metrics:
wall_s (median time to the checked result, scaled to a reference host
speed, see measure), setup_s (median set-up) and peak_rss_mb (median
peak).  One-process workloads run their passes two at a time, one per vCPU.

--trace 1 runs the workload once untraced and once with perfbench/tracer.py
hooks installed, and reports the per-layer metrics.  Pool workers keep
their spans to themselves, so for sweep3-warm the worker-side layers come
from a one-worker traced run and the set-up layers (pair graph, cliques,
cache stores) from a traced one-worker cache fill.

--smoke runs every workload on reduced inputs, untraced and traced, and
checks that each output check passes and that a corrupted reference makes
it fail.  It reports no timings.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it record the machine, the
inputs and the per-repeat values.  Exit code 2 means the checkout has no
program to measure; 1 means a pass crashed or ran out of time.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

MIN_REPEATS = 2  # repeats per run; more while --seconds have not passed
WARM_PASSES = 3  # timed passes per filled cache on sweep3-warm
RUN_LIMIT_S = 170.0  # a run must end within 180 s
TAIL_LADDER = (50, 90, 95, 99, 99.5, 99.9, 99.95, 99.99)
REF_KERNEL_NS = 40_000  # host-speed kernel time that wall_s is scaled to


class BenchError(Exception):
    pass


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# passes in fresh interpreters
# ---------------------------------------------------------------------------


class Runner:
    def __init__(self, tmp: Path, deadline: float) -> None:
        self.tmp = tmp
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k not in ("DIOPH_CACHE_DIR", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(SRC)
        self.env["TMPDIR"] = str(tmp)

    def child(self, workload: str, seed: int, scale: str, cache_dir: Path | None = None,
              threads: int | None = None, trace: bool = False, copies: int = 1) -> list[dict]:
        """Run `copies` identical passes side by side, one interpreter each; their records."""
        cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed),
               "--scale", scale]
        if cache_dir is not None:
            cmd += ["--cache-dir", str(cache_dir)]
        if threads is not None:
            cmd += ["--threads", str(threads)]
        if trace:
            cmd.append("--trace")
        procs = []
        try:
            for _ in range(copies):
                procs.append((monotonic(), subprocess.Popen(
                    cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env, cwd=ROOT,
                    start_new_session=True, text=True)))
            return [self._finish(workload, start, proc) for start, proc in procs]
        finally:
            for _, proc in procs:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)  # stragglers, and pool workers left behind
                except ProcessLookupError:
                    pass
                proc.communicate()

    def _finish(self, workload: str, start: float, proc: subprocess.Popen) -> dict:
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} pass exceeded the run's time limit") from None
        end = monotonic()
        if proc.returncode != 0:
            raise BenchError(f"{workload} pass exited {proc.returncode}: {err.strip()[-2000:]}")
        record = json.loads(out.strip().splitlines()[-1])
        record["setup_s"] = record["ready_clock"] - start
        record["elapsed_s"] = end - start
        return record

    def fresh_cache(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.tmp, prefix="cache-"))


def cache_state(cache: Path) -> dict:
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns, p.stat().st_size) for p in cache.iterdir()}


def repeat(runner: Runner, workload: str, seed: int, scale: str) -> tuple[list[float], list[dict]]:
    """Set-ups and the untraced passes that follow them: (setup_s values, pass records).

    A one-process workload runs two passes side by side, one per vCPU.  For
    sweep3-warm, whose pool takes both vCPUs, the set-up fills a fresh cache
    with the same command and WARM_PASSES timed passes read it one after
    another; the cache must come out of each pass untouched.
    """
    if workload != "sweep3-warm":
        records = runner.child(workload, seed, scale, copies=2)
        return [r["setup_s"] for r in records], records
    cache = runner.fresh_cache()
    try:
        fill, = runner.child(workload, seed, scale, cache_dir=cache)
        records = []
        for _ in range(WARM_PASSES):
            before = cache_state(cache)
            rec, = runner.child(workload, seed, scale, cache_dir=cache)
            rec["attempted"] += 1
            if cache_state(cache) != before:
                rec["failures"].append("the warm pass rewrote the cache: a cache miss")
            records.append(rec)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return [fill["elapsed_s"] + records[0]["setup_s"]], records


# ---------------------------------------------------------------------------
# per-layer metrics from traced passes
# ---------------------------------------------------------------------------

BUCKETS = (16, 64, 256, 1024)
NAMED_RINGS = (-1, -2, -3, -7)


def _ns(s: dict, span: str) -> float:
    return s["total_ns"].get(span, 0) / 1e9


def _count(s: dict, key: str) -> int:
    return s["counts"].get(key, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _bucket_s(s: dict, lo: int, hi: int) -> float:
    return sum(ns for d, ns in s["pair_graph_ns_by_ring"].items() if lo < -int(d) <= hi) / 1e9


def _ring_s(s: dict, d: int) -> float:
    return s["pair_graph_ns_by_ring"].get(str(d), 0) / 1e9


def _rank(n: int, p: float) -> int:
    """Nearest-rank position (1-based) of the p-th percentile among n samples."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(samples: list[float], p: float) -> float:
    return sorted(samples)[_rank(len(samples), p) - 1] if samples else 0.0


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest ladder percentile with >= 10 samples beyond it."""
    n = len(samples)
    best = max((p for p in TAIL_LADDER if n - _rank(n, p) >= 10), default=50)
    return best, percentile(samples, best)


# name -> (unit, source pass, hooks it needs, value from that pass's summary)
# Sources: "parent" is the traced pass in the workload's own configuration,
# "worker" the one whose workers run in-process, "fill" the one that does
# the pair-graph and cache-store work.  They differ only on sweep3-warm.
LAYER_METRICS = {
    "ring.disk_points": ("count", "fill", ["disk"], lambda s: s["disk_points"]),
    "ring.enum_s": ("s", "fill", ["disk"], lambda s: s["enum_ns"] / 1e9),
    "ring.sqrt_calls": ("count", "worker", ["sqrt_in_ring"], lambda s: s["calls"].get("ring.sqrt", 0)),
    "ring.sqrt_s": ("s", "worker", ["sqrt_in_ring"], lambda s: _ns(s, "ring.sqrt")),
    "ring.sqrt_hit_ratio": ("ratio", "worker", ["sqrt_in_ring"],
                            lambda s: _ratio(_count(s, "sqrt_hits"), s["calls"].get("ring.sqrt", 0))),
    "ring.norm_solve_calls": ("count", "worker", ["norm_solve"], lambda s: _count(s, "norm_solve_calls")),
    "search.pair_graph_s": ("s", "fill", ["pair_graph"], lambda s: _ns(s, "search.pair_graph")),
    "search.pairs_tested": ("count", "fill", ["pair_graph"], lambda s: _count(s, "pairs_tested")),
    "search.norm_filter_hits": ("count", "fill", ["is_square"],
                                lambda s: s["calls"].get("search.square_test", 0)),
    "search.edges": ("count", "fill", ["pair_graph"], lambda s: _count(s, "edges")),
    "search.square_hit_ratio": ("ratio", "fill", ["pair_graph", "is_square"],
                                lambda s: _ratio(_count(s, "edges"), s["calls"].get("search.square_test", 0))),
    "search.square_test_s": ("s", "fill", ["is_square"], lambda s: _ns(s, "search.square_test")),
    **{
        f"search.pair_graph_s.absd_le{hi}": ("s", "fill", ["pair_graph"], lambda s, lo=lo, hi=hi: _bucket_s(s, lo, hi))
        for lo, hi in zip((0,) + BUCKETS, BUCKETS)
    },
    **{
        f"search.pair_graph_s.d_m{-d}": ("s", "fill", ["pair_graph"], lambda s, d=d: _ring_s(s, d))
        for d in NAMED_RINGS
    },
    "search.clique_s": ("s", "fill", ["cliques"], lambda s: _ns(s, "search.clique")),
    "search.clique_nodes": ("count", "fill", ["cliques"], lambda s: _count(s, "clique_nodes")),
    "search.cliques_found": ("count", "fill", ["cliques"], lambda s: _count(s, "cliques_found")),
    "search.cache_load_s": ("s", "worker", ["cache_load"], lambda s: _ns(s, "search.cache_load")),
    "search.cache_store_s": ("s", "fill", ["cache_store"], lambda s: _ns(s, "search.cache_store")),
    "search.cache_hits": ("count", "worker", ["cache_load"], lambda s: _count(s, "cache_hits")),
    "search.cache_misses": ("count", "worker", ["cache_load"], lambda s: _count(s, "cache_misses")),
    "search.cache_bytes": ("bytes", "fill", [], lambda s: s.get("cache_bytes", 0)),
    "search.ring_s_p50": ("s", "worker", ["find_m_tuples"],
                          lambda s: statistics.median(s["kept_ns"].get("search.ring", [0])) / 1e9),
    "search.ring_s_max": ("s", "worker", ["find_m_tuples"],
                          lambda s: max(s["kept_ns"].get("search.ring", [0])) / 1e9),
    "search.rational_pass_s": ("s", "parent", ["rational_pass"], lambda s: _ns(s, "search.rational_pass")),
    "search.parent_decode_s": ("s", "parent", ["from_json"], lambda s: _ns(s, "search.parent_decode")),
    "search.pool_s": ("s", "parent", ["pool"], lambda s: _ns(s, "search.pool")),
    "search.extend_s": ("s", "worker", ["extend"], lambda s: _ns(s, "search.extend")),
    "search.extend_verify_calls": ("count", "worker", ["extend", "sqrt_in_ring"],
                                   lambda s: _count(s, "extend_verify_calls")),
    "search.extensions_found": ("count", "worker", ["extend"], lambda s: _count(s, "extensions_found")),
    "tuples.make_tuple_calls": ("count", "worker", ["make_tuple"],
                                lambda s: s["calls"].get("tuples.make_tuple", 0)),
    "tuples.make_tuple_s": ("s", "worker", ["make_tuple"], lambda s: _ns(s, "tuples.make_tuple")),
    "tuples.pairs_verified": ("count", "worker", ["make_tuple"], lambda s: _count(s, "pairs_verified")),
    "gap.gap_principle_calls": ("count", "worker", ["gap_principle"],
                                lambda s: s["calls"].get("gap.gap_principle", 0)),
    "gap.gap_principle_s": ("s", "worker", ["gap_principle"], lambda s: _ns(s, "gap.gap_principle")),
    "gap.jz_s": ("s", "worker", ["jz"], lambda s: _ns(s, "gap.jz")),
    "gap.chain_s": ("s", "worker", ["chain"], lambda s: _ns(s, "gap.chain")),
    "exactreal.compare_calls": ("count", "worker", ["compare"],
                                lambda s: s["calls"].get("exactreal.compare", 0)),
    "exactreal.compare_s": ("s", "worker", ["compare"], lambda s: _ns(s, "exactreal.compare")),
    "exactreal.eval_calls": ("count", "worker", ["eval"], lambda s: _count(s, "eval_calls")),
    "exactreal.escalations": ("count", "worker", ["compare", "eval"], lambda s: _count(s, "escalations")),
    "exactreal.max_prec_bits": ("bits", "worker", ["eval"], lambda s: _count(s, "max_prec_bits")),
    "cli.report_s": ("s", "parent", ["emit"], lambda s: _ns(s, "cli.report")),
    "cli.report_bytes": ("bytes", "parent", ["emit"], lambda s: _count(s, "report_bytes")),
    "trace.wall_s": ("s", "parent", [], lambda s: s["wall_s"]),
    "trace.overhead_s": ("s", "parent", [], lambda s: s["wall_s"] - s["untraced_wall_s"]),
    "trace.coverage": ("ratio", "parent", [], lambda s: _ratio(s["top_ns"] / 1e9, s["wall_s"])),
    "gap.op_p50_ms": ("ms", "parent", [], lambda s: percentile(s["untraced_op_ms"], 50)),
    "gap.op_tail_ms": ("ms", "parent", [], lambda s: tail(s["untraced_op_ms"])[1]),
}


def layer_metrics(sources: dict[str, dict]) -> tuple[dict, dict]:
    metrics, absent = {}, {}
    for name, (unit, source, hooks, fn) in LAYER_METRICS.items():
        s = sources[source]
        missing = [s["missing"][h] for h in hooks if h in s["missing"]]
        if missing:
            absent[name] = "; ".join(missing)
        else:
            metrics[name] = {"value": fn(s), "unit": unit}
    return metrics, absent


def traced(runner: Runner, workload: str, seed: int, scale: str, log) -> tuple[dict, list[dict]]:
    """Per-layer metrics and the pass records they came from."""
    if workload != "sweep3-warm":
        plain, = runner.child(workload, seed, scale)
        rec, = runner.child(workload, seed, scale, trace=True)
        s = rec["trace"]
        s.update(wall_s=rec["wall_s"], untraced_wall_s=plain["wall_s"], untraced_op_ms=plain["op_ms"])
        return layer_metrics({"parent": s, "worker": s, "fill": s}), [plain, rec]
    cache = runner.fresh_cache()
    try:
        fill, = runner.child(workload, seed, scale, cache_dir=cache, threads=1, trace=True)
        fill["trace"]["cache_bytes"] = sum(p.stat().st_size for p in cache.iterdir())
        worker, = runner.child(workload, seed, scale, cache_dir=cache, threads=1, trace=True)
        plain, = runner.child(workload, seed, scale, cache_dir=cache)
        parent, = runner.child(workload, seed, scale, cache_dir=cache, trace=True)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    misses = _count(worker["trace"], "cache_misses")
    worker["attempted"] += 1
    if misses:
        worker["failures"].append(f"{misses} cache misses in the one-worker traced warm pass")
    s = parent["trace"]
    s.update(wall_s=parent["wall_s"], untraced_wall_s=plain["wall_s"], untraced_op_ms=[])
    log({"note": "sweep3-warm: spans recorded in pool workers never reach the parent, so worker-side "
                 "layers come from a one-worker traced warm pass, pair-graph, clique and cache-store "
                 "layers from a one-worker traced cache fill, and parent-side layers from the "
                 "two-worker traced pass"})
    sources = {"parent": s, "worker": worker["trace"], "fill": fill["trace"]}
    return layer_metrics(sources), [fill, worker, plain, parent]


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine() -> dict:
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    try:
        mpmath_version = metadata.version("mpmath")
    except metadata.PackageNotFoundError:
        mpmath_version = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "mpmath": mpmath_version,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "pool_start_method": multiprocessing.get_start_method(),
        "loadavg_at_start": loadavg,
    }


def summarize_checks(records: list[dict]) -> tuple[int, list[str]]:
    attempted = sum(r["attempted"] for r in records)
    failures = [f for r in records for f in r["failures"]]
    return attempted, failures


def measure(runner: Runner, workload: str, seed: int, seconds: float, log) -> tuple[dict, list[dict]]:
    """End-to-end metrics over repeated set-ups and passes.

    On a shared 2-vCPU VM (Intel Xeon, 2.0 GHz) each vCPU's speed swings by
    up to 45% for seconds to minutes at a time, so a raw time says more about
    the host than about the program.  wall_s therefore scales each command's
    time to a reference host speed: raw seconds * REF_KERNEL_NS / the median
    time of a fixed interpreter kernel sampled on the same vCPU during that
    command (child.HostSpeed).  wall_s sums, over the workload's commands,
    the median scaled time over all passes.  setup_s is the median set-up
    and peak_rss_mb the median peak.  Raw times are logged with the rest.
    """
    setups: list[float] = []
    records: list[dict] = []
    start = monotonic()
    repeats, last = 0, 0.0
    while repeats < MIN_REPEATS or monotonic() - start + last / 2 < seconds:
        began = monotonic()
        if repeats and began + 1.5 * last > runner.deadline:
            break  # another repeat would not end in time
        repeats += 1
        more_setups, more_records = repeat(runner, workload, seed, "full")
        last = monotonic() - began
        setups += more_setups
        records += more_records
    scaled = [[t * REF_KERNEL_NS / k for t, k in zip(r["command_s"], r["kernel_ns"])] for r in records]
    log({"setup_s": setups, "raw_wall_s": [r["wall_s"] for r in records],
         "kernel_ns": [r["kernel_ns"] for r in records], "scaled_wall_s": [sum(x) for x in scaled],
         "peak_rss_mb": [r["peak_rss_mb"] for r in records]})
    ops = [x for r in records for x in r["op_ms"]]
    if ops:
        p, value = tail(ops)
        log({"op_latency": {"p50_ms": percentile(ops, 50), "tail_ms": value, "tail_percentile": p,
                            "samples": len(ops)}})
    metrics = {
        "wall_s": {"value": sum(map(statistics.median, zip(*scaled))), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in records), "unit": "MB"},
    }
    return metrics, records


def smoke(runner: Runner, seed: int, log) -> int:
    bad = []
    for workload in workloads.WORKLOADS:
        _, records = repeat(runner, workload, seed, "smoke")
        (metrics, absent), passes = traced(runner, workload, seed, "smoke", log)
        records += passes
        attempted, failures = summarize_checks(records)
        undetected = [r for r in records if r["corrupt_detected"] is False]
        log({"workload": workload, "attempted": attempted, "failures": failures[:5],
             "corrupted_reference_detected": not undetected, "layer_metrics": len(metrics),
             "absent": absent})
        if failures or undetected or len(metrics) + len(absent) != len(LAYER_METRICS):
            bad.append(workload)
    log({"smoke": "ok" if not bad else f"failed: {bad}"})
    return 1 if bad else 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced inputs, checks only, no timings")
    args = p.parse_args()
    if not args.smoke and args.workload is None:
        p.error("--workload is required unless --smoke is given")
    if not (SRC / "diophiq" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'diophiq'} is missing", file=sys.stderr)
        return 2

    def log(obj: dict) -> None:
        print(json.dumps(obj), flush=True)

    start = monotonic()
    log({"machine": machine()})
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch, prefix="run-"))
    runner = Runner(tmp, start + RUN_LIMIT_S)
    try:
        if args.smoke:
            return smoke(runner, args.seed, log)
        why = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
        log({"workload": args.workload, "seed": args.seed, "why": why.get(args.workload),
             "scale": workloads.SCALES["full"], "trace": args.trace})
        if args.trace:
            (metrics, absent), records = traced(runner, args.workload, args.seed, "full", log)
            if absent:
                log({"absent": absent})
        else:
            metrics, records = measure(runner, args.workload, args.seed, args.seconds, log)
        attempted, failures = summarize_checks(records)
        log({"fail_ratio": len(failures) / attempted, "failures": failures[:10]})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    log({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics})
    return 0


if __name__ == "__main__":
    sys.exit(main())
