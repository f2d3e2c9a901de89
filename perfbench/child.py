"""One pass of one workload in a fresh interpreter.

    python3 perfbench/child.py --workload W --seed N --scale full|smoke
        [--cache-dir DIR] [--threads T] [--trace]

Imports diophiq, generates the inputs, then runs the workload's timed
region: the CLI commands through `diophiq.cli.main` with stdout captured,
or the certify loop through the library.  Checks run after the timed
region, and one JSON object goes to stdout:

    ready_clock  CLOCK_MONOTONIC seconds when set-up ended (for the parent)
    wall_s       timed region
    command_s    timed region per CLI command (the whole region for certify)
    kernel_ns    host-speed kernel time sampled during each of them (HostSpeed)
    peak_rss_mb  max of own and largest child's peak RSS after the region
    op_ms        per-call latencies (certify only)
    attempted, failures   output checks
    corrupt_detected   (smoke scale) whether a corrupted reference fails
    trace        Tracer.summary() when --trace is given
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import json
import resource
import signal
import statistics
import sys
import time
from math import isqrt

import workloads

SAMPLE_INTERVAL_S = 0.02


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _speed_kernel() -> int:
    """A fixed slice of interpreter work of the program's kind: integer and
    isqrt arithmetic, tuples and a dict."""
    seen = {}
    for i in range(60):
        n = i * i * 7 + 3
        r = isqrt(n)
        seen[(i, r)] = r * r == n
    return len(seen)


class HostSpeed:
    """Samples how fast this process's vCPU runs while the block executes.

    On SIGALRM every SAMPLE_INTERVAL_S the handler times one _speed_kernel
    call in the main thread, between the program's own bytecodes, so the
    samples see the same vCPU speed as the program.  kernel_ns is their
    median.  Pool workers do not inherit the timer.
    """

    def __enter__(self) -> HostSpeed:
        self.samples: list[int] = []
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        while len(self.samples) < 5:  # blocks shorter than a few intervals
            self._sample()

    def _sample(self, *_) -> None:
        start = time.perf_counter_ns()
        _speed_kernel()
        self.samples.append(time.perf_counter_ns() - start)

    @property
    def kernel_ns(self) -> float:
        return statistics.median(self.samples)


def run_cli(commands: list[list[str]]) -> tuple[list[float], list[float], list[tuple[int, str]]]:
    """Run each CLI command in-process.

    Returns seconds per command, the host-speed kernel time (ns) sampled
    during each command, and (exit code, stdout) per command.
    """
    from diophiq.cli import main

    times, kernel_ns, outputs = [], [], []
    for argv in commands:
        buf = io.StringIO()
        with HostSpeed() as speed:
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                rc = main(argv)
            times.append(time.perf_counter() - start)
        kernel_ns.append(speed.kernel_ns)
        outputs.append((rc, buf.getvalue()))
    return times, kernel_ns, outputs


def run_certify(inputs) -> tuple[float, float, list[float], list, dict]:
    from diophiq.gap import chain_certificate, gap_principle
    from diophiq.ring import RingSpec

    specs = {d: RingSpec(d) for d in workloads.CERTIFY_RINGS}
    triples = [tuple(specs[d].elem(*z) for z in (a, b, c)) for d, a, b, c in inputs]
    clock = time.perf_counter
    op_ms, raw = [], []
    with HostSpeed() as speed:
        start = clock()
        for a, b, c in triples:
            t0 = clock()
            res = gap_principle(a, b, c)
            op_ms.append((clock() - t0) * 1000.0)
            raw.append(res)
        chains = {m: chain_certificate(m).contradiction_at for m in (42, 43)}
        wall = clock() - start
    results = [(*r.lambda_enclosure, r.bound_abs_sq) for r in raw]
    return wall, speed.kernel_ns, op_ms, results, chains


def _corrupt(ref: dict) -> dict:
    """The reference with one expected value changed, to prove the checks can fail."""
    bad = copy.deepcopy(ref)
    if "rational_by_ring" in bad:
        d = next(iter(bad["rational_by_ring"]))
        bad["rational_by_ring"][d] = "0" * 16
    elif "extensions" in bad:
        bad["extensions"] = bad["extensions"] + ["1,1"]
    elif "k_constant" in bad:
        bad["k_constant"] += 1
    else:
        bad["tuples"] += 1
    return bad


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", default="full", choices=sorted(workloads.SCALES))
    p.add_argument("--cache-dir")
    p.add_argument("--threads", type=int)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    import diophiq.cli  # noqa: F401  (set-up includes the import)

    ref = workloads.load_reference()[args.workload][args.scale]
    if args.workload == "certify":
        inputs = workloads.certify_inputs(args.seed, workloads.SCALES[args.scale]["certify_inputs"])
    else:
        commands = workloads.cli_commands(args.workload, args.scale, args.cache_dir, args.threads)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    op_ms: list[float] = []
    if args.workload == "certify":
        wall, speed_ns, op_ms, results, chains = run_certify(inputs)
        command_s, kernel_ns = [wall], [speed_ns]
    else:
        command_s, kernel_ns, outputs = run_cli(commands)
    rss = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()

    def check(reference):
        if args.workload == "certify":
            return workloads.check_certify(inputs, results, chains, reference)
        checker = {
            "sweep5-cold": workloads.check_sweep5,
            "sweep3-warm": workloads.check_sweep3,
            "extend-138": workloads.check_extend,
        }[args.workload]
        return checker(outputs, reference)

    attempted, failures = check(ref)
    corrupt_detected = bool(check(_corrupt(ref))[1]) if args.scale == "smoke" else None
    record = {
        "ready_clock": ready,
        "wall_s": sum(command_s),
        "command_s": command_s,
        "kernel_ns": kernel_ns,
        "peak_rss_mb": rss,
        "op_ms": op_ms,
        "attempted": attempted,
        "failures": failures,
        "corrupt_detected": corrupt_detected,
    }
    if tracer is not None:
        record["trace"] = tracer.summary()
    if args.workload != "certify":
        record["report_chars"] = sum(len(out) for _, out in outputs)
    json.dump(record, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
