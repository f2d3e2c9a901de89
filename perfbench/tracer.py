"""Spans and counters recorded from outside the program.

The tracer wraps module-level functions (and two class attributes) of
`diophiq` at the layer boundaries listed in HOOKS.  A wrapped name is
replaced in every `diophiq` module that imported it, so calls made through
`from .ring import sqrt_in_ring` are seen too.  Spans are aggregated in
memory as they close: total time and call count per span name, the time
covered by top-level spans, plus the individual durations of the spans listed in
KEEP.  A hook whose target no longer exists, or whose result no longer
has the shape its counters read, is recorded as missing with a reason, and
the metrics that need it are reported absent.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# hook id -> (module, attribute) it wraps
HOOKS = {
    "pair_graph": ("diophiq.search", "_pair_graph"),
    "is_square": ("diophiq.search", "_is_square"),
    "cliques": ("diophiq.search", "_cliques_of_size"),
    "find_m_tuples": ("diophiq.search", "find_m_tuples"),
    "cache_load": ("diophiq.search", "_cache_load"),
    "cache_store": ("diophiq.search", "_cache_store"),
    "rational_pass": ("diophiq.search", "rational_integer_pass"),
    "pool": ("diophiq.search", "ProcessPoolExecutor"),
    "extend": ("diophiq.search", "extend_tuple"),
    "from_json": ("diophiq.tuples", "DiophTuple.from_json_dict"),
    "make_tuple": ("diophiq.tuples", "make_tuple"),
    "sqrt_in_ring": ("diophiq.ring", "sqrt_in_ring"),
    "norm_solve": ("diophiq.ring", "elements_with_abs_sq"),
    "disk": ("diophiq.ring", "iter_disk_coords"),
    "gap_principle": ("diophiq.gap", "gap_principle"),
    "jz": ("diophiq.gap", "jz_quantities"),
    "chain": ("diophiq.gap", "chain_certificate"),
    "compare": ("diophiq.exactreal", "ExactReal.compare"),
    "eval": ("diophiq.exactreal", "ExactReal._eval"),
    "emit": ("diophiq.cli", "_emit"),
}

KEEP = {"search.ring"}  # span names whose individual durations are kept

PREC_START = 128  # exactreal starts every comparison at this precision


class Tracer:
    def __init__(self) -> None:
        self.total = defaultdict(int)  # span name -> ns
        self.calls = defaultdict(int)
        self.top_ns = 0  # ns covered by spans opened with an empty stack
        self.kept = defaultdict(list)
        self.counts = defaultdict(int)
        self.by_ring = defaultdict(int)  # pair-graph ns per ring d
        self.disks: list = []  # (spec, b_sq) of every disk enumerated
        self.missing: dict[str, str] = {}
        self.stack: list[tuple[str, int]] = []  # open spans: (name, start ns)
        self._restore: list = []
        self._compare_prec = 0

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> None:
        self.stack.append((name, time.perf_counter_ns()))

    def close(self) -> int:
        end = time.perf_counter_ns()
        name, start = self.stack.pop()
        dur = end - start
        self.total[name] += dur
        self.calls[name] += 1
        if name in KEEP:
            self.kept[name].append(dur)
        if not self.stack:
            self.top_ns += dur
        return dur

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def span(self, name: str, fn, after=None, hook: str | None = None):
        """fn wrapped in a span; after(result, ns, *args) reads the call's counts.

        If the hooked function changed shape so that `after` cannot read it,
        the hook is recorded as missing and the call's result passes through.
        """

        def wrapped(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self.close()
            if after is not None and hook not in self.missing:
                try:
                    after(result, dur, *args, **kwargs)
                except (TypeError, ValueError, AttributeError) as exc:
                    self.missing[hook] = f"{'.'.join(HOOKS[hook])} changed shape: {exc!r}"
            return result

        return wrapped

    # -- installing hooks -------------------------------------------------

    def install(self) -> None:
        for hook, (mod_name, attr) in HOOKS.items():
            module = importlib.import_module(mod_name)
            owner, _, name = attr.rpartition(".")
            target = getattr(module, owner) if owner else module
            original = target.__dict__.get(name) if owner else getattr(module, name, None)
            if original is None:
                self.missing[hook] = f"{mod_name}.{attr} no longer exists"
                continue
            if owner:
                fn = original.__func__ if isinstance(original, staticmethod) else original
                wrapped = getattr(self, "_wrap_" + hook)(fn)
                setattr(target, name, staticmethod(wrapped) if isinstance(original, staticmethod) else wrapped)
                self._restore.append((target, name, original))
                continue
            wrapped = getattr(self, "_wrap_" + hook)(original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("diophiq") and mod.__dict__.get(name) is original:
                    setattr(mod, name, wrapped)
                    self._restore.append((mod, name, original))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._restore):
            setattr(target, name, original)
        self._restore.clear()

    # -- hook wrappers ----------------------------------------------------

    def _wrap_pair_graph(self, fn):
        def after(result, dur, spec, vertices):
            adj, tested = result
            self.counts["pairs_tested"] += tested
            self.counts["edges"] += sum(len(s) for s in adj) // 2
            self.by_ring[spec.d] += dur

        return self.span("search.pair_graph", fn, after, "pair_graph")

    def _wrap_is_square(self, fn):
        def after(result, dur, *args):
            self.counts["square_hits"] += bool(result)

        return self.span("search.square_test", fn, after, "is_square")

    def _wrap_cliques(self, fn):
        def after(result, dur, *args, **kwargs):
            out, explored = result
            self.counts["clique_nodes"] += explored
            self.counts["cliques_found"] += len(out)

        return self.span("search.clique", fn, after, "cliques")

    def _wrap_find_m_tuples(self, fn):
        return self.span("search.ring", fn)

    def _wrap_cache_load(self, fn):
        def after(result, dur, cache_dir, cfg):
            if cache_dir and cfg.mode == "find-all":
                self.counts["cache_hits" if result is not None else "cache_misses"] += 1

        return self.span("search.cache_load", fn, after, "cache_load")

    def _wrap_cache_store(self, fn):
        return self.span("search.cache_store", fn)

    def _wrap_rational_pass(self, fn):
        return self.span("search.rational_pass", fn)

    def _wrap_pool(self, cls):
        tracer = self

        class TracedPool(cls):
            def __enter__(self):
                tracer.open("search.pool")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close()

        return TracedPool

    def _wrap_extend(self, fn):
        def after(result, dur, *args):
            self.counts["extensions_found"] += len(result)

        return self.span("search.extend", fn, after, "extend")

    def _wrap_from_json(self, fn):
        def wrapped(data):
            name = "tuples.cache_decode" if self.inside("search.cache_load") else "search.parent_decode"
            self.open(name)
            try:
                return fn(data)
            finally:
                self.close()

        return wrapped

    def _wrap_make_tuple(self, fn):
        def after(result, dur, *args):
            self.counts["pairs_verified"] += len(result.witnesses)

        return self.span("tuples.make_tuple", fn, after, "make_tuple")

    def _wrap_sqrt_in_ring(self, fn):
        def after(result, dur, *args):
            self.counts["sqrt_hits"] += bool(result)
            if self.stack and self.stack[-1][0] == "search.extend":
                self.counts["extend_verify_calls"] += 1

        return self.span("ring.sqrt", fn, after, "sqrt_in_ring")

    def _wrap_norm_solve(self, fn):
        def wrapped(*args):
            self.counts["norm_solve_calls"] += 1
            return fn(*args)

        return wrapped

    def _wrap_disk(self, fn):
        def wrapped(spec, b_sq):
            self.disks.append((spec, b_sq))
            return fn(spec, b_sq)

        self.disk_fn = fn
        return wrapped

    def _wrap_gap_principle(self, fn):
        return self.span("gap.gap_principle", fn)

    def _wrap_jz(self, fn):
        return self.span("gap.jz", fn)

    def _wrap_chain(self, fn):
        return self.span("gap.chain", fn)

    def _wrap_compare(self, fn):
        def wrapped(this, other, *args, **kwargs):
            outer = self._compare_prec
            self._compare_prec = 0
            self.open("exactreal.compare")
            try:
                return fn(this, other, *args, **kwargs)
            finally:
                self.close()
                if self._compare_prec > PREC_START:
                    self.counts["escalations"] += 1
                self._compare_prec = max(outer, self._compare_prec)

        return wrapped

    def _wrap_eval(self, fn):
        def wrapped(this, prec):
            self.counts["eval_calls"] += 1
            if prec > self._compare_prec:
                self._compare_prec = prec
            if prec > self.counts["max_prec_bits"]:
                self.counts["max_prec_bits"] = prec
            return fn(this, prec)

        return wrapped

    def _wrap_emit(self, fn):
        def wrapped(report, fmt):
            out = sys.stdout
            before = out.tell()
            self.open("cli.report")
            try:
                return fn(report, fmt)
            finally:
                self.close()
                self.counts["report_bytes"] += out.tell() - before

        return wrapped

    # -- after the run ----------------------------------------------------

    def replay_disks(self) -> tuple[int, int]:
        """Isolated enumeration of every distinct disk the run enumerated: (points, ns)."""
        seen = {}
        for spec, b_sq in self.disks:
            seen.setdefault((spec.d, b_sq), (spec, b_sq))
        points, start = 0, time.perf_counter_ns()
        for spec, b_sq in seen.values():
            for _ in self.disk_fn(spec, b_sq):
                points += 1
        return points, time.perf_counter_ns() - start

    def summary(self) -> dict:
        points, enum_ns = self.replay_disks() if "disk" not in self.missing else (0, 0)
        return {
            "total_ns": dict(self.total),
            "calls": dict(self.calls),
            "top_ns": self.top_ns,
            "kept_ns": dict(self.kept),
            "counts": dict(self.counts),
            "pair_graph_ns_by_ring": {str(d): ns for d, ns in self.by_ring.items()},
            "disk_points": points,
            "enum_ns": enum_ns,
            "missing": self.missing,
        }
