"""Command-line front end with machine-readable reports.

Subcommands: search, verify, gap, chain, extend.  Reports serialize
deterministically; every numeric payload value is an exact integer or
rational string, never a float.  Exit codes: 0 on success, 1 when a
violation / unexpected result / missing contradiction is reported, 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import (
    DiophError,
    DuplicateElement,
    NotDiophantine,
    PreconditionViolated,
    ZeroElement,
)
from .gap import K_CONSTANT, chain_certificate, gap_principle, omega_lower_bound
from .ring import RingElem, RingSpec
from .search import SearchConfig, extend_tuple, find_m_tuples, quintuple_sweep
from .tuples import (
    forbidden_double_regular,
    make_tuple,
    pair_products_not_square,
    quadruple_extension_candidates,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def _parse_elems(text: str) -> list[tuple[int, int]]:
    out = []
    for chunk in text.split(";"):
        parts = chunk.strip().split(",")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(
                f"bad element {chunk!r}: expected 'u,v' pairs joined by ';'"
            )
        try:
            out.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad element {chunk!r}: {exc}") from None
    if not out:
        raise argparse.ArgumentTypeError("empty element list")
    return out


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _fr(x: Fraction | int) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _elems_str(elems) -> str:
    return ";".join(f"{z.u},{z.v}" for z in elems)


def _tuple_payload(t) -> dict:
    return {
        "d": str(t.spec.d),
        "elems": _elems_str(t.elems),
        "witnesses": {f"{i},{j}": f"{w.u},{w.v}" for (i, j), w in sorted(t.witnesses.items())},
    }


def _report(command: str, config: dict, outcome: str, payload: dict) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "constants": {"K": str(K_CONSTANT)},
        "outcome": outcome,
        "payload": payload,
    }


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
        return
    print(f"{report['command']}: {report['outcome']}")
    for key, value in sorted(report["config"].items()):
        print(f"  {key} = {value}")
    _print_payload(report["payload"], indent="  ")


def _print_payload(value, indent="  ", key=None) -> None:
    label = f"{key}: " if key else ""
    if isinstance(value, dict):
        if key:
            print(f"{indent}{key}:")
            indent += "  "
        for k, v in value.items():
            _print_payload(v, indent, k)
    elif isinstance(value, list):
        print(f"{indent}{label}[{len(value)} item(s)]")
        for item in value:
            _print_payload(item, indent + "  ")
    else:
        print(f"{indent}{label}{value}")


def _elems_for(spec: RingSpec, pairs: list[tuple[int, int]]) -> list[RingElem]:
    return [spec.elem(u, v) for u, v in pairs]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_search(args) -> int:
    b_sq = args.bound_sq if args.bound_sq is not None else args.bound * args.bound
    config = {
        "bound_abs_sq": str(b_sq),
        "size": str(args.size),
        "mode": args.mode,
        "expect_empty": str(bool(args.expect_empty)).lower(),
    }
    if args.sweep:
        if args.mode != "find-all" or args.min_sq != 1:
            raise ValueError("--sweep takes no --mode or --min-sq: it finds every tuple")
        config["sweep"] = "true"
        rep = quintuple_sweep(b_sq, args.size, workers=args.threads, cache_dir=args.cache_dir)
        payload = {
            "rings_checked": str(len(rep.rings_checked)),
            "completeness": {k: str(v) for k, v in rep.completeness.items()},
            "tuples": [_tuple_payload(t) for t in rep.tuples],
            "rational_pass_tuples": [",".join(map(str, xs)) for xs in rep.rational_pass_tuples],
            "conjecture_violations": [_tuple_payload(t) for t in rep.conjecture_violations],
            "stats": {
                "elements": str(rep.stats.elements),
                "pairs_tested": str(rep.stats.pairs_tested),
                "cliques_explored": str(rep.stats.cliques_explored),
            },
        }
        found = not rep.is_empty
    else:
        config["d"] = str(args.d)
        if args.min_sq != 1:
            config["min_sq"] = str(args.min_sq)
        cfg = SearchConfig(
            RingSpec(args.d), b_sq, args.size, mode=args.mode, min_abs_sq=args.min_sq
        )
        res = find_m_tuples(cfg, cache_dir=args.cache_dir)
        payload = {
            "count": str(res.count),
            "tuples": [_tuple_payload(t) for t in res.tuples],
            "stats": {
                "elements": str(res.stats.elements),
                "pairs_tested": str(res.stats.pairs_tested),
                "cliques_explored": str(res.stats.cliques_explored),
            },
        }
        found = res.count > 0
    violated = bool(args.expect_empty and found)
    report = _report("search", config, "violation" if violated else "ok", payload)
    _emit(report, args.format)
    return EXIT_VIOLATION if violated else EXIT_OK


def cmd_verify(args) -> int:
    spec = RingSpec(args.d)
    config = {"d": str(args.d), "elems": ";".join(f"{u},{v}" for u, v in args.elems)}
    try:
        t = make_tuple(spec, _elems_for(spec, args.elems))
    except NotDiophantine as exc:
        payload = {"failing_pair": f"{exc.pair[0]},{exc.pair[1]}", "reason": str(exc)}
        _emit(_report("verify", config, "violation", payload), args.format)
        return EXIT_VIOLATION
    except (ZeroElement, DuplicateElement) as exc:
        _emit(_report("verify", config, "error", {"reason": str(exc)}), args.format)
        return EXIT_USAGE
    payload = _tuple_payload(t)
    checks: dict = {}
    if len(t.elems) >= 3:
        bad = pair_products_not_square(t)
        checks["pair_products_not_square"] = "ok" if bad is None else f"violated at {bad}"
    if len(t.elems) == 4 and min(z.abs_sq() for z in t.elems) >= 4:
        ok, margin = omega_lower_bound(t)
        checks["omega_lower_bound"] = "ok" if ok else "violated"
        checks["omega_margin"] = str(margin)
        checks["forbidden_double_regular"] = str(forbidden_double_regular(*t.elems)).lower()
    payload["checks"] = checks
    violation = any(v.startswith("violated") for v in checks.values() if isinstance(v, str))
    outcome = "violation" if violation or checks.get("forbidden_double_regular") == "true" else "ok"
    _emit(_report("verify", config, outcome, payload), args.format)
    return EXIT_OK if outcome == "ok" else EXIT_VIOLATION


def cmd_gap(args) -> int:
    spec = RingSpec(args.d)
    config = {"d": str(args.d), "elems": ";".join(f"{u},{v}" for u, v in args.elems)}
    if len(args.elems) != 3:
        _emit(_report("gap", config, "error", {"reason": "need exactly three elements"}), args.format)
        return EXIT_USAGE
    a, b, c = _elems_for(spec, args.elems)
    try:
        res = gap_principle(a, b, c)
    except PreconditionViolated as exc:
        payload = {"failing_hypotheses": exc.failures}
        _emit(_report("gap", config, "inapplicable", payload), args.format)
        return EXIT_VIOLATION
    lo, hi = res.lambda_enclosure
    payload = {
        "bound_abs_sq": str(res.bound_abs_sq),
        "k_constant": str(res.k_constant),
        "lambda_enclosure": {"lo": _fr(lo), "hi": _fr(hi)},
        "checks": {k: str(v).lower() for k, v in res.checks.items()},
    }
    _emit(_report("gap", config, "ok", payload), args.format)
    return EXIT_OK


def cmd_chain(args) -> int:
    config = {"m": str(args.m)}
    try:
        cert = chain_certificate(args.m)
    except ValueError as exc:
        _emit(_report("chain", config, "error", {"reason": str(exc)}), args.format)
        return EXIT_USAGE
    payload = {
        "k_constant": str(cert.k_constant),
        "lower_bounds_abs_sq": {str(i): str(v) for i, v in sorted(cert.lower_bounds.items())},
        "steps": list(cert.steps),
        "applicability": {k: str(v).lower() for k, v in cert.applicability.items()},
        "upper_bound_rhs": str(cert.upper_bound_rhs) if cert.upper_bound_rhs is not None else "none",
        "contradiction_at": str(cert.contradiction_at) if cert.contradiction_at else "none",
    }
    outcome = "ok" if cert.contradiction_found else "inapplicable"
    _emit(_report("chain", config, outcome, payload), args.format)
    return EXIT_OK if cert.contradiction_found else EXIT_VIOLATION


def cmd_extend(args) -> int:
    spec = RingSpec(args.d)
    config = {
        "d": str(args.d),
        "elems": ";".join(f"{u},{v}" for u, v in args.elems),
        "bound": str(args.bound),
    }
    try:
        t = make_tuple(spec, _elems_for(spec, args.elems))
    except DiophError as exc:
        _emit(_report("extend", config, "error", {"reason": str(exc)}), args.format)
        return EXIT_USAGE
    exts = extend_tuple(t, args.bound * args.bound)
    payload = {"extensions": [f"{z.u},{z.v}" for z in exts]}
    if len(t.elems) == 3:
        verified, failed = quadruple_extension_candidates(*t.elems)
        payload["regular_candidates"] = {
            "verified": [f"{z.u},{z.v}" for z in verified],
            "failed": [f"{z.u},{z.v}" for z in failed],
        }
    _emit(_report("extend", config, "ok", payload), args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diophiq",
        description="Search and verify Diophantine m-tuples in imaginary quadratic rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_search = sub.add_parser("search", help="bounded exhaustive m-tuple search")
    group = p_search.add_mutually_exclusive_group(required=True)
    group.add_argument("--d", type=int, help="ring parameter (negative squarefree)")
    group.add_argument("--sweep", action="store_true", help="run over the complete ring cutoff set")
    p_search.add_argument("--bound", type=_nonnegative_int, default=16, help="max |z| (squared internally)")
    p_search.add_argument("--bound-sq", type=int, default=None, help="max abs_sq directly (overrides --bound)")
    p_search.add_argument("--min-sq", type=int, default=1, help="min abs_sq filter on elements")
    p_search.add_argument("--size", type=int, required=True, help="tuple size m")
    p_search.add_argument("--mode", choices=("find-all", "find-first", "count"), default="find-all")
    p_search.add_argument("--expect-empty", action="store_true")
    p_search.add_argument("--threads", type=_positive_int, default=None, help="worker processes for the sweep")
    p_search.add_argument("--cache-dir", default=os.environ.get("DIOPH_CACHE_DIR"))
    add_common(p_search)
    p_search.set_defaults(func=cmd_search)

    p_verify = sub.add_parser("verify", help="verify a tuple and its side conditions")
    p_verify.add_argument("--d", type=int, required=True)
    p_verify.add_argument("--elems", type=_parse_elems, required=True)
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_gap = sub.add_parser("gap", help="gap-principle bound for a triple")
    p_gap.add_argument("--d", type=int, required=True)
    p_gap.add_argument("--elems", type=_parse_elems, required=True)
    add_common(p_gap)
    p_gap.set_defaults(func=cmd_gap)

    p_chain = sub.add_parser("chain", help="lower-bound chain certificate")
    p_chain.add_argument("--m", type=int, required=True)
    add_common(p_chain)
    p_chain.set_defaults(func=cmd_chain)

    p_extend = sub.add_parser("extend", help="bounded extension search for a tuple")
    p_extend.add_argument("--d", type=int, required=True)
    p_extend.add_argument("--elems", type=_parse_elems, required=True)
    p_extend.add_argument("--bound", type=_nonnegative_int, required=True, help="max |d| (squared internally)")
    add_common(p_extend)
    p_extend.set_defaults(func=cmd_extend)
    return parser


def _normalize_argv(argv: list[str]) -> list[str]:
    """Join '--elems -2,0;...' into '--elems=...' so leading minus signs in
    element lists are not mistaken for option flags."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--elems" and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_normalize_argv(list(argv)))
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
