"""Command-line front end with machine-readable reports.

Subcommands: search, verify, gap, chain, extend.  Reports serialize
deterministically; every numeric payload value is an exact integer or
rational string, never a float.

Each subcommand prints nothing itself: it returns its report's config,
outcome and payload, and `main` emits the one report and maps its outcome
to the exit code:

    ok             0
    violation      1  (a failing check, or a tuple found under --expect-empty)
    inapplicable   1  (gap hypotheses or certification fail, or the chain
                        finds no contradiction)
    error          2  (the input is refused: the report gives the reason)

An input refused before any report (by argparse, or by a ValueError such
as an unusable --cache-dir, a cache store that fails, or --threads without
--sweep, an option the run would drop) prints one stderr line and exits 2.
A reader closing stdout early (`| head`) changes neither the exit code nor
stderr.

The JSON format is written by _json, the one report writer: the bytes of
json.dumps(report, sort_keys=True, indent=2), whose indent makes the stdlib
fall back to its pure-Python encoder, streamed to stdout in chunks, never
held whole.  A report holds only dicts with str keys, lists (a search's
tuples as a map, made as it is written), str and int.  _json refuses any
other value (a float, bool or None) rather than print it some other way;
what it wrote before the refusal stays on stdout, a report that never parses.

Importing this module loads only the search layer.  Only `gap` and `chain`
load `gap`, and with it `exactreal`, `pell` and mpmath, when they run;
`search`, `verify` and `extend` never load them.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import K_CONSTANT
from .errors import (
    DiophError,
    DuplicateElement,
    NotDiophantine,
    PreconditionViolated,
    TheoremInapplicable,
    ZeroElement,
)
from .ring import RingElem, RingSpec
from .search import SearchConfig, extend_tuple, find_m_tuples, quintuple_sweep
from .tuples import (
    forbidden_double_regular,
    make_tuple,
    omega_lower_bound,
    pair_products_not_square,
    quadruple_extension_candidates,
)

SCHEMA_VERSION = 1

EXIT_CODES = {"ok": 0, "violation": 1, "inapplicable": 1, "error": 2}

CHUNK_PIECES = 2048  # report pieces _json buffers before it joins and writes them


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


def _elem_str(z: RingElem) -> str:
    return f"{z.u},{z.v}"


def _elems_str(elems) -> str:
    return ";".join(map(_elem_str, elems))


def _tuple_payload(t) -> dict:
    return {
        "d": str(t.spec.d),
        "elems": _elems_str(t.elems),
        "witnesses": {f"{i},{j}": _elem_str(w) for (i, j), w in sorted(t.witnesses.items())},
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


def _json(report: dict, write) -> None:
    """Pass json.dumps(report, sort_keys=True, indent=2) and a newline to
    write in chunks, one between list items once CHUNK_PIECES pieces are
    buffered; a map is a list made as it is written.  TypeError for any
    value but dicts with str keys, lists, maps, str and int."""
    out: list[str] = []
    piece = out.append

    def put(value, indent: str) -> None:
        kind = type(value)
        if kind is str:
            piece(encode_basestring_ascii(value))
        elif kind is int:
            piece(int.__repr__(value))
        elif kind is not dict and kind is not list and kind is not map:
            raise TypeError(f"no report form for {kind.__name__} {value!r}")
        else:
            opener, closer = "{}" if kind is dict else "[]"
            inner = indent + "  "
            sep, comma = opener + inner, "," + inner
            if kind is not dict:
                for item in value:
                    if len(out) > CHUNK_PIECES:
                        write("".join(out))
                        out.clear()
                    piece(sep)
                    put(item, inner)
                    sep = comma
            elif any(type(k) is not str for k in value):
                raise TypeError(f"report keys must be str: {list(value)!r}")
            else:
                for k, item in sorted(value.items()):
                    piece(sep)
                    piece(encode_basestring_ascii(k))
                    piece(": ")
                    put(item, inner)
                    sep = comma
            piece(indent + closer if sep is comma else opener + closer)

    put(report, "\n")
    piece("\n")
    write("".join(out))


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        _json(report, sys.stdout.write)
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
    elif isinstance(value, (list, map)):
        value = list(value)  # a map is a list made as it is read: count it first
        print(f"{indent}{label}[{len(value)} item(s)]")
        for item in value:
            _print_payload(item, indent + "  ")
    else:
        print(f"{indent}{label}{value}")


def _ring_input(args) -> tuple[RingSpec, list[RingElem], dict]:
    """The ring, the elements and the {d, elems} config of --d and --elems."""
    spec = RingSpec(args.d)
    elems = [spec.elem(u, v) for u, v in args.elems]
    return spec, elems, {"d": str(args.d), "elems": _elems_str(elems)}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_search(args) -> tuple[dict, str, dict]:
    if not args.sweep and args.threads is not None:
        raise ValueError("--threads needs --sweep: a single-ring search runs in one process")
    b_sq = args.bound_sq if args.bound_sq is not None else (16 if args.bound is None else args.bound) ** 2
    config = {
        "bound_abs_sq": str(b_sq),
        "size": str(args.size),
        "mode": SearchConfig.mode,
        "expect_empty": str(bool(args.expect_empty)).lower(),
    }
    try:  # first the directory, before any ring is searched, then each store into it
        if args.cache_dir:
            os.makedirs(args.cache_dir, exist_ok=True)
        if args.sweep:
            config["sweep"] = "true"
            rep = quintuple_sweep(b_sq, args.size, workers=args.threads, cache_dir=args.cache_dir)
            payload = {
                "rings_checked": str(len(rep.rings_checked)),
                "completeness": {k: str(v) for k, v in rep.completeness.items()},
                "tuples": map(_tuple_payload, rep.tuples),
                "rational_pass_tuples": [",".join(map(str, xs)) for xs in rep.rational_pass_tuples],
                "conjecture_violations": map(_tuple_payload, rep.conjecture_violations),
            }
            stats, found = rep.stats, not rep.is_empty
        else:
            config["d"] = str(args.d)
            res = find_m_tuples(SearchConfig(RingSpec(args.d), b_sq, args.size), cache_dir=args.cache_dir)
            payload = {
                "count": str(len(res.tuples)),
                "tuples": map(_tuple_payload, res.tuples),
            }
            stats, found = res.stats, bool(res.tuples)
    except OSError as exc:  # a usage error: exit 1 would read as "tuple found"
        if not args.cache_dir:
            raise
        raise ValueError(f"--cache-dir {args.cache_dir} is not a usable directory: {exc.strerror}") from None
    # last key, so the text format prints it after the tuples
    payload["stats"] = {k: str(v) for k, v in stats._asdict().items()}
    return config, "violation" if args.expect_empty and found else "ok", payload


def cmd_verify(args) -> tuple[dict, str, dict]:
    spec, elems, config = _ring_input(args)
    try:
        t = make_tuple(spec, elems)
    except NotDiophantine as exc:
        return config, "violation", {"failing_pair": f"{exc.pair[0]},{exc.pair[1]}", "reason": str(exc)}
    except (ZeroElement, DuplicateElement) as exc:
        return config, "error", {"reason": str(exc)}
    payload = _tuple_payload(t)
    checks: dict[str, str] = {}
    violation = False
    if len(t.elems) >= 3:
        bad = pair_products_not_square(t)
        checks["pair_products_not_square"] = "ok" if bad is None else f"violated at {bad}"
        violation = bad is not None
    if len(t.elems) == 4 and t.elems[0].abs_sq() >= 4:  # t is sorted: every |z| >= 2
        ok, margin = omega_lower_bound(t)
        forbidden = forbidden_double_regular(t)
        checks["omega_lower_bound"] = "ok" if ok else "violated"
        checks["omega_margin"] = str(margin)
        checks["forbidden_double_regular"] = str(forbidden).lower()
        violation = violation or not ok or forbidden
    payload["checks"] = checks
    return config, "violation" if violation else "ok", payload


def cmd_gap(args) -> tuple[dict, str, dict]:
    _spec, elems, config = _ring_input(args)
    if len(elems) != 3:
        return config, "error", {"reason": "need exactly three elements"}
    from .gap import gap_principle

    try:
        res = gap_principle(*elems)
    except PreconditionViolated as exc:
        return config, "inapplicable", {"failing_hypotheses": exc.failures}
    except TheoremInapplicable as exc:
        return config, "inapplicable", {"reason": str(exc)}
    lo, hi = res.lambda_enclosure
    payload = {
        "bound_abs_sq": str(res.bound_abs_sq),
        "k_constant": str(res.k_constant),
        "lambda_enclosure": {"lo": _fr(lo), "hi": _fr(hi)},
        "checks": {k: str(v).lower() for k, v in res.checks.items()},
    }
    return config, "ok", payload


def cmd_chain(args) -> tuple[dict, str, dict]:
    from .gap import chain_certificate

    config = {"m": str(args.m)}
    try:
        cert = chain_certificate(args.m)
    except ValueError as exc:
        return config, "error", {"reason": str(exc)}
    payload = {
        "k_constant": str(cert.k_constant),
        "lower_bounds_abs_sq": {str(i): str(v) for i, v in sorted(cert.lower_bounds.items())},
        "steps": list(cert.steps),
        "applicability": {k: str(v).lower() for k, v in cert.applicability.items()},
        "upper_bound_rhs": str(cert.upper_bound_rhs) if cert.upper_bound_rhs is not None else "none",
        "contradiction_at": str(cert.contradiction_at) if cert.contradiction_at else "none",
    }
    return config, "ok" if cert.contradiction_found else "inapplicable", payload


def cmd_extend(args) -> tuple[dict, str, dict]:
    spec, elems, config = _ring_input(args)
    config["bound"] = str(args.bound)
    try:
        t = make_tuple(spec, elems)
    except DiophError as exc:
        return config, "error", {"reason": str(exc)}
    exts = extend_tuple(t, args.bound * args.bound)
    payload = {"extensions": list(map(_elem_str, exts))}
    if len(t.elems) == 3:
        verified, failed = quadruple_extension_candidates(t)
        payload["regular_candidates"] = {
            "verified": list(map(_elem_str, verified)),
            "failed": list(map(_elem_str, failed)),
        }
    return config, "ok", payload


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache  # one parser per process: main may run many commands in one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diophiq",
        description="Search and verify Diophantine m-tuples in imaginary quadratic rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ring_input = argparse.ArgumentParser(add_help=False)
    ring_input.add_argument("--d", type=int, required=True)
    ring_input.add_argument("--elems", type=_parse_elems, required=True)

    p_search = sub.add_parser("search", help="bounded exhaustive m-tuple search")
    group = p_search.add_mutually_exclusive_group(required=True)
    group.add_argument("--d", type=int, help="ring parameter (negative squarefree)")
    group.add_argument("--sweep", action="store_true", help="run over the complete ring cutoff set")
    # no default: argparse lets through a conflicting value that is the default
    bound = p_search.add_mutually_exclusive_group()
    bound.add_argument("--bound", type=_nonnegative_int, help="max |z| (squared internally; default 16)")
    bound.add_argument("--bound-sq", type=int, help="max abs_sq directly, in place of --bound")
    p_search.add_argument("--size", type=int, required=True, help="tuple size m")
    p_search.add_argument("--expect-empty", action="store_true")
    p_search.add_argument("--threads", type=_positive_int, default=None, help="worker processes for the sweep")
    p_search.add_argument("--cache-dir", help="stored search results; a file with a false, out-of-range, misordered "
                          "or other-ring row is refused whole, but one with rows removed and its count lowered passes")
    p_search.set_defaults(func=cmd_search)

    p_verify = sub.add_parser("verify", parents=[ring_input], help="verify a tuple and its side conditions")
    p_verify.set_defaults(func=cmd_verify)

    p_gap = sub.add_parser("gap", parents=[ring_input], help="gap-principle bound for a triple")
    p_gap.set_defaults(func=cmd_gap)

    p_chain = sub.add_parser("chain", help="lower-bound chain certificate")
    p_chain.add_argument("--m", type=int, required=True)
    p_chain.set_defaults(func=cmd_chain)

    p_extend = sub.add_parser("extend", parents=[ring_input], help="bounded extension search for a tuple")
    p_extend.add_argument("--bound", type=_nonnegative_int, required=True, help="max |d| (squared internally)")
    p_extend.set_defaults(func=cmd_extend)

    for p in sub.choices.values():  # last, so each usage line ends with it
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _normalize_argv(argv: list[str]) -> list[str]:
    """Join '--elems -2,0;...' into '--elems=...' so leading minus signs in
    element lists are not mistaken for option flags."""
    out = []
    tokens = iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok == "--elems" else None
        out.append(tok if value is None else f"{tok}={value}")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_normalize_argv(argv))
    try:
        config, outcome, payload = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES["error"]
    try:
        _emit(_report(args.command, config, outcome, payload), args.format)
    except BrokenPipeError:  # the reader closed stdout; the rest goes to devnull, so exit's flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_CODES[outcome]


if __name__ == "__main__":
    sys.exit(main())
