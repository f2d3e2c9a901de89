"""Workload definitions, seeded input generation and output checks.

Everything here is independent of the program under test: inputs are
plain integer coordinates, and the checks re-derive norms, products and
witness squares with their own integer arithmetic, so a change inside
`diophiq` cannot make its own outputs look correct.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import isqrt
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# Certify inputs are drawn over these rings, as in acceptance criterion 4.
CERTIFY_RINGS = (-1, -2, -3, -7, -11)

# Full-size and reduced ("smoke") parameters of every workload.
SCALES = {
    "full": {"sweep_bound": 16, "extend_bound": 600, "certify_inputs": 2000},
    "smoke": {"sweep_bound": 4, "extend_bound": 50, "certify_inputs": 20},
}

EXTEND_RINGS = (-1, -3)  # integral basis and half basis
EXTEND_ELEMS = "1,0;3,0;8,0"

WORKLOADS = ("sweep5-cold", "sweep3-warm", "extend-138", "certify")


def cli_commands(workload: str, scale: str, cache_dir: str | None = None, threads: int | None = None) -> list[list[str]]:
    """The diophiq CLI argument lists one pass of a CLI workload runs, in order."""
    p = SCALES[scale]
    if workload == "sweep5-cold":
        return [["search", "--sweep", "--bound", str(p["sweep_bound"]), "--size", "5",
                 "--expect-empty", "--threads", "1", "--format", "json"]]
    if workload == "sweep3-warm":
        return [["search", "--sweep", "--bound", str(p["sweep_bound"]), "--size", "3",
                 "--threads", str(threads or 2), "--cache-dir", cache_dir, "--format", "json"]]
    if workload == "extend-138":
        return [["extend", "--d", str(d), f"--elems={EXTEND_ELEMS}", "--bound", str(p["extend_bound"]),
                 "--format", "json"] for d in EXTEND_RINGS]
    raise ValueError(f"{workload} is not a CLI workload")


# ---------------------------------------------------------------------------
# independent ring arithmetic on (u, v) coordinates
# ---------------------------------------------------------------------------


def norm(d: int, u: int, v: int) -> int:
    if d % 4 == 1:
        return u * u - u * v + ((1 - d) // 4) * v * v
    return u * u - d * v * v


def mul(d: int, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    (u1, v1), (u2, v2) = a, b
    if d % 4 == 1:
        return (u1 * u2 + v1 * v2 * ((d - 1) // 4), u1 * v2 + v1 * u2 - v1 * v2)
    return (u1 * u2 + v1 * v2 * d, u1 * v2 + v1 * u2)


def _coords(text: str) -> tuple[int, int]:
    u, v = text.split(",")
    return int(u), int(v)


def tuple_verifies(t: dict) -> bool:
    """A reported tuple is distinct, nonzero, and every pair has a witness squaring to a_i a_j + 1."""
    d = int(t["d"])
    elems = [_coords(x) for x in t["elems"].split(";")]
    n = len(elems)
    if len(set(elems)) != n or (0, 0) in elems or len(t["witnesses"]) != n * (n - 1) // 2:
        return False
    for i in range(n):
        for j in range(i + 1, n):
            w = t["witnesses"].get(f"{i},{j}")
            if w is None:
                return False
            pu, pv = mul(d, elems[i], elems[j])
            if mul(d, _coords(w), _coords(w)) != (pu + 1, pv):
                return False
    return True


def tuple_key(t: dict) -> str:
    """Order-independent identity of a reported tuple."""
    return f"{int(t['d'])}:" + ";".join(f"{u},{v}" for u, v in sorted(_coords(x) for x in t["elems"].split(";")))


def digest(keys) -> str:
    return hashlib.sha256("\n".join(sorted(keys)).encode()).hexdigest()[:16]


def folded_ring(d: int) -> bool:
    """Integral-basis rings beyond |d| = 257 hold only rational triples that a
    planned change folds into the rational pass; they are not checked per ring."""
    return d % 4 != 1 and -d > 257


def classify_sweep(report: dict) -> dict:
    """Reference-comparable summary of a size-3 sweep report."""
    nonreal, rational_by_ring = [], {}
    for t in report["payload"]["tuples"]:
        key = tuple_key(t)
        if any(_coords(x)[1] for x in t["elems"].split(";")):
            nonreal.append(key)
        else:
            rational_by_ring.setdefault(int(t["d"]), []).append(key)
    return {
        "nonreal_count": len(nonreal),
        "nonreal_digest": digest(nonreal),
        "rational_pass": sorted(report["payload"]["rational_pass_tuples"]),
        "rational_by_ring": {
            str(d): digest(keys) for d, keys in rational_by_ring.items() if not folded_ring(d)
        },
    }


# ---------------------------------------------------------------------------
# certify inputs: the criterion-4 distribution, drawn from the seed
# ---------------------------------------------------------------------------


def _gap_hypotheses_hold(na: int, nb: int, nc: int) -> bool:
    return na * nc >= 81 and 4 * nb >= 9 * na and nb > 25 and nc > nb**15


def certify_inputs(seed: int, count: int) -> list[tuple[int, tuple[int, int], tuple[int, int], tuple[int, int]]]:
    """`count` admissible gap-principle inputs (d, a, b, c) as coordinates."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.choice(CERTIFY_RINGS)
        while True:
            a = (rng.randint(1, 5), rng.randint(-2, 2))
            b = (rng.randint(6, 14), rng.randint(-4, 4))
            na, nb = norm(d, *a), norm(d, *b)
            if nb <= 25 or 4 * nb < 9 * na:
                continue
            c = (isqrt(nb**15) + rng.randint(1, 10**6), rng.randint(0, 1000))
            if _gap_hypotheses_hold(na, nb, norm(d, *c)):
                break
        out.append((d, a, b, c))
    return out


# ---------------------------------------------------------------------------
# checks: each returns (attempted, [failure messages])
# ---------------------------------------------------------------------------


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _report(out: str) -> dict | None:
    try:
        return json.loads(out)
    except ValueError:
        return None


def check_sweep5(outputs: list[tuple[int, str]], ref: dict) -> tuple[int, list[str]]:
    (rc, out), = outputs
    rep = _report(out)
    if rep is None:
        return 4, [f"unparsable report, exit {rc}"] * 4
    fails = []
    if rc != ref["exit_code"]:
        fails.append(f"exit code {rc}")
    if rep["outcome"] != ref["outcome"]:
        fails.append(f"outcome {rep['outcome']}")
    if len(rep["payload"]["tuples"]) != ref["tuples"]:
        fails.append(f"{len(rep['payload']['tuples'])} tuples")
    if len(rep["payload"]["rational_pass_tuples"]) != ref["rational_pass_tuples"]:
        fails.append(f"{len(rep['payload']['rational_pass_tuples'])} rational-pass tuples")
    return 4, fails


def check_sweep3(outputs: list[tuple[int, str]], ref: dict) -> tuple[int, list[str]]:
    (rc, out), = outputs
    rep = _report(out)
    if rep is None:
        n = 3 + len(ref["rational_by_ring"])
        return n, [f"unparsable report, exit {rc}"] * n
    got = classify_sweep(rep)
    rings = sorted(set(ref["rational_by_ring"]) | set(got["rational_by_ring"]), key=int)
    fails = []
    if rc != 0 or rep["outcome"] != "ok":
        fails.append(f"exit code {rc}, outcome {rep['outcome']}")
    if (got["nonreal_count"], got["nonreal_digest"]) != (ref["nonreal_count"], ref["nonreal_digest"]):
        fails.append(f"non-real triples: {got['nonreal_count']} with digest {got['nonreal_digest']}")
    if got["rational_pass"] != ref["rational_pass"]:
        fails.append(f"rational pass: {got['rational_pass']}")
    empty = digest([])
    for d in rings:
        if got["rational_by_ring"].get(d, empty) != ref["rational_by_ring"].get(d, empty):
            fails.append(f"rational-only triples of ring d={d}")
    tuples = rep["payload"]["tuples"]
    fails.extend(f"tuple {tuple_key(t)} does not re-verify" for t in tuples if not tuple_verifies(t))
    return 3 + len(rings) + len(tuples), fails


def check_extend(outputs: list[tuple[int, str]], ref: dict) -> tuple[int, list[str]]:
    fails = []
    for d, (rc, out) in zip(EXTEND_RINGS, outputs):
        rep = _report(out)
        if rep is None or rc != 0 or rep["outcome"] != "ok":
            fails.append(f"d={d}: exit code {rc}")
        elif rep["payload"]["extensions"] != ref["extensions"]:
            fails.append(f"d={d}: extensions {rep['payload']['extensions']}")
    return len(EXTEND_RINGS), fails


def check_certify(inputs: list, results: list, chains: dict[int, int | None], ref: dict) -> tuple[int, list[str]]:
    """results[i] = (lambda_lo, lambda_hi, bound_abs_sq) for inputs[i]; chains maps m to contradiction_at."""
    lam_hi = Fraction(ref["lambda_below"])
    k40 = ref["k_constant"] ** 40
    fails = []
    for (d, _a, _b, c), (lo, hi, bound) in zip(inputs, results):
        if not (1 < lo <= hi < lam_hi) or bound != k40 * norm(d, *c) ** 50:
            fails.append(f"gap principle on d={d}, c={c}: lambda in [{float(lo)}, {float(hi)}], "
                         f"bound {'ok' if bound == k40 * norm(d, *c) ** 50 else 'wrong'}")
    m_yes, m_no = ref["chain_contradiction_at"], ref["chain_no_contradiction_at"]
    if chains.get(m_yes) != m_yes:
        fails.append(f"chain({m_yes}) contradiction at {chains.get(m_yes)}")
    if chains.get(m_no) is not None:
        fails.append(f"chain({m_no}) contradiction at {chains.get(m_no)}")
    return len(inputs) + 2, fails
