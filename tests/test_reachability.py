"""Every function in src/ is entered by some CLI command, or is listed in
UNREACHED with the reason it stays.

A fresh interpreter installs a profile function before it imports
diophiq.cli, so calls made at import time count too, then runs COMMANDS
through cli.main in both formats.  Sweeps run with --threads 1, so no work
runs in a pool worker.  The functions entered are named through ast, not
co_qualname, which Python 3.10 lacks.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import diophiq

PKG = Path(diophiq.__file__).parent

# every golden's command, every case of CI's exit-code step, a size-2 sweep
# whose rational pass finds pairs (their rows are copied to the rings past the
# cutoffs), and a single-ring search and a sweep each run cold and then warm
# on one cache directory ({cache}); {planted} holds a directory where the
# search would store its result
COMMANDS = [
    ["search", "--d", "-3", "--bound", "6", "--size", "3"],
    ["search", "--d", "-2", "--bound", "6", "--size", "3"],
    ["extend", "--d", "-1", "--elems", "1,0;3,0;8,0", "--bound", "130"],
    ["extend", "--d", "-3", "--elems", "1,0;3,0;8,0", "--bound", "130"],
    ["verify", "--d", "-1", "--elems", "1,0;3,0;8,0;120,0"],
    ["verify", "--d", "-1", "--elems", "2,0;4,0;12,0;420,0"],
    ["gap", "--d", "-11", "--elems", "4,1;9,-1;580259305885538,354"],
    ["chain", "--m", "43"],
    ["search", "--sweep", "--bound", "16", "--size", "4", "--threads", "1"],
    ["search", "--sweep", "--bound", "16", "--size", "5", "--expect-empty", "--threads", "1"],
    # the bound-sq 1966 golden's options at a small bound: the same code, as
    # its 4,785 rings take about 7 s a format under the profile
    ["search", "--sweep", "--bound-sq", "20", "--size", "5", "--expect-empty", "--threads", "1"],
    ["verify", "--d", "-3", "--elems", "-2,0;2,0;-2,-4"],
    ["verify", "--d", "-3", "--elems", "-2,0;2,0;2,4"],
    ["verify", "--d", "-3", "--elems", "-2,0;2,0;-2,-4;2,4"],
    ["gap", "--d", "-1", "--elems", "1,0;2,0;3,0"],
    ["gap", "--d", "-1", "--elems", "1,0;2,0"],
    ["chain", "--m", "42"],
    ["chain", "--m", "50"],
    ["chain", "--m", "4"],
    ["search", "--d", "-1", "--bound", "4", "--size", "3", "--expect-empty"],
    ["search", "--sweep", "--bound", "0", "--size", "5"],
    ["search", "--d", "-1", "--bound", "3", "--bound-sq", "9", "--size", "3"],
    ["extend", "--d", "-1", "--elems", "1,0;3,0;7,0", "--bound", "5"],
    ["search", "--d", "-1", "--bound", "4", "--size", "3", "--expect-empty", "--cache-dir", "{planted}"],
    ["search", "--d", "-1", "--bound", "4", "--size", "3", "--mode", "count"],
    ["search", "--d", "-1", "--bound", "4", "--size", "3", "--min-sq", "2"],
    ["search", "--d", "-1", "--bound", "4", "--size", "3", "--cache-dir", "{cache}"],
    ["search", "--d", "-1", "--bound", "4", "--size", "3", "--cache-dir", "{cache}"],
    ["search", "--sweep", "--bound", "2", "--size", "2", "--threads", "1"],
    ["search", "--sweep", "--bound", "3", "--size", "3", "--threads", "1", "--cache-dir", "{cache}"],
    ["search", "--sweep", "--bound", "3", "--size", "3", "--threads", "1", "--cache-dir", "{cache}"],
]

# function -> why no command enters it
APPROX = "approximation layer: only tests run it until a quadruple census command does"
THEOREM = "theorem quantity that only tests read"
HOOK = "perfbench hook target that no command calls"
ERROR_TEXT = "error text: no command's refusal prints it"
UNREACHED = {
    "gap.approx_check": APPROX,
    "gap.approx_check.<locals>.bound_of": APPROX,
    "gap.approx_check.<locals>.slack": APPROX,
    "gap._quotient": APPROX,
    "gap._branch_distance": APPROX,
    "gap._branch_distance.<locals>.distance": APPROX,
    "exactreal.ExactReal.compare": APPROX,
    "exactreal.ExactReal.compare.<locals>.decide": APPROX,
    "ring.RingElem.conj": APPROX,
    "pell.PellSystem.__post_init__": APPROX,
    "pell.build_system": APPROX,
    "pell.first_equation_holds": APPROX,
    "pell.second_equation_holds": APPROX,
    "pell.solution_from_extension": APPROX,
    "pell.compose_step": "Pell step of criterion 7's property suite; no census step composes solutions",
    "gap.jz_quantities": THEOREM,
    "gap.jz_quantities.<locals>.l": THEOREM,
    "gap.jz_quantities.<locals>.p": THEOREM,
    "gap.jz_quantities.<locals>.c": THEOREM,
    "exactreal.exp": THEOREM,
    "exactreal.ExactReal.exact": THEOREM,
    "search.SearchResult.tuples": "a view for library callers and tests: every command reports a search's rows",
    "tuples.DiophTuple.from_json_dict": HOOK,
    "ring.elements_with_abs_sq": HOOK,
    "ring.RingSpec.zero": "elements_with_abs_sq's answer at norm 0, a perfbench hook target",
    "ring.RingElem.__str__": ERROR_TEXT,
    "ring.RingSpec.__repr__": ERROR_TEXT,
}

SCAN = """
import contextlib, io, json, os, sys
seen = set()

def profile(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)

sys.setprofile(profile)
import diophiq.cli
for argv in json.loads(sys.argv[1]):
    for fmt in ("json", "text"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                diophiq.cli.main([*argv, "--format", fmt])
            except SystemExit:  # argparse's refusal
                pass
sys.setprofile(None)
pkg = os.path.dirname(diophiq.cli.__file__)
print(json.dumps([[os.path.basename(c.co_filename), c.co_firstlineno, c.co_name]
                  for c in seen if os.path.dirname(c.co_filename) == pkg]))
"""


def _functions():
    """(file name, first line, name) -> qualified name, for every def in the
    package.  A decorated function's first line is its first decorator's, as
    in co_firstlineno."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                out[(path.name, first, child.name)] = f"{path.stem}.{prefix}{child.name}"
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(PKG.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return out


def test_every_src_function_is_reached_by_a_command_or_listed(tmp_path):
    (tmp_path / "planted" / "d-1_b16_m3.json").mkdir(parents=True)
    dirs = {name: str(tmp_path / name) for name in ("cache", "planted")}
    commands = [[arg.format(**dirs) for arg in argv] for argv in COMMANDS]
    out = subprocess.run(
        [sys.executable, "-c", SCAN, json.dumps(commands)], capture_output=True, text=True, check=True,
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(PKG.parent)},
    ).stdout
    functions = _functions()
    reached = {functions[key] for key in map(tuple, json.loads(out)) if key in functions}
    names, listed = set(functions.values()), set(UNREACHED)
    problems = {
        "unreached and not listed": names - reached - listed,
        "listed but reached": listed & reached,
        "listed but not a function": listed - names,
    }
    assert {k: sorted(v) for k, v in problems.items() if v} == {}
