import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import diophiq
from diophiq import cli
from diophiq.cli import _json, build_parser, main

DATA = Path(__file__).parent / "data"
CHAIN_DIGEST = DATA / "chain_reports_digest.json"

# stored reports of fixed inputs: DATA/<name>.json in --format json and
# DATA/<name>.txt in the default text format
GOLDEN = {
    "search_d-3_b6_m3": ["search", "--d", "-3", "--bound", "6", "--size", "3"],
    "search_d-2_b6_m3": ["search", "--d", "-2", "--bound", "6", "--size", "3"],
    "extend_d-1_1_3_8_b130": ["extend", "--d", "-1", "--elems", "1,0;3,0;8,0", "--bound", "130"],
    "extend_d-3_1_3_8_b130": ["extend", "--d", "-3", "--elems", "1,0;3,0;8,0", "--bound", "130"],
    "verify_d-1_1_3_8_120": ["verify", "--d", "-1", "--elems", "1,0;3,0;8,0;120,0"],
    # min abs_sq 4: the only golden that reaches the Omega-lemma checks
    "verify_d-1_2_4_12_420": ["verify", "--d", "-1", "--elems", "2,0;4,0;12,0;420,0"],
    "gap_d-11_criterion4": ["gap", "--d", "-11", "--elems", "4,1;9,-1;580259305885538,354"],
    "chain_m43": ["chain", "--m", "43"],
    "sweep_b16_m4": ["search", "--sweep", "--bound", "16", "--size", "4", "--threads", "1"],
}


# the exit code of each report outcome
OUTCOME_EXIT = {"ok": 0, "violation": 1, "inapplicable": 1, "error": 2}

# inputs refused inside a subcommand: a report with outcome "error", its
# config and the reason
ERROR_REPORTS = {
    "chain_m4": (["chain", "--m", "4"], {"m": "4"}, "chain needs at least five elements"),
    "gap_two_elems": (
        ["gap", "--d", "-1", "--elems", "1,0;3,0"],
        {"d": "-1", "elems": "1,0;3,0"},
        "need exactly three elements",
    ),
    "extend_not_a_pair": (
        ["extend", "--d", "-1", "--elems", "1,0;2,0", "--bound", "5"],
        {"d": "-1", "elems": "1,0;2,0", "bound": "5"},
        "product of elements (0, 1) plus one is not a square",
    ),
    "verify_repeated_elem": (
        ["verify", "--d", "-1", "--elems", "1,0;3,0;1,0"],
        {"d": "-1", "elems": "1,0;3,0;1,0"},
        "elements not pairwise distinct: 1,0 repeated",
    ),
    "extend_repeated_elem": (
        ["extend", "--d", "-1", "--elems", "1,0;1,0", "--bound", "5"],
        {"d": "-1", "elems": "1,0;1,0", "bound": "5"},
        "elements not pairwise distinct: 1,0 repeated",
    ),
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_search_single_ring_expect_empty(capsys):
    code, rep = run_json(
        capsys, "search", "--d", "-3", "--bound", "16", "--size", "5", "--expect-empty"
    )
    assert code == 0
    assert rep["outcome"] == "ok"
    assert rep["schema"] == 1
    assert rep["constants"]["K"] == "4728"
    assert rep["payload"]["count"] == "0"


def test_search_reports_triples(capsys):
    code, rep = run_json(capsys, "search", "--d", "-1", "--bound", "8", "--size", "3")
    assert code == 0
    tuples = rep["payload"]["tuples"]
    assert any(t["elems"] == "1,0;3,0;8,0" for t in tuples)
    # round-trip: every printed tuple is accepted by verify
    for t in tuples:
        vcode, vrep = run_json(capsys, "verify", "--d", t["d"], "--elems", t["elems"])
        assert vcode == 0
        assert vrep["outcome"] == "ok"


def test_search_expect_empty_violated(capsys):
    code, rep = run_json(
        capsys, "search", "--d", "-1", "--bound", "4", "--size", "3", "--expect-empty"
    )
    assert code == 1
    assert rep["outcome"] == "violation"


def test_search_deterministic_output(capsys):
    code1, out1 = run_cli(capsys, "search", "--d", "-3", "--bound", "6", "--size", "3", "--format", "json")
    code2, out2 = run_cli(capsys, "search", "--d", "-3", "--bound", "6", "--size", "3", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_classical_quadruple(capsys):
    code, rep = run_json(capsys, "verify", "--d", "-1", "--elems", "1,0;3,0;8,0;120,0")
    assert code == 0
    assert rep["outcome"] == "ok"
    assert len(rep["payload"]["witnesses"]) == 6


def test_verify_roots_each_pair_once(capsys, monkeypatch):
    # make_tuple roots the six ab + 1 and pair_products_not_square the six ab;
    # the Omega and double-regular checks read the verified quadruple
    from diophiq import ring, tuples

    calls = []
    root = ring.sqrt_in_ring

    def counting(w):
        calls.append(w)
        return root(w)

    for module in (ring, tuples):  # search.py does not import sqrt_in_ring
        monkeypatch.setattr(module, "sqrt_in_ring", counting)
    code, rep = run_json(capsys, *GOLDEN["verify_d-1_2_4_12_420"])
    assert code == 0 and rep["payload"]["checks"]["forbidden_double_regular"] == "false"
    assert len(calls) == 12


def test_verify_violation_pair(capsys):
    code, rep = run_json(capsys, "verify", "--d", "-3", "--elems", "-2,0;2,0;2,4;-2,-4")
    assert code == 1
    assert rep["outcome"] == "violation"
    assert rep["payload"]["failing_pair"] == "2,3"


def test_verify_malformed_elems_is_usage_error(capsys):
    code = main(["verify", "--d", "-1", "--elems", "1,0;3,0"])
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--d", "-1", "--elems", "1;3"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_zero_element_usage(capsys):
    code, rep = run_json(capsys, "verify", "--d", "-1", "--elems", "0,0;3,0")
    assert code == 2
    assert rep["outcome"] == "error"


def test_chain_43_and_42(capsys):
    code, rep = run_json(capsys, "chain", "--m", "43")
    assert code == 0
    assert rep["outcome"] == "ok"
    assert rep["payload"]["contradiction_at"] == "43"
    assert rep["payload"]["lower_bounds_abs_sq"]["25"] == str(2**134)

    code42, rep42 = run_json(capsys, "chain", "--m", "42")
    assert code42 == 1
    assert rep42["outcome"] == "inapplicable"
    assert rep42["payload"]["contradiction_at"] == "none"


def test_gap_inapplicable_lists_failures(capsys):
    code, rep = run_json(capsys, "gap", "--d", "-1", "--elems", "1,0;2,0;3,0")
    assert code == 1
    assert rep["outcome"] == "inapplicable"
    failures = rep["payload"]["failing_hypotheses"]
    assert "|b| > 5" in failures
    assert "|c| > |b|^15" in failures


def test_gap_certification_failure_is_inapplicable(capsys, monkeypatch):
    from diophiq import gap

    monkeypatch.setattr(gap, "_exact_checks", lambda *args: {"lambda > 1": False})
    code, rep = run_json(capsys, *GOLDEN["gap_d-11_criterion4"])
    assert code == 1
    assert rep["outcome"] == "inapplicable"
    assert rep["payload"] == {
        "reason": "certification failed: {'L > 1': True, 'lambda > 1': False}"
    }


def test_extend_finds_120(capsys):
    code, rep = run_json(
        capsys, "extend", "--d", "-1", "--elems", "1,0;3,0;8,0", "--bound", "1000"
    )
    assert code == 0
    assert "120,0" in rep["payload"]["extensions"]
    assert rep["payload"]["regular_candidates"]["verified"] == ["120,0"]


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--d", "-1", "--size", "3", "--bound", "-4"],
        ["extend", "--d", "-1", "--elems", "1,0;3,0;8,0", "--bound", "-20"],
    ],
    ids=["search", "extend"],
)
def test_negative_bound_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--bound" in capsys.readouterr().err


def test_bound_and_bound_sq_together_is_usage_error(capsys):
    # --bound-sq used to override --bound silently, also a --bound equal to its default
    for bound in ("3", "16"):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--d", "-1", "--bound", bound, "--bound-sq", "30", "--size", "3"])
        assert exc.value.code == 2
        assert "--bound-sq: not allowed with argument --bound" in capsys.readouterr().err
    code, rep = run_json(capsys, "search", "--d", "-1", "--size", "3")
    assert code == 0
    assert rep["config"]["bound_abs_sq"] == "256"  # --bound defaults to 16


@pytest.mark.parametrize("d", ["-1", "-3"])
def test_extend_verifies_its_triple_once(capsys, monkeypatch, d):
    # the triple's pairs are rooted once; the regular candidates read its witnesses
    from diophiq import cli, tuples

    calls = []

    def counting(fn):
        def wrapped(*args):
            calls.append(args)
            return fn(*args)

        return wrapped

    for module in (cli, tuples):  # search.py does not import make_tuple
        monkeypatch.setattr(module, "make_tuple", counting(tuples.make_tuple))
    code, rep = run_json(capsys, "extend", "--d", d, "--elems", "1,0;3,0;8,0", "--bound", "130")
    assert code == 0 and rep["payload"]["regular_candidates"]["verified"] == ["120,0"]
    assert len(calls) == 1


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_nonpositive_threads_is_usage_error(capsys, threads):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--sweep", "--bound", "2", "--size", "5", "--threads", threads, "--expect-empty"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--bound", "0", "--size", "5"],
        ["--bound", "0", "--size", "1"],
        ["--bound", "0", "--size", "-3"],
        ["--bound-sq", "-5", "--size", "5"],
        ["--bound-sq", "-1000000000000", "--size", "5"],
    ],
    ids=["bound0", "size1", "size-3", "bound-sq-5", "bound-sq-1e12"],
)
def test_empty_sweep_range_is_usage_error(capsys, argv):
    # no ring lies in range, so no per-ring check runs; the sweep must still
    # refuse the input rather than report an empty (and --expect-empty ok) result
    code = main(["search", "--sweep", *argv, "--expect-empty"])
    assert code == 2
    assert capsys.readouterr().err == "error: max_abs_sq must be >= 1\n"


@pytest.mark.parametrize("target", [["--d", "-1"], ["--sweep"]], ids=["ring", "sweep"])
@pytest.mark.parametrize(
    "extra",
    [["--mode", "count"], ["--mode", "find-first"], ["--mode", "find-all"], ["--min-sq", "4"]],
    ids=["count", "find-first", "find-all", "min-sq4"],
)
def test_retired_search_options_are_refused(capsys, tmp_path, target, extra):
    # every search finds every tuple of its disk: a first-hit or count-only
    # mode and an annulus's lower norm are unknown options, refused by argparse
    # before any ring is searched or any cache directory is made
    cache = tmp_path / "cache"
    with pytest.raises(SystemExit) as exc:
        main(["search", *target, "--bound", "3", "--size", "3", *extra, "--cache-dir", str(cache)])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert f"unrecognized arguments: {' '.join(extra)}" in err
    assert not cache.exists()


def test_single_ring_search_rejects_threads(capsys):
    # only the sweep starts workers; a single-ring search used to drop the option
    code = main(["search", "--d", "-1", "--bound", "3", "--size", "3", "--threads", "4"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --threads needs --sweep: a single-ring search runs in one process\n"


def test_text_format_default(capsys):
    code, out = run_cli(capsys, "chain", "--m", "43")
    assert code == 0
    assert out.startswith("chain: ok")


def test_sweep_small_bound(capsys):
    code, rep = run_json(
        capsys, "search", "--sweep", "--bound", "1", "--size", "2", "--threads", "2"
    )
    # unit pairs exist ({-1, 1} and friends), so a size-2 sweep finds tuples
    assert code == 0
    # a non-real element with abs_sq <= 1 needs |d| <= 4: d = -1, -2, -3
    assert int(rep["payload"]["rings_checked"]) == 3
    assert rep["payload"]["completeness"]["half_basis_cutoff"] == "4"
    assert len(rep["payload"]["tuples"]) > 0
    # no listed ring holds only rational elements: the rational pass runs in d = -5
    assert rep["payload"]["rational_pass_tuples"] == ["-1,1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--d", "-1", "--bound", "5", "--size", "3"],
        ["search", "--sweep", "--bound", "3", "--size", "3"],
    ],
    ids=["single", "sweep"],
)
def test_cache_dir_flag(capsys, tmp_path, argv):
    # the second run is served from the cache and must print the same report
    cold = run_cli(capsys, *argv, "--cache-dir", str(tmp_path), "--format", "json")
    assert list(tmp_path.iterdir())
    warm = run_cli(capsys, *argv, "--cache-dir", str(tmp_path), "--format", "json")
    assert cold[0] == 0
    assert warm == cold


@pytest.mark.parametrize(
    "argv, under_file",
    [
        (["search", "--d", "-1", "--bound", "5", "--size", "3"], True),
        (["search", "--sweep", "--bound", "3", "--size", "3", "--expect-empty"], False),
    ],
    ids=["single", "sweep"],
)
def test_unusable_cache_dir_is_usage_error(capsys, monkeypatch, tmp_path, argv, under_file):
    # exit 1 is "tuple found" under --expect-empty; a cache directory that is
    # a file, or lies under one, is a usage error found before any ring is searched
    for module in ("diophiq.cli", "diophiq.search"):
        monkeypatch.setattr(f"{module}.find_m_tuples", lambda *args, **kw: pytest.fail("searched a ring"))
    blocker = tmp_path / "file"
    blocker.write_text("")
    cache = blocker / "cache" if under_file else blocker
    code = main([*argv, "--cache-dir", str(cache)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: --cache-dir {cache} is not a usable directory: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "name, fmt",
    [
        pytest.param(name, fmt, id=name if fmt == "json" else f"{name}-text")
        for name in sorted(GOLDEN)
        for fmt in ("json", "text")
    ],
)
def test_golden_report(capsys, name, fmt):
    argv = [*GOLDEN[name], "--format", "json"] if fmt == "json" else GOLDEN[name]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == (DATA / f"{name}.{'json' if fmt == 'json' else 'txt'}").read_text()


def test_pooled_sweep_prints_the_golden_report(capsys):
    # the golden's sweep in two worker processes: its quadruples' rows, roots
    # of the conjugate edge images among them, cross a process boundary before
    # the parent's gate.  --threads takes no part in the report
    argv = GOLDEN["sweep_b16_m4"]
    assert argv[-2:] == ["--threads", "1"]
    code, out = run_cli(capsys, *argv[:-1], "2", "--format", "json")
    assert code == 0
    assert out == (DATA / "sweep_b16_m4.json").read_text()


def written(value) -> str:
    """What _json passes to its write callable for value, joined."""
    chunks = []
    _json(value, chunks.append)
    return "".join(chunks)


def as_maps(value):
    """value with every list replaced by a map over it, as the search tuples are."""
    if type(value) is list:
        return map(as_maps, value)
    if type(value) is dict:
        return {k: as_maps(v) for k, v in value.items()}
    return value


@pytest.mark.parametrize("path", sorted(DATA.glob("*.json")), ids=lambda p: p.stem)
def test_report_writer_matches_json_dumps_on_goldens(path):
    value = json.loads(path.read_text())
    assert written(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


# nested payloads of str and int, the report's value types: empty containers,
# non-ASCII text, control characters and ints of any size included
PAYLOADS = st.recursive(
    st.text() | st.integers() | st.integers(min_value=-(10**40), max_value=10**40),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(), kids, max_size=4),
    max_leaves=40,
)


@given(PAYLOADS)
@example({})
@example([])
@example({"": [], "\u00e9\u2028\U0001f600": {"\x00\x1f\x7f\"\\/": -(10**30)}})
def test_report_writer_matches_json_dumps(value):
    # a map is written as the list it yields
    dumped = json.dumps(value, sort_keys=True, indent=2) + "\n"
    assert written(value) == dumped
    assert written(as_maps(value)) == dumped


@pytest.mark.parametrize(
    "value",
    [1.5, float("nan"), True, False, None, (1, 2), {1: "a"}, {"a": [0, None]}, {"a": {"b": 2.0}}, [{(1,): 1}]],
    ids=repr,
)
def test_report_writer_refuses_other_values(value):
    with pytest.raises(TypeError):
        written(value)


@pytest.mark.parametrize("item", [1.5, True, None], ids=repr)
def test_report_writer_refuses_other_values_from_a_map(item):
    with pytest.raises(TypeError):
        written({"tuples": map(lambda x: x, ["0", item])})


def test_report_writer_writes_an_empty_map_as_an_empty_list():
    assert written({"a": map(str, []), "b": [map(int, ())]}) == '{\n  "a": [],\n  "b": [\n    []\n  ]\n}\n'


class CountingSink:
    """A stdout that keeps only the length of each write and a digest of them all."""

    def __init__(self):
        self.sizes = []
        self.digest = hashlib.sha256()

    def write(self, text):
        self.sizes.append(len(text))
        self.digest.update(text.encode())
        return len(text)

    def flush(self):
        pass


def test_sweep_report_streams_in_bounded_chunks(capsys, monkeypatch):
    # the 189 kB report of 1,074 tuples goes out in pieces of at most 64 KiB;
    # no tuple list is built before the write, and the write holds less than
    # twice the report's length of new memory
    argv = ["search", "--sweep", "--bound", "8", "--size", "3", "--threads", "1", "--format", "json"]
    code, whole = run_cli(capsys, *argv)
    assert code == 0
    sink, traced = CountingSink(), {}
    sweep, emit = cli.quintuple_sweep, cli._emit

    def traced_sweep(*args, **kwargs):
        rep = sweep(*args, **kwargs)
        traced["swept"] = tracemalloc.get_traced_memory()[0]
        return rep

    def traced_emit(report, fmt):
        tracemalloc.reset_peak()
        traced["entry"] = tracemalloc.get_traced_memory()[0]
        emit(report, fmt)
        traced["peak"] = tracemalloc.get_traced_memory()[1]

    monkeypatch.setattr(cli, "quintuple_sweep", traced_sweep)
    monkeypatch.setattr(cli, "_emit", traced_emit)
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        assert main(argv) == 0
    finally:
        tracemalloc.stop()
    assert len(sink.sizes) > 1
    assert max(sink.sizes) <= 64 * 1024
    assert (sum(sink.sizes), sink.digest.hexdigest()) == (len(whole), hashlib.sha256(whole.encode()).hexdigest())
    assert traced["entry"] - traced["swept"] < len(whole) // 4
    assert traced["peak"] - traced["entry"] < 2 * len(whole)


@pytest.mark.parametrize("name", sorted(ERROR_REPORTS))
def test_error_report_echoes_config_and_reason(capsys, name):
    argv, config, reason = ERROR_REPORTS[name]
    code, rep = run_json(capsys, *argv)
    assert code == 2
    assert rep["outcome"] == "error"
    assert rep["config"] == config
    assert rep["payload"] == {"reason": reason}


@pytest.mark.parametrize(
    "argv",
    [
        *(pytest.param(GOLDEN[name], id=name) for name in sorted(GOLDEN)),
        *(pytest.param(ERROR_REPORTS[name][0], id=name) for name in sorted(ERROR_REPORTS)),
        pytest.param(["chain", "--m", "42"], id="chain_m42"),
        pytest.param(["search", "--d", "-1", "--bound", "4", "--size", "3", "--expect-empty"], id="expect_empty_found"),
    ],
)
def test_exit_code_follows_outcome(capsys, argv):
    code, rep = run_json(capsys, *argv)
    assert code == OUTCOME_EXIT[rep["outcome"]]


def test_main_builds_one_parser_per_process(capsys):
    build_parser.cache_clear()
    assert run_cli(capsys, *GOLDEN["chain_m43"])[0] == 0
    assert run_json(capsys, *GOLDEN["verify_d-1_1_3_8_120"])[0] == 0
    assert build_parser.cache_info()[:2] == (1, 1)  # (hits, misses): one parser, used twice


def test_cache_dir_has_no_environment_default(capsys, monkeypatch, tmp_path):
    # only --cache-dir names a cache: a variable pointing at a file changes nothing
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("DIOPH_CACHE_DIR", str(blocker))
    code, rep = run_json(capsys, "search", "--d", "-1", "--bound", "5", "--size", "3")
    assert code == 0
    assert rep["outcome"] == "ok"


def test_cli_import_loads_no_certified_arithmetic():
    # search, extend and verify (a quadruple's checks too) run on the search
    # layer alone; gap, exactreal, pell and mpmath load only when gap or chain runs
    src = str(Path(diophiq.__file__).parents[1])
    code = (
        "import contextlib, io, sys, diophiq.cli\n"
        "certified = ('diophiq.gap', 'diophiq.exactreal', 'diophiq.pell', 'mpmath')\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    diophiq.cli.main(['extend', '--d', '-1', '--elems=1,0;3,0;8,0', '--bound', '30'])\n"
        "    diophiq.cli.main(['verify', '--d', '-1', '--elems=2,0;4,0;12,0;420,0'])\n"
        "print(sorted(m for m in certified if m in sys.modules))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    diophiq.cli.main(['chain', '--m', '43'])\n"
        "print('diophiq.gap' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out == "[]\nTrue\n"


def _chain_report_lines(capsys):
    """One line per m in 4..60: m, then the exit code and stdout of
    `chain --m m` in JSON and in the default text format."""
    lines = []
    for m in range(4, 61):
        json_code, json_out = run_cli(capsys, "chain", "--m", str(m), "--format", "json")
        text_code, text_out = run_cli(capsys, "chain", "--m", str(m))
        lines.append(repr((m, json_code, json_out, text_code, text_out)))
    return lines


def test_chain_reports_digest_is_pinned(capsys):
    lines = _chain_report_lines(capsys)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert {"m": [4, 60], "sha256": digest} == json.loads(CHAIN_DIGEST.read_text())


def test_broken_pipe_exits_with_the_outcome_code():
    # a reader that stops after one line (`| head -1`) closes the pipe while the
    # report is still being written: no traceback, and exit 0 for "ok".  The
    # one-ring report is 152 kB; the sweep's 189 kB report streams, so its pipe
    # breaks while _json is still in the tuple list
    src = str(Path(diophiq.__file__).parents[1])
    for argv in (
        ["search", "--d", "-1", "--bound", "16", "--size", "3", "--format", "json"],
        ["search", "--sweep", "--bound", "8", "--size", "3", "--threads", "1", "--format", "json"],
    ):
        proc = subprocess.Popen(
            [sys.executable, "-m", "diophiq.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (argv, proc.wait(timeout=60), err) == (argv, 0, b"")


def _swap_first_two(lines):
    return [lines[1], lines[0], *lines[2:]]


def _repeat_first(lines):
    return [lines[0], lines[0], *lines[2:]]


def _stats_not_ints(lines):
    return [*lines[:-1], json.dumps({"count": len(lines) - 1, "stats": [84.9, "3486", True]})]


def _with_stats(*stats):
    return lambda lines: [*lines[:-1], json.dumps({"count": len(lines) - 1, "stats": list(stats)})]


@pytest.mark.parametrize(
    "corrupt",
    [
        _swap_first_two,
        _repeat_first,
        _stats_not_ints,
        # n(n-1)/2 of its elements, but not the 84 disk points of the search
        pytest.param(_with_stats(1084, 1084 * 1083 // 2, 158), id="_stats_elements"),
        pytest.param(_with_stats(84, 3487, 158), id="_stats_pairs_tested"),
        pytest.param(_with_stats(84, 3486, -1), id="_stats_cliques_explored"),
    ],
)
def test_corrupted_cache_file_is_recomputed(capsys, tmp_path, corrupt):
    # tuples out of order or repeated, counts that int() would accept, or counts
    # of another search: the warm run searches again, rewrites the file and
    # prints the cold report
    argv = ["search", "--d", "-2", "--bound", "6", "--size", "3", "--cache-dir", str(tmp_path), "--format", "json"]
    cold = run_cli(capsys, *argv)
    (path,) = tmp_path.iterdir()
    stored = path.read_text()
    lines = stored.splitlines()
    assert json.loads(lines[-1]) == {"count": 38, "stats": [84, 3486, 158]}
    path.write_text("\n".join(corrupt(lines)) + "\n")
    assert run_cli(capsys, *argv) == cold
    assert path.read_text() == stored


@pytest.mark.parametrize(
    "argv, name",
    [
        (["search", "--d", "-1", "--bound", "4", "--size", "3"], "d-1_b16_m3.jsonl"),
        (["search", "--sweep", "--bound", "3", "--size", "3", "--threads", "1"], "d-1_b9_m3.jsonl"),
        (["search", "--sweep", "--bound", "3", "--size", "3", "--threads", "2"], "d-1_b9_m3.jsonl"),
    ],
    ids=["single", "sweep", "sweep-pooled"],
)
def test_failed_cache_store_is_usage_error(capsys, tmp_path, argv, name):
    # exit 1 is "tuple found" under --expect-empty; a result that cannot be
    # stored, here over a directory in the file's place, is exit 2 with one
    # stderr line, and the store leaves no temp file behind
    (tmp_path / name).mkdir()
    code = main([*argv, "--expect-empty", "--cache-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"error: --cache-dir {tmp_path} is not a usable directory: Is a directory\n"
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


@pytest.mark.xfail(raises=AssertionError, strict=True, reason="a file with a row removed and its count lowered passes")
def test_cache_with_a_dropped_row_cannot_shrink_a_result(capsys, tmp_path):
    # the gate refuses false, out-of-range and misordered rows, but no check on
    # a file alone can show that a tuple is missing: the warm run prints count
    # 131 where the cold one prints 132
    argv = ["search", "--d", "-1", "--bound", "8", "--size", "3", "--cache-dir", str(tmp_path), "--format", "json"]
    cold = run_cli(capsys, *argv)
    path = tmp_path / "d-1_b64_m3.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    closing = json.loads(lines[-1])
    closing["count"] -= 1
    path.write_text("".join(lines[1:-1]) + json.dumps(closing) + "\n")
    assert run_cli(capsys, *argv) == cold
