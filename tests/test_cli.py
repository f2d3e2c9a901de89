import json
from pathlib import Path

import pytest

from diophiq.cli import main

DATA = Path(__file__).parent / "data"

# stored --format json reports of fixed inputs; the name is the file in DATA
GOLDEN = {
    "search_d-3_b6_m3": ["search", "--d", "-3", "--bound", "6", "--size", "3"],
    "search_d-2_b6_m3": ["search", "--d", "-2", "--bound", "6", "--size", "3"],
    "extend_d-1_1_3_8_b130": ["extend", "--d", "-1", "--elems", "1,0;3,0;8,0", "--bound", "130"],
    "extend_d-3_1_3_8_b130": ["extend", "--d", "-3", "--elems", "1,0;3,0;8,0", "--bound", "130"],
    "verify_d-1_1_3_8_120": ["verify", "--d", "-1", "--elems", "1,0;3,0;8,0;120,0"],
    "gap_d-11_criterion4": ["gap", "--d", "-11", "--elems", "4,1;9,-1;580259305885538,354"],
    "chain_m43": ["chain", "--m", "43"],
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
    ],
    ids=["bound0", "size1", "size-3", "bound-sq-5"],
)
def test_empty_sweep_range_is_usage_error(capsys, argv):
    # no ring lies in range, so no per-ring check runs; the sweep must still
    # refuse the input rather than report an empty (and --expect-empty ok) result
    code = main(["search", "--sweep", *argv, "--expect-empty"])
    assert code == 2
    assert capsys.readouterr().err == "error: max_abs_sq must be >= 1\n"


@pytest.mark.parametrize(
    "extra",
    [["--mode", "count"], ["--mode", "find-first"], ["--min-sq", "4"]],
    ids=["count", "find-first", "min-sq4"],
)
def test_sweep_rejects_options_it_ignores(capsys, extra):
    code = main(["search", "--sweep", "--bound", "3", "--size", "3", *extra])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --sweep takes no --mode or --min-sq: it finds every tuple\n"


@pytest.mark.parametrize(
    "extra, count, config_min_sq",
    [([], "10", None), (["--min-sq", "1"], "10", None), (["--min-sq", "4"], "4", "4")],
    ids=["default", "min-sq1", "min-sq4"],
)
def test_search_report_records_min_sq(capsys, extra, count, config_min_sq):
    # the key appears only when it is not 1, like the cache file's _min suffix
    code, rep = run_json(capsys, "search", "--d", "-1", "--bound", "3", "--size", "3", *extra)
    assert code == 0
    assert rep["payload"]["count"] == count
    assert rep["config"].get("min_sq") == config_min_sq


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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report(capsys, name):
    code, out = run_cli(capsys, *GOLDEN[name], "--format", "json")
    assert code == 0
    assert out == (DATA / f"{name}.json").read_text()
