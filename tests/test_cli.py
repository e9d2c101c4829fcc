import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solshoot import bryant, cli, shooting
from solshoot.errors import EventNotReached, ShootFailure
from solshoot.shooting import ROUND_DELTAS, shoot_surface_point


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    meta, columns, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# columns: "):
            columns = tuple(line[len("# columns: ") :].split(","))
        elif line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        else:
            rows.append(line.split(","))
    return meta, columns, rows


# ------------------------------------------------------------ happy paths


def test_root_finds_round_soliton(capsys):
    code, out = run(capsys, ["root", "--guess", "0.05,-0.8,0.6"])
    assert code == 0
    meta, columns, rows = parse_csv(out)
    assert columns == (
        "delta1",
        "delta2",
        "delta3",
        "residual_inf",
        "iterations",
        "converged",
    )
    assert len(rows) == 1
    d1, d2, d3 = (float(v) for v in rows[0][:3])
    assert abs(d1 - 1.0 / 18.0) < 1e-6
    assert abs(d2 - (-7.0 / 9.0)) < 1e-6
    assert abs(d3 - 1.0 / math.sqrt(3.0)) < 1e-6
    assert int(rows[0][4]) <= 25
    assert rows[0][5] == "true"


def test_verify_delta3_passes(capsys):
    code, out = run(capsys, ["verify-delta3"])
    assert code == 0
    _, columns, rows = parse_csv(out)
    assert columns == ("closed_form", "quadrature", "first_term", "status")
    assert rows[0][-1] == "pass"
    assert float(rows[0][0]) > 1.0
    assert float(rows[0][2]) >= 1.89


def test_shoot_s1_reports_meet(capsys):
    code, out = run(capsys, ["shoot-s1", "--delta1", "0.0555"])
    assert code == 0
    meta, columns, rows = parse_csv(out)
    assert columns == ("delta1", "l1", "l2", "r", "t_meet", "n_nodes")
    l1, l2, r = (float(v) for v in rows[0][1:4])
    assert l1 < 0.0 < r


@pytest.mark.parametrize("delta1", ["1e6", "1e14", "1e19"])
def test_shoot_s1_at_large_delta1_reaches_its_meet(capsys, delta1):
    # the stiff regime, where the Radau step reaches the meet near
    # t = 6 sqrt(delta1) in seconds, however far out it lies
    start = time.perf_counter()
    code, out = run(capsys, ["shoot-s1", "--delta1", delta1])
    elapsed = time.perf_counter() - start
    assert code == 0
    _, _, rows = parse_csv(out)
    meet = [float(v) for v in rows[0][1:5]]
    assert all(math.isfinite(v) for v in meet)
    assert abs(meet[3] / (6.0 * math.sqrt(float(delta1))) - 1.0) < 0.01
    assert elapsed < 15.0


def test_exploratory_admits_negative_delta1(capsys):
    code, out = run(capsys, ["shoot-s1", "--delta1", "-0.5", "--exploratory"])
    assert code == 0
    meta, _, _ = parse_csv(out)
    assert meta["exploratory"] == "true"


def test_mismatch_near_root_is_small(capsys):
    code, out = run(
        capsys,
        [
            "mismatch",
            "--delta1",
            "0.0555555555",
            "--delta2",
            "-0.7777777777",
            "--delta3",
            "0.5773502691",
        ],
    )
    assert code == 0
    _, columns, rows = parse_csv(out)
    assert columns[-1] == "f_inf"
    assert float(rows[0][-1]) < 1e-5


def test_verify_maxprinciple_suite_passes(capsys):
    code, out = run(capsys, ["verify-maxprinciple"])
    assert code == 0
    _, _, rows = parse_csv(out)
    cases = {row[0]: row for row in rows}
    assert set(cases) == {"round-s1", "round-s2", "gaussian"}
    for row in rows:
        assert float(row[1]) >= -1e-8
        assert float(row[3]) >= -1e-8
        assert int(row[5]) == 0
        assert row[-1] == "pass"


def test_verify_maxprinciple_custom_params_report_only(capsys):
    code, out = run(capsys, ["verify-maxprinciple", "--delta1", "0.4"])
    assert code == 0
    _, _, rows = parse_csv(out)
    assert len(rows) == 1
    assert rows[0][0] == "custom-s1"
    assert rows[0][-1] == "report"


def test_compare_bryant_record(capsys):
    code, out = run(capsys, ["compare-bryant", "--delta1", "1000"])
    assert code == 0
    _, columns, rows = parse_csv(out)
    assert columns == ("delta1", "p_squared", "sup_dev", "c_obs", "status")
    assert abs(float(rows[0][1]) - 1e-3) < 1e-15
    assert rows[0][-1] == "pass"


# ------------------------------------------------------- headers and files


def test_header_echoes_full_configuration(capsys):
    code, out = run(
        capsys,
        ["verify-delta3", "--tol-rel", "1e-9", "--t-eps", "2e-4"],
    )
    assert code == 0
    meta, _, _ = parse_csv(out)
    assert meta["tool"] == "solshoot"
    assert meta["subcommand"] == "verify-delta3"
    assert float(meta["tol_rel"]) == 1e-9
    assert float(meta["tol_abs"]) == 1e-12
    assert float(meta["t_eps"]) == 2e-4
    assert meta["exploratory"] == "false"
    assert meta["format"] == "csv"
    assert meta["random_free"] == "true"
    assert int(meta["workers"]) >= 1
    assert "version" in meta


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_shot_header_reports_handoff_and_counters(capsys, fmt):
    # a large delta3 shrinks the handoff below t_eps (``_effective_eps``)
    code, out = run(capsys, ["shoot-s2", "--delta2", "-0.5", "--delta3", "2e4", "--format", fmt])
    assert code == 0
    if fmt == "csv":
        meta = parse_csv(out)[0]
    else:
        meta = {key: str(value) for key, value in json.loads(out)["meta"].items()}
    _, traj = shoot_surface_point(-0.5, 2e4)
    assert meta["t_eps"] == repr(shooting._MAX_EPS) == "0.1"
    assert meta["handoff_eps"] == "5e-06" == repr(traj.t0)
    counters = (int(meta["rhs_evals"]), int(meta["rejected_steps"]))
    assert counters == (traj.n_rhs_evals, traj.n_rejected) == (473, 3)


def test_reruns_are_byte_identical(capsys):
    _, first = run(capsys, ["shoot-s2", "--delta2", "-0.5", "--delta3", "0.5"])
    _, second = run(capsys, ["shoot-s2", "--delta2", "-0.5", "--delta3", "0.5"])
    assert first == second


def test_sweep_defaults_to_named_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, ["curve", "--range", "0.05,0.06", "--n", "3"])
    assert code == 0
    assert out == ""
    text = (tmp_path / "curve.csv").read_text()
    meta, columns, rows = parse_csv(text)
    assert columns == (
        "delta1",
        "l1",
        "l2",
        "r",
        "min_k_t1",
        "min_k_s",
        "min_k_m",
        "min_k_t2",
        "status",
    )
    assert len(rows) == 3
    assert all(row[-1] == "ok" for row in rows)


def test_out_flag_overrides_default(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code, _ = run(
        capsys,
        ["curve", "--range", "0.05,0.06", "--n", "2", "--out", str(target)],
    )
    assert code == 0
    assert target.exists()


def test_report_defaults_to_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, ["verify-delta3"])
    assert code == 0
    assert "closed_form" in out
    assert list(tmp_path.iterdir()) == []


def test_json_document_shape(capsys):
    code, out = run(capsys, ["verify-delta3", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["subcommand"] == "verify-delta3"
    assert doc["meta"]["format"] == "json"
    record = doc["records"][0]
    assert set(record) == {"closed_form", "quadrature", "first_term", "status"}
    assert record["status"] == "pass"


def test_scan_meta_reports_grid_bound(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _ = run(capsys, ["scan", "--resolution", "4"])
    assert code == 0
    meta, columns, rows = parse_csv((tmp_path / "scan.csv").read_text())
    assert columns == ("delta1", "delta2", "delta3", "f_inf", "n_nodes", "i1", "i2", "i3")
    assert float(meta["grid_bound"]) > 0.0
    assert int(meta["n_failed"]) == 0
    assert int(meta["n_minima"]) == len(rows)


def test_pancake_build_writes_profile(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _ = run(capsys, ["pancake-build", "--length", "10", "--grid-n", "1000"])
    assert code == 0
    meta, columns, rows = parse_csv((tmp_path / "pancake-build.csv").read_text())
    assert columns == ("r", "f1", "f2")
    assert len(rows) == 1001
    assert float(meta["volume"]) > 0.0
    assert float(meta["diameter_low"]) == 11.0
    assert float(meta["max_smoothness_residual"]) < 1e-6


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "--range", "0.05,0.5", "--n", "3"],
        ["scan", "--resolution", "3", "--box", "0,0.2,-1,-0.5,0.4,0.8"],
        ["scan", "--resolution", "4"],
    ],
    ids=["curve", "scan", "scan-default-box"],
)
def test_sweep_records_do_not_depend_on_worker_count(tmp_path, capsys, argv):
    texts = []
    for workers in ("1", "2"):
        target = tmp_path / f"workers{workers}.csv"
        code, _ = run(capsys, argv + ["--workers", workers, "--out", str(target)])
        assert code == 0
        texts.append(target.read_text())
    records = [[ln for ln in t.splitlines() if not ln.startswith("# ")] for t in texts]
    assert records[0] and records[0] == records[1]
    # the header differs only where it echoes the worker count
    assert texts[0].replace("# workers = 1\n", "# workers = 2\n") == texts[1]


# sweeps with failed nodes: (argv, parameter columns, the parameters of
# every node, the nodes expected to fail)
_FAILED_SWEEPS = {
    # both launches lie past the blow-up guard, so each shot ends at once
    "curve": (
        ["curve", "--range", "3e21,4e21", "--n", "2"],
        ("delta1",),
        [(3e21,), (4e21,)],
        {(3e21,), (4e21,)},
    ),
    # delta2 = -1.5 is inadmissible; the delta2 = -0.5 nodes meet
    "surface": (
        ["surface", "--d2-range=-1.5,-0.5", "--d3-range", "0.5,0.6", "--n2", "2", "--n3", "2"],
        ("delta2", "delta3"),
        [(-1.5, 0.5), (-1.5, 0.6), (-0.5, 0.5), (-0.5, 0.6)],
        {(-1.5, 0.5), (-1.5, 0.6)},
    ),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("subcommand", sorted(_FAILED_SWEEPS))
def test_failed_sweep_nodes_keep_parameters_and_read_nan(tmp_path, capsys, subcommand, fmt):
    argv, names, nodes, failing = _FAILED_SWEEPS[subcommand]
    target = tmp_path / f"out.{fmt}"
    code = cli.main(argv + ["--out", str(target), "--format", fmt])
    capsys.readouterr()
    assert code == 0
    text = target.read_text()
    if fmt == "csv":
        _, columns, rows = parse_csv(text)
        records = [dict(zip(columns, row, strict=True)) for row in rows]
    else:
        records = json.loads(text)["records"]
    assert [tuple(float(rec[k]) for k in names) for rec in records] == nodes
    for node, rec in zip(nodes, records):
        values = [float(v) for k, v in rec.items() if k not in names and k != "status"]
        if node in failing:
            assert all(math.isnan(v) for v in values)
            assert rec["status"].startswith("failed: ") and "," not in rec["status"]
        else:
            # an ok node (a surface one here) reads as its own shot, whatever
            # failed beside it
            meet, _ = shoot_surface_point(*node, shooting.ShootConfig())
            assert values == list(meet) and rec["status"] == "ok"


def test_pancake_curvature_passes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _ = run(capsys, ["pancake-curvature", "--length", "10", "--grid-n", "1000"])
    assert code == 0
    meta, columns, rows = parse_csv((tmp_path / "pancake-curvature.csv").read_text())
    assert columns == ("r", "f1", "f2", "k_t1", "k_t2", "k_s", "k_m", "S")
    assert len(rows) == 1001
    assert float(meta["min_eig"]) >= -1e-9
    assert float(meta["s_min"]) == 2.0
    assert meta["status"] == "pass"


def _readme_column_table():
    # the "Frozen CSV column orders" table: {first cell: column tuple}
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("### Frozen CSV column orders", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `?([^`|]+?)`? +\| `([^`]+)` +\|$", section, flags=re.M)
    return {name: tuple(cols.split(",")) for name, cols in rows}


_FROZEN_COLUMNS = _readme_column_table()

# one cheap invocation per table row, with the exit code it should give
_TABLE_RUNS = {
    "shoot-s1": (["shoot-s1", "--delta1", "0.0555"], 0),
    "shoot-s2": (["shoot-s2", "--delta2", "-0.5", "--delta3", "0.5"], 0),
    "mismatch": (["mismatch", "--delta1", "0.06", "--delta2", "-0.78", "--delta3", "0.58"], 0),
    "root": (["root", "--guess", ",".join(repr(d) for d in ROUND_DELTAS)], 0),
    "curve": (["curve", "--range", "0.05,0.06", "--n", "2", "--workers", "1"], 0),
    "surface": (["surface", "--d2-range=-0.5,-0.4", "--d3-range", "0.5,0.6", "--n2", "2", "--n3", "2", "--workers", "1"], 0),
    "scan": (["scan", "--resolution", "3", "--workers", "1"], 0),
    "verify-maxprinciple": (["verify-maxprinciple"], 0),
    "verify-delta3": (["verify-delta3"], 0),
    "verify-bryant": (["verify-bryant"], 0),
    "verify-bryant --curve-out": (["verify-bryant", "--curve-out"], 0),
    "verify-smalltime": (["verify-smalltime"], 0),
    "trace-pancake-limit": (["trace-pancake-limit", "--delta1", "100"], 0),
    "compare-bryant": (["compare-bryant", "--delta1", "100"], 0),
    "pancake-build": (["pancake-build", "--length", "10", "--grid-n", "1000"], 0),
    "pancake-curvature": (["pancake-curvature", "--length", "10", "--grid-n", "1000"], 0),
    "error records": (["shoot-s1", "--delta1", "-1"], 64),
}


def test_readme_column_table_lists_every_output():
    assert set(_FROZEN_COLUMNS) == set(_TABLE_RUNS)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("row", sorted(_TABLE_RUNS))
def test_output_columns_match_readme_table(tmp_path, capsys, row, fmt):
    argv, expected = _TABLE_RUNS[row]
    target = tmp_path / f"out.{fmt}"
    # --curve-out takes the path as its value; every other row writes --out
    argv = argv + [str(target)] if argv[-1] == "--curve-out" else argv + ["--out", str(target)]
    code = cli.main(argv + ["--format", fmt])
    capsys.readouterr()
    assert code == expected
    columns = _FROZEN_COLUMNS[row]
    text = target.read_text()
    if fmt == "csv":
        _, got, records = parse_csv(text)
        assert got == columns
        assert records and all(len(rec) == len(columns) for rec in records)
    else:
        records = json.loads(text)["records"]
        assert records and all(tuple(rec) == columns for rec in records)


# refuses scipy and every scipy submodule before solshoot is imported, then
# runs each argv of argv[1] through cli.main and prints the exit codes
_NO_SCIPY = """
import json, sys
from importlib.abc import MetaPathFinder

class NoScipy(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")

sys.meta_path.insert(0, NoScipy())
from solshoot import cli
print(json.dumps([cli.main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_every_subcommand_runs_without_scipy(tmp_path):
    # the runtime is numpy alone: with every import of scipy refused, each
    # table run exits as it does with scipy installed
    subcommands = cli._build_parser()._actions[-1].choices  # the parser's last action: its subcommands
    assert {argv[0] for argv, _ in _TABLE_RUNS.values()} == set(subcommands)
    # --curve-out takes the path as its value; every other run writes --out
    argvs = [
        argv + ([] if argv[-1] == "--curve-out" else ["--out"]) + [str(tmp_path / f"{i}.out")]
        for i, (argv, _) in enumerate(_TABLE_RUNS.values())
    ]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    run = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, json.dumps(argvs)], env=env, cwd=tmp_path, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == [code for _, code in _TABLE_RUNS.values()]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["root", "--guess", "0.1,0.2"], "expected 3 comma-separated numbers, got '0.1,0.2'"),
        (["scan", "--box", "1,2"], "expected 6 comma-separated numbers, got '1,2'"),
        (["curve", "--range", "1"], "expected 2 comma-separated numbers, got '1'"),
        (["trace-pancake-limit", "--delta1", "1e2,abc"], "expected one or more comma-separated numbers, got '1e2,abc'"),
    ],
    ids=["root-guess", "scan-box", "curve-range", "trace-delta1"],
)
def test_list_flag_usage_error_says_what_was_expected(capsys, argv, expected):
    assert cli.main(argv) == 64
    err = capsys.readouterr().err
    assert expected in err
    # argparse names the type function when it swallows the reason
    assert re.search(r"(?<!\w)_\w", err) is None


# ---------------------------------------------------------------- failures


def test_inadmissible_parameter_exits_64(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, ["shoot-s1", "--delta1", "-1"])
    assert code == 64
    _, columns, rows = parse_csv(out)
    assert columns == ("error", "message")
    assert rows[0][0] == "InadmissibleParameters"


@pytest.mark.parametrize("t_eps", [repr(2 * shooting._MAX_EPS), "inf", "nan", "0"])
@pytest.mark.parametrize("subcommand", [["shoot-s1", "--delta1", "0.1"], ["verify-smalltime"]])
def test_handoff_outside_the_series_range_exits_64(capsys, subcommand, t_eps):
    # a handoff above _MAX_EPS is refused, not clamped to the largest one a shot
    # takes; the small-time checks, which launch at min(t_eps, 1e-4), too
    code, out = run(capsys, [*subcommand, "--t-eps", t_eps])
    assert code == 64
    _, columns, rows = parse_csv(out)
    assert columns == ("error", "message")
    assert rows[0][0] == "EpsilonTooLarge"


@pytest.mark.parametrize(
    "argv",
    [
        ["shoot-s1", "--delta1", "nan"],
        ["shoot-s1", "--exploratory", "--delta1", "nan"],
        ["shoot-s2", "--delta2", "nan", "--delta3", "0.5"],
        ["shoot-s1", "--delta1", "1", "--tol-rel", "-1"],
        ["shoot-s1", "--delta1", "1000", "--tol-rel", "1e-20"],
        ["verify-bryant", "--tol-rel", "-1"],
        ["shoot-s1", "--delta1", "1", "--tol-rel", "1e300"],
        ["shoot-s1", "--delta1", "1", "--tol-rel", "1"],
        ["shoot-s1", "--delta1", "1", "--tol-abs", "1"],
        ["verify-bryant", "--launch-offset", "0.5"],
        ["verify-bryant", "--launch-offset", "0"],
        ["verify-bryant", "--launch-offset=-1e-4"],
        ["verify-bryant", "--launch-offset", "nan"],
    ],
    ids=[
        "delta1-nan",
        "exploratory-delta1-nan",
        "delta2-nan",
        "negative-tol-rel",
        "tol-rel-below-floor",
        "bryant-negative-tol-rel",
        "tol-rel-huge",
        "tol-rel-one",
        "tol-abs-one",
        "launch-offset-large",
        "launch-offset-zero",
        "launch-offset-negative",
        "launch-offset-nan",
    ],
)
def test_bad_numbers_fail_fast_with_64(capsys, argv):
    start = time.perf_counter()
    code, out = run(capsys, argv)
    assert code == 64
    assert time.perf_counter() - start < 5.0
    _, columns, _ = parse_csv(out)
    assert columns == ("error", "message")


@pytest.mark.parametrize("flags", [["--tol-rel", "-1"], ["--tol-rel", "nan"], ["--tol-abs", "0"]])
@pytest.mark.parametrize(
    "subcommand",
    [["verify-delta3"], ["pancake-build", "--length", "10", "--grid-n", "1000"], ["pancake-curvature", "--length", "10", "--grid-n", "1000"]],
    ids=["verify-delta3", "pancake-build", "pancake-curvature"],
)
def test_bad_tolerances_exit_64_where_no_shot_is_taken(tmp_path, subcommand, flags):
    # the config refuses them; these subcommands used to exit 0 and echo them
    out = tmp_path / "out.csv"
    assert cli.main([*subcommand, *flags, "--out", str(out)]) == 64
    _, columns, rows = parse_csv(out.read_text())
    assert columns == ("error", "message")
    assert rows[0][0] == "ValueError"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["root", "--guess", "nan,-0.8,0.6"], 64),
        (["root", "--guess=-0.1,-0.8,0.6"], 64),
        (["scan", "--box", "0,1,-1,0,0,nan", "--resolution", "3"], 64),
        (["scan", "--box", "10,0,0,-1,40,0", "--resolution", "8"], 64),
        (["curve", "--range", "1,inf", "--n", "2"], 64),
        (["surface", "--d2-range=-1,nan", "--n2", "2", "--n3", "2"], 64),
        (["shoot-s1", "--delta1", "1e160"], 2),
        (["shoot-s1", "--delta1", "3e21"], 2),
        (["shoot-s2", "--delta2", "1e200", "--delta3", "0.5"], 2),
        (["shoot-s1", "--delta1", "0.5", "--tol-rel", "0.5", "--tol-abs", "0.5"], 2),
        (["shoot-s1", "--delta1", "1", "--tol-rel", "0.5"], 2),
        (["pancake-build", "--length", "1000"], 64),
        (["pancake-build", "--length", "1e300", "--grid-n", "1000"], 64),
    ],
    ids=[
        "root-nan-guess",
        "root-negative-guess",
        "scan-nan-bound",
        "scan-reversed-box",
        "curve-inf-bound",
        "surface-nan-bound",
        "s1-huge-delta1",
        "s1-launch-past-blowup-guard",
        "s2-huge-delta2",
        "s1-crude-tol-dense-overflow",
        "s1-crude-tol-event-past-guard",
        "pancake-coarse-grid",
        "pancake-huge-length",
    ],
)
def test_bad_input_fails_fast_with_error_record(tmp_path, monkeypatch, capsys, argv, expected):
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == expected
    assert elapsed < 5.0
    # sweeps write their error record to their default file
    sweep_file = tmp_path / f"{argv[0]}.csv"
    text = sweep_file.read_text() if sweep_file.exists() else captured.out
    _, columns, rows = parse_csv(text)
    assert columns == ("error", "message")
    assert "Traceback" not in captured.err
    assert "np.float64" not in rows[0][1]


@pytest.mark.parametrize(
    "argv, dense",
    [
        (["shoot-s1", "--delta1", "1", "--tol-rel", "0.5"], True),
        (["shoot-s1", "--delta1", "0.5", "--tol-rel", "0.5", "--tol-abs", "0.5"], True),
        (["shoot-s1", "--delta1", "3e21"], False),
    ],
    ids=["crude-tol", "crude-tols", "launch-past-size-guard"],
)
def test_blowup_record_names_a_non_finite_dense_output(capsys, argv, dense):
    # a crude step's dense output overflows while its state is O(1); the
    # size guard's blow-up, past 1e12 at the launch, keeps the plain record
    code, out = run(capsys, argv)
    assert code == 2
    message = parse_csv(out)[2][0][1]
    assert "stopped by blowup at t=" in message
    assert message.endswith(": the next step's dense output was not finite") == dense


# the cheap subcommands, each with its own flags at valid values; common
# flags are drawn on top.  Values are passed as --flag=value, so "-1" stays
# a value
_FUZZ_COMMANDS = {
    "shoot-s1": {"--delta1": "0.1"},
    "shoot-s2": {"--delta2": "-0.5", "--delta3": "0.7"},
    "mismatch": {"--delta1": "0.1", "--delta2": "-0.5", "--delta3": "0.7"},
    "verify-delta3": {},
    "pancake-build": {"--grid-n": "1000", "--length": "3", "--f2-window": "0.5,1.5", "--f1-window": "0.5,1.5"},
}
_FUZZ_VALUES = ["nan", "inf", "-inf", "-1", "0", "1e300", "-1e300", "abc", "", "1,2", "0.5", "1"]
# the slowest call seen takes 0.1 s (a valid mismatch)
_FUZZ_CALL_S = 5.0


def _assert_documented_exit(argv, out):
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([*argv, f"--out={out}"])
    assert code in (0, 1, 2, 64), argv
    assert time.perf_counter() - start < _FUZZ_CALL_S, argv
    assert "Traceback" not in err.getvalue(), argv


@st.composite
def _fuzz_argv(draw):
    sub = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    common = st.sampled_from(["--tol-rel", "--tol-abs", "--t-eps", "--workers", "--format"])
    flags = dict(_FUZZ_COMMANDS[sub])
    value = st.sampled_from(_FUZZ_VALUES)
    for flag in [*flags, *draw(st.lists(common, unique=True, max_size=2))]:
        if flag != "--grid-n":
            flags[flag] = draw(value) + (f",{draw(value)}" if flag.endswith("-window") else "")
    argv = [sub, *(f"{flag}={v}" for flag, v in flags.items())]
    return argv + ["--exploratory"] if draw(st.booleans()) else argv


@settings(max_examples=200, deadline=None)
@given(argv=_fuzz_argv())
# crude tolerances: a dense stage that overflows (inf times 0 in the
# interpolant's coefficients) and an event refined past the blow-up guard
# (L1 = -3.2e178) both end the shot as a blow-up, exit 2
@example(argv=["shoot-s1", "--delta1=0.5", "--tol-rel=0.5", "--tol-abs=0.5"])
@example(argv=["shoot-s1", "--delta1=1", "--tol-rel=0.5"])
# next to the fixed point (1, 1/2) the launch sits on x' = 0 (D rounds to 0)
@example(argv=["verify-bryant", "--launch-offset=1e-300"])
def test_property_cli_fuzz_exits_with_a_documented_code(tmp_path_factory, argv):
    _assert_documented_exit(argv, tmp_path_factory.getbasetemp() / "fuzz.csv")


def test_cli_fuzz_each_flag_value_alone(tmp_path):
    # every fuzz value in each flag of its own, the others valid: random
    # draws alone hit a given (flag, value) pair only now and then
    for sub, flags in _FUZZ_COMMANDS.items():
        for flag in [*flags, "--tol-rel", "--t-eps"]:
            for v in _FUZZ_VALUES:
                argv = [sub, *(f"{f}={x}" for f, x in {**flags, flag: v}.items())]
                _assert_documented_exit(argv, tmp_path / "fuzz.csv")


@pytest.mark.parametrize("subcommand", ["pancake-build", "pancake-curvature"])
def test_non_finite_pancake_length_fails_fast_with_error_record(tmp_path, monkeypatch, capsys, subcommand):
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code = cli.main([subcommand, "--length", "inf", "--grid-n", "1000"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 64
    assert elapsed < 5.0
    _, columns, rows = parse_csv((tmp_path / f"{subcommand}.csv").read_text())
    assert columns == ("error", "message")
    assert rows == [["ValueError", "length must be finite; got inf"]]
    assert "Traceback" not in captured.err


def test_shot_failure_record_prints_plain_numbers(capsys):
    # the final state is written as plain numbers, not a numpy repr whose
    # commas the CSV record would turn into ';'
    code, out = run(capsys, ["shoot-s2", "--delta2", "1e200", "--delta3", "0.5"])
    assert code == 2
    _, columns, rows = parse_csv(out)
    assert columns == ("error", "message")
    assert len(rows) == 1 and len(rows[0]) == 2
    message = rows[0][1]
    assert "array(" not in message and ";" not in message
    assert message.endswith("state=-1.00998e+101 -9.95017e+100 3.74065e-102 0.5")


def test_newton_shot_failure_record_prints_plain_numbers(capsys):
    # Newton's failed shot names its point in plain floats, in the record
    # and in the exception's params, not as numpy scalars' reprs
    code, out = run(capsys, ["root", "--guess", "0.1,-0.5,0.7", "--tol-rel", "0.5"])
    assert code == 2
    _, columns, rows = parse_csv(out)
    assert columns == ("error", "message") and rows[0][0] == "ShootFailure"
    assert "np.float64" not in out
    assert rows[0][1].startswith("shot failed at (d1; d2; d3) = (0.1; -0.5; 0.7): ")
    with pytest.raises(ShootFailure) as failure:
        shooting.find_root((0.1, -0.5, 0.7), shooting.ShootConfig(rtol=0.5))
    assert failure.value.params == (0.1, -0.5, 0.7)
    assert all(type(v) is float for v in failure.value.params)


def test_infeasible_blend_exits_64(tmp_path, monkeypatch, capsys):
    # error records land on the subcommand's usual output target, which for
    # a sweep is its default file
    monkeypatch.chdir(tmp_path)
    code, _ = run(capsys, ["pancake-build", "--length", "10", "--f2-window", "0.5,3.0"])
    assert code == 64
    _, columns, rows = parse_csv((tmp_path / "pancake-build.csv").read_text())
    assert columns == ("error", "message")
    assert rows[0][0] == "BlendInfeasible"


def test_numerical_failure_exits_2(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise EventNotReached("s1 shot never reached xi=0: stopped by blowup, norm grew")

    monkeypatch.setattr(cli.shooting, "shoot_curve_point", explode)
    code, out = run(capsys, ["shoot-s1", "--delta1", "0.1"])
    assert code == 2
    _, columns, rows = parse_csv(out)
    assert columns == ("error", "message")
    assert rows[0][0] == "EventNotReached"
    # the message stays a single CSV field
    assert len(rows[0]) == 2


def test_unknown_subcommand_exits_64(capsys):
    assert cli.main(["nosuchthing"]) == 64
    capsys.readouterr()


def test_missing_required_argument_exits_64(capsys):
    assert cli.main(["root"]) == 64
    capsys.readouterr()


def test_malformed_triple_exits_64(capsys):
    assert cli.main(["root", "--guess", "0.1,0.2"]) == 64
    capsys.readouterr()


def test_no_subcommand_exits_64(capsys):
    assert cli.main([]) == 64
    capsys.readouterr()


def test_version_exits_zero(capsys):
    assert cli.main(["--version"]) == 0
    assert "solshoot" in capsys.readouterr().out


def test_status_strings_are_comma_safe():
    assert "," not in cli._safe("a, b, c")
    assert "\n" not in cli._safe("two\nlines")


def test_verify_bryant_refuses_tol_abs(capsys):
    # the Bryant trace fixes its absolute tolerance; a given --tol-abs used to
    # be echoed in the header and then ignored
    code, out = run(capsys, ["verify-bryant", "--tol-abs", "1e-3"])
    assert code == 64
    meta, columns, rows = parse_csv(out)
    assert columns == ("error", "message")
    assert rows[0][0] == "ValueError"
    assert "--tol-abs" in rows[0][1]
    assert float(meta["tol_abs"]) == 1e-3
    # without the flag the header still echoes the default
    code, out = run(capsys, ["verify-bryant"])
    assert code == 0
    assert float(parse_csv(out)[0]["tol_abs"]) == 1e-12


def test_verify_bryant_trace_failure_in_range_exits_2(capsys, monkeypatch):
    # an offset outside (0, 1e-3] is a bad argument (64, see
    # test_bad_numbers_fail_fast_with_64); a trace that fails from an offset
    # inside it is a numerical failure.  Here the field turns NaN at
    # s = -log x = 1, and the trace stops by step underflow
    field = bryant._scaled_gap_field
    nan_past_1 = lambda s, v, jac=False: field(s, v, jac) * (1.0 if s < 1.0 else math.nan)
    monkeypatch.setattr(bryant, "_scaled_gap_field", nan_past_1)
    code, out = run(capsys, ["verify-bryant", "--launch-offset", "1e-4"])
    assert code == 2
    _, columns, rows = parse_csv(out)
    assert columns == ("error", "message")
    assert rows[0][0] == "LaunchTooFar"
    assert "step_underflow" in rows[0][1]


@pytest.mark.parametrize("offset", ["1e-15", "1e-300"])
def test_verify_bryant_launch_next_to_the_fixed_point_exits_2(capsys, offset):
    # inside (0, 1e-3], but so close to (1, 1/2) that D = 1 + v (1 + x^2)
    # rounds to 0: at the launch for 1e-300, at a Newton stage of the 40th
    # try for 1e-15.  A numerical failure, not a crash
    code, out = run(capsys, ["verify-bryant", "--launch-offset", offset])
    assert code == 2
    _, columns, rows = parse_csv(out)
    assert columns == ("error", "message")
    assert rows[0][0] == "LaunchTooFar"
