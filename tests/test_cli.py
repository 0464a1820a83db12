import csv
import errno
import json
import math
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from parakern.errors import SchemaError

from parakern import cli, problemfile, recursion
from parakern.cli import main
from parakern.kernel import eval_points
from parakern.oracle import const_drift_series_coeffs
from parakern.recursion import WarpParams, expand

PROBLEMS = os.path.join(os.path.dirname(__file__), "..", "problems")


def problem(name):
    return os.path.join(PROBLEMS, name)


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


MINIMAL = {
    "dimension": 1,
    "components": 1,
    "drift": [],
    "domain": {"lower": [-1.0], "upper": [1.0]},
    "horizon": 0.5,
    "problem": {"kind": "cauchy",
                "phi": {"kind": "gaussian_mix", "terms": [[1.0, 1.0, [0.0]]]}},
    "expansion": {"order_K": 2, "mode": "plain"},
    "quadrature": {"gh_order": 20, "gl_order": 16, "steps": 16},
}


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------

def test_expand_zero_drift_all_zero(tmp_path, capsys):
    out = tmp_path / "exp.json"
    rc = main(["expand", problem("zero_drift.json"), "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    for orders in payload["coefficients"]:
        for rec in orders:
            for term in rec["terms"]:
                assert all(abs(v) == 0.0 for _, v in term["coeffs"])
    table = capsys.readouterr().out
    assert "c_k_up" in table
    for line in table.splitlines():
        if line and line.split()[0].isdigit():
            assert float(line.split()[1]) == 0.0


def test_expand_const_drift_matches_closed_forms(tmp_path):
    out = tmp_path / "exp.json"
    rc = main(["expand", problem("const_drift.json"), "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    ref = const_drift_series_coeffs(0.7, 0.0)
    coeffs = payload["coefficients"][0]
    for k in (0, 1):
        table = {tuple(key): val for key, val in
                 ((tuple(c[0]), c[1]) for c in coeffs[k]["terms"][0]["coeffs"])}
        for (g, l), val in ref[k].items():
            if l == 0 and val != 0.0:
                assert table[(g,)] == pytest.approx(val, abs=1e-15)


def test_expand_sin_tau_mode_diagnostics_decay(capsys):
    rc = main(["expand", problem("sin_drift.json"), "--mode", "tau",
               "--beta", "1.0", "--order", "8", "--out", os.devnull])
    assert rc == 0
    rows = []
    for line in capsys.readouterr().out.splitlines():
        parts = line.split()
        if parts and parts[0].isdigit():
            rows.append(float(parts[2]))
    assert len(rows) == 9
    assert all(rows[k + 1] <= rows[k] for k in range(2, 8))


# ---------------------------------------------------------------------------
# eval / solve determinism
# ---------------------------------------------------------------------------

def test_eval_csv_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        rc = main(["eval", problem("sin_drift.json"), "--t", "0.05,0.1",
                   "--out", str(out)])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header.startswith("t,x1,component,value,log_value,grad1")


@pytest.mark.parametrize("command", ["expand", "solve"])
def test_degree_zero_with_a_drift_exits_numeric(command, tmp_path, capsys):
    # c_0 = -1/2 b.(x - y) has degree 1: D = 0 cannot hold it
    rc = main([command, problem("sin_drift.json"), "--degree", "0",
               "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "degree_D = 0" in capsys.readouterr().err
    # the heat kernel needs no degree
    rc = main([command, problem("zero_drift.json"), "--degree", "0",
               "--out", str(tmp_path / "out")])
    assert rc == 0


def test_eval_overflow_exits_numeric(tmp_path, capsys):
    pts = tmp_path / "far.csv"
    pts.write_text("x1\n0.1\n20.0\n")
    out = tmp_path / "far_out.csv"
    rc = main(["eval", problem("sin_drift.json"), "--points", str(pts),
               "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numeric error" in err and "trust radius" in err
    # no partial CSV: the file is not created ...
    assert not out.exists()
    # ... and an existing one keeps its bytes
    out.write_bytes(b"earlier,output\n1,2\n")
    rc = main(["eval", problem("sin_drift.json"), "--points", str(pts),
               "--out", str(out)])
    assert rc == 3
    assert out.read_bytes() == b"earlier,output\n1,2\n"


def test_eval_far_point_exits_numeric_without_output(tmp_path, capsys):
    # at 1e300 every monomial and |x - y|^2 overflow; the log value is
    # NaN, not a value, and the run fails before writing
    pts = tmp_path / "far.csv"
    pts.write_text("x1\n0.1\n1e300\n")
    out = tmp_path / "far_out.csv"
    rc = main(["eval", problem("sin_drift.json"), "--points", str(pts),
               "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numeric error" in err and "|x - y| = 1e+300" in err
    assert not out.exists()


def test_eval_rows_match_a_per_point_loop(tmp_path):
    # one evaluation over all times and points writes the rows a loop of
    # single-time, single-point evaluations would, in that order
    pts = [[0.3, 0.1], [-0.7, 0.2], [0.05, -0.5], [0.9, -0.9]]
    times = (0.05, 0.2, 0.4)
    path = tmp_path / "pts.csv"
    path.write_text("x1,x2\n" + "".join(f"{a},{b}\n" for a, b in pts))
    out = tmp_path / "k.csv"
    rc = main(["eval", problem("coupled_system.json"), "--mode", "tau",
               "--beta", "0.5", "--center", "0.1,-0.2", "--points",
               str(path), "--t", ",".join(map(str, times)), "--out",
               str(out)])
    assert rc == 0
    pf = problemfile.load_problem_file(problem("coupled_system.json"))
    exp = expand(pf.pc, [0.1, -0.2], pf.order_K,
                 WarpParams(mode="tau", beta=0.5), pf.degree_D)
    rows = []
    for t in times:
        for x in pts:
            kp = eval_points(exp, t, [x], pf.pc)
            for j in range(pf.pc.components):
                rows.append([repr(t)] + [repr(v) for v in x]
                            + [str(j), repr(float(kp.value[j, 0])),
                               repr(float(kp.log_value[j, 0]))]
                            + [repr(float(g)) for g in kp.gradient[j, 0]]
                            + [repr(float(kp.residual_rel[j, 0]))])
    with open(out, newline="") as fh:
        assert list(csv.reader(fh))[1:] == rows


def test_eval_rejects_tau_beyond_tau_max(tmp_path, capsys):
    # a --c-target schedule sets tau_max = 1 - 1/e
    args = ["eval", problem("sin_drift.json"), "--mode", "tau",
            "--c-target", "1.0", "--out", str(tmp_path / "k.csv")]
    assert main(args + ["--t", "0.6"]) == 0
    assert main(args + ["--t", "0.6,0.7"]) == 3
    assert "exceeds the warp's tau_max" in capsys.readouterr().err
    # and writes no file
    out = tmp_path / "short.csv"
    assert main(args[:-1] + [str(out), "--t", "0.9"]) == 3
    assert not out.exists()


@pytest.mark.parametrize("name", ["sin_drift.json", "coupled_system.json"])
def test_eval_writes_stdout_as_its_out_file(tmp_path, capsys, name):
    # the same text, CRLF-ended as csv.writer writes it
    args = ["eval", problem(name), "--t", "0.05,0.1"]
    out = tmp_path / "k.csv"
    assert main(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(args) == 0
    text = out.read_bytes().decode()
    assert capsys.readouterr().out == text
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert text == "".join(",".join(row) + "\r\n" for row in rows)


def test_solve_past_tau_max_exits_numeric(tmp_path, capsys):
    # a c_target = 0.3 schedule reaches t = 0.110 short of T = 0.25; the
    # solve read rows up to tau = 0.896, past tau_max = 0.632, and exited 0
    rc = main(["solve", problem("sin_drift.json"), "--mode", "tau",
               "--c-target", "0.3", "--out", str(tmp_path / "sol")])
    assert rc == 3
    assert "exceeds the warp's tau_max" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("mode", ["plain", "beta", "tau"])
def test_eval_over_times_writes_the_rows_of_one_run_per_time(tmp_path, mode):
    args = ["eval", problem("coupled_system.json"), "--mode", mode,
            "--center", "0.1,-0.2"]
    whole = tmp_path / "all.csv"
    assert main(args + ["--t", "0.05,0.1,0.2", "--out", str(whole)]) == 0
    lines = whole.read_text().splitlines()
    expected = lines[:1]
    for t in ("0.05", "0.1", "0.2"):
        one = tmp_path / f"{t}.csv"
        assert main(args + ["--t", t, "--out", str(one)]) == 0
        expected += one.read_text().splitlines()[1:]
    assert lines == expected


@pytest.mark.parametrize("extra, where", [
    (["--t", "0.1,abc"], "--t: 'abc' is not a number"),
    (["--t", "0.1,"], "--t: '' is not a number"),
    (["--t", "0.1,nan"], "--t: 'nan' is not finite"),
    (["--t", "inf"], "--t: 'inf' is not finite"),
    (["--center", "x"], "--center: 'x' is not a number"),
    (["--center=-inf"], "--center: '-inf' is not finite"),
    (["--center", "0.1,0.2"], "--center needs 1 comma-separated values"),
])
def test_eval_rejects_bad_arguments_before_expanding(extra, where, tmp_path,
                                                     capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("expanded before the arguments were checked")

    monkeypatch.setattr(cli, "expand", forbidden)
    out = tmp_path / "k.csv"
    rc = main(["eval", problem("sin_drift.json"), "--out", str(out)] + extra)
    assert rc == 2
    assert where in capsys.readouterr().err
    assert not out.exists()


def test_eval_rejects_bad_points_files(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "expand", None)    # never reached
    cases = {"word.csv": ("x1,x2\n0.1,0.2\n0.3,abc\n",
                          "word.csv, line 3: 'abc' is not a number"),
             "short.csv": ("x1,x2\n0.1,0.2\n0.3\n",
                           "short.csv, line 3: 1 values, need 2"),
             "nan.csv": ("0.1,nan\n", "nan.csv, line 1: 'nan' is not finite"),
             "empty.csv": ("x1,x2\n", "no points found")}
    for name, (text, where) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        rc = main(["eval", problem("coupled_system.json"), "--points",
                   str(path)])
        assert rc == 2
        assert where in capsys.readouterr().err
    rc = main(["eval", problem("coupled_system.json"), "--points",
               str(tmp_path / "missing.csv")])
    assert rc == 2
    assert "cannot read points file" in capsys.readouterr().err


def test_argument_parsers_raise_schema_errors():
    assert cli._parse_floats(["0.5", " 2"], "--t") == [0.5, 2.0]
    for values in (["0.1", ""], ["1e400"], ["nan"], ["one"]):
        with pytest.raises(SchemaError, match="^--t: "):
            cli._parse_floats(values, "--t")
    assert np.array_equal(cli._parse_center(None, 2), [0.0, 0.0])
    with pytest.raises(SchemaError, match="--center"):
        cli._parse_center("0.1,x", 2)


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()
    args = cli.build_parser().parse_args(["eval", "f.json", "--t", "0.1"])
    again = cli.build_parser().parse_args(["solve", "g.json"])
    assert (args.command, args.t, again.command, again.file) == \
        ("eval", "0.1", "solve", "g.json")


def test_solve_exits_numeric_where_a_node_overflows(tmp_path, capsys):
    # K = 10, D = 22 on sin_drift.json wrote inf for 22 of its 41 values
    base = tmp_path / "sol"
    rc = main(["solve", problem("sin_drift.json"), "--order", "10",
               "--degree", "22", "--out", str(base)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numeric error" in err and "K = 10, D = 22" in err
    assert not os.path.exists(f"{base}.csv")


def test_solve_writes_outputs(tmp_path):
    base = tmp_path / "sol"
    rc = main(["solve", problem("burgers_selfsim.json"), "--out", str(base)])
    assert rc == 0
    assert (tmp_path / "sol.csv").exists()
    assert (tmp_path / "sol.json").exists()
    rows = (tmp_path / "sol.csv").read_text().splitlines()
    t, x, comp, val = rows[1].split(",")
    assert float(val) == pytest.approx(float(x) / 1.5, abs=1e-6)


def test_solve_ibvp2_writes_density(tmp_path):
    base = tmp_path / "ib"
    rc = main(["solve", problem("manufactured_ibvp2.json"),
               "--steps", "16", "--out", str(base)])
    assert rc == 0
    assert (tmp_path / "ib_density.csv").exists()
    rows = (tmp_path / "ib.csv").read_text().splitlines()
    mid = [r for r in rows[1:] if abs(float(r.split(",")[1]) - 0.5) < 0.03]
    val = float(mid[0].split(",")[3])
    assert val == pytest.approx(math.exp(-1.0) * math.cos(0.5), abs=3e-2)


@pytest.mark.parametrize("flag,name", [
    ("--steps", "manufactured_ibvp2.json"),
    ("--gl-order", "manufactured_ibvp2.json"),
    ("--gh-order", "sin_drift.json")])
@pytest.mark.parametrize("value", ["0", "1"])
def test_solve_rejects_quadrature_flags_below_two(tmp_path, capsys, flag,
                                                  name, value):
    # a zero used to fall back to the file's value and exit 0; both
    # values are below the schema's minimum of 2
    base = tmp_path / "sol"
    rc = main(["solve", problem(name), flag, value, "--out", str(base)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "problem-file error" in err and flag in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["solve", "eval", "expand"])
def test_negative_degree_is_rejected(tmp_path, capsys, command):
    # -1 used to reach KernelField's trust radius, 1 / (D + 1), and die
    # with a ZeroDivisionError traceback
    base = tmp_path / "out"
    rc = main([command, problem("sin_drift.json"), "--degree", "-1",
               "--out", str(base)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "problem-file error" in err and "--degree" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command, name", [
    ("solve", "zero_drift.json"), ("solve", "manufactured_ibvp2.json"),
    ("solve", "burgers_selfsim.json"), ("solve", "sin_drift.json"),
    ("eval", "sin_drift.json"), ("expand", "sin_drift.json"),
    ("validate", "sin_drift.json")])
def test_negative_order_is_rejected(tmp_path, capsys, command, name):
    # the zero-drift, Robin and Burgers solves used to exit 0 with
    # metadata "K": -1, and the sin-drift one exit 3
    rc = main([command, problem(name), "--order", "-1",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "problem-file error" in err and "--order" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("flags, named", [
    (["--mode", "plain", "--beta", "0.5"], "--beta"),
    (["--c-target", "1.0"], "--c-target"),
    (["--mode", "beta", "--c-target", "1.0"], "--c-target"),
    (["--mode", "tau", "--beta", "0.5", "--c-target", "1.0"], "--c-target"),
    (["--mode", "tau", "--c-target", "nan"], "--c-target"),
    (["--mode", "beta", "--beta", "0"], "--beta"),
    (["--mode", "beta", "--beta", "-0.5"], "--beta"),
    (["--mode", "beta", "--beta", "nan"], "--beta"),
    (["--mode", "tau", "--beta", "inf"], "--beta"),
], ids=["plain-beta", "plain-c-target", "beta-c-target", "c-target-and-beta",
        "c-target-nan", "beta-0", "beta-negative", "beta-nan", "beta-inf"])
@pytest.mark.parametrize("command", ["solve", "eval", "expand", "validate"])
def test_dropped_or_invalid_warp_flag_is_rejected(tmp_path, capsys, command,
                                                  flags, named):
    # each was ignored, overridden or left to fail as a numeric error
    base = tmp_path / "out"
    rc = main([command, problem("sin_drift.json"), *flags,
               "--out", str(base)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "problem-file error" in err and named in err
    assert os.listdir(tmp_path) == []


def test_warp_flags_keep_or_reset_the_files_warp(tmp_path):
    # a tau file with a schedule: --mode tau names the file's own mode and
    # keeps its warp; --beta sets no tau limit, as a file's beta does
    with open(problem("sin_drift.json")) as fh:
        data = json.load(fh)
    data["expansion"].update(mode="tau", c_target=1.0)
    path = write_json(tmp_path, "tau.json", data)
    warps = []
    for flags in ([], ["--mode", "tau"], ["--beta", "0.3"]):
        out = tmp_path / "exp.json"
        assert main(["expand", path, *flags, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        warps.append((payload["mode"], payload["beta"], payload["tau_max"]))
    assert warps[0] == ("tau", pytest.approx(1 / math.e),
                        pytest.approx(1 - 1 / math.e))
    assert warps[1] == warps[0]
    assert warps[2] == ("tau", 0.3, 0.0)


@pytest.mark.parametrize("name", ["sin_drift.json", "const_drift.json"])
@pytest.mark.parametrize("mode", ["plain", "beta", "tau"])
@pytest.mark.parametrize("beta", [None, 0.5])
@pytest.mark.parametrize("c_target", [None, 2.0])
def test_file_fields_and_flags_resolve_the_same_warp(tmp_path, name, mode,
                                                     beta, c_target):
    # a plain file with the flags, and the file stating the same fields:
    # the same warp both ways, or exit 2 both ways.  A beta in plain mode
    # loaded as beta = 1, a c_target beside a beta or outside tau mode was
    # dropped, and a beta or tau --mode without --beta took beta = 1 where
    # the file took select_beta's
    with open(problem(name)) as fh:
        data = json.load(fh)
    assert data["expansion"]["mode"] == "plain"
    flags = ["--mode", mode]
    data["expansion"]["mode"] = mode
    for key, flag, value in (("beta", "--beta", beta),
                             ("c_target", "--c-target", c_target)):
        if value is not None:
            flags += [flag, str(value)]
            data["expansion"][key] = value
    stated = write_json(tmp_path, "stated.json", data)
    results = []
    for args in ([stated], [problem(name), *flags]):
        out = tmp_path / "exp.json"
        rc = main(["expand", *args, "--out", str(out)])
        payload = json.loads(out.read_text()) if rc == 0 else {}
        results.append((rc, [payload.get(k) for k in
                             ("mode", "beta", "tau_max")]))
        if rc == 0:
            out.unlink()
    valid = c_target is None and (mode != "plain" or beta is None) \
        or mode == "tau" and beta is None
    assert results[0] == results[1]
    assert results[0][0] == (0 if valid else 2)
    if valid and beta is None and c_target is None and mode != "plain":
        beta_selected = recursion.select_beta(
            problemfile.load_problem_file(problem(name)).pc).beta
        assert results[0][1] == [mode, beta_selected, 0.0]


def test_solve_time_dependent_mixed_kind_drift(tmp_path):
    # time_poly parts mixing poly and fourier, re-anchored at every origin
    # of the march and of the source's time rule
    base = tmp_path / "td"
    rc = main(["solve", problem("time_drift_ibvp2.json"), "--out", str(base)])
    assert rc == 0
    rows = (tmp_path / "td.csv").read_text().splitlines()[1:]
    assert rows and all(math.isfinite(float(r.split(",")[3])) for r in rows)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_passes_const_drift(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["validate", problem("const_drift.json"), "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["status"] == "PASS"
    assert [c["name"] for c in report["checks"]] == [
        "ray_weight_E2_plain", "tau_reexpansion_E4", "roundtrip_serialization",
        "coefficient_bounds", "const_drift_kernel", "const_drift_termination",
        "normalization_gh40", "mode_equivalence_beta"]
    for check in report["checks"]:
        assert set(check) == {"name", "max_deviation", "tolerance", "status"}
        if check["name"] in ("ray_weight_E2_plain", "tau_reexpansion_E4"):
            assert check["max_deviation"] <= check["tolerance"] == 1e-12


def test_validate_zero_drift_trivial(tmp_path, capsys):
    rc = main(["validate", problem("zero_drift.json")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert any(c["name"] == "zero_drift_trivial" and c["status"] == "PASS"
               for c in report["checks"])


def failing_checks(capsys) -> list[str]:
    report = json.loads(capsys.readouterr().out)
    return [c["name"] for c in report["checks"] if c["status"] == "FAIL"]


def test_validate_detects_injected_fault(monkeypatch, capsys):
    # tau mode's re-expansion map off by one part in a million
    applied = recursion._tau_reexpansion
    monkeypatch.setattr(recursion, "_tau_reexpansion",
                        lambda *args: applied(*args) * (1.0 + 1e-6))
    assert main(["validate", problem("const_drift.json")]) == 3
    assert failing_checks(capsys) == ["tau_reexpansion_E4"]


def test_validate_detects_a_corrupted_plain_weight(monkeypatch, capsys):
    # the plain ray solve off by one part in a million; the expansions the
    # later checks build take the corrupted weights too
    ray = recursion._BatchWorkspace.ray
    monkeypatch.setattr(recursion._BatchWorkspace, "ray",
                        lambda ws, x, s: ray(ws, x, s) * (1.0 + 1e-6))
    assert main(["validate", problem("const_drift.json")]) == 3
    failing = failing_checks(capsys)
    assert failing[0] == "ray_weight_E2_plain"
    assert "tau_reexpansion_E4" not in failing


def constant(c):
    return {"kind": "poly", "terms": [[c, [0]]]}


@pytest.mark.parametrize("drift, potential, closed_form", [
    ({"kind": "poly", "terms": [[0.3, [0]], [0.2, [0]]]}, [], True),
    ({"kind": "time_poly", "terms": [[0, constant(0.3)], [2, constant(0.5)]]},
     [], False),
    (constant(0.7), [{"i": 0, **constant(0.5)}], False)],
    ids=["two_constant_terms", "time_order_two", "with_potential"])
def test_validate_const_drift_check_reads_the_whole_drift(
        tmp_path, capsys, drift, potential, closed_form):
    # b0 sums every constant term; a t^2 part or a potential is outside
    # the closed form, so those files skip the const-drift checks
    with open(problem("const_drift.json")) as fh:
        data = json.load(fh)
    data["drift"] = [{"i": 0, "j": 0, "k": 0, **drift}]
    data["potential"] = potential
    rc = main(["validate", write_json(tmp_path, "drift.json", data)])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0 and report["status"] == "PASS"
    names = {c["name"] for c in report["checks"]}
    assert ({"const_drift_kernel", "const_drift_termination"} <= names) \
        == closed_form
    assert closed_form or not any(n.startswith("const_drift") for n in names)


@pytest.mark.parametrize("flag", [["--tol", "0"], ["--threads", "4"],
                                  ["--inject-fault", "ray_weight_E4"]],
                         ids=["tol", "threads", "inject-fault"])
def test_removed_flags_are_usage_errors(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", problem("const_drift.json"), *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# schema errors -> exit 2 with a JSON path
# ---------------------------------------------------------------------------

def test_packaged_schema_is_valid():
    # the package compiles the schema without jsonschema, so no load
    # checks it against its metaschema; the suite does, on every run
    schema = problemfile._schema()
    jsonschema.validators.validator_for(schema).check_schema(schema)


def test_schema_missing_field(tmp_path, capsys):
    bad = dict(MINIMAL)
    del bad["horizon"]
    rc = main(["expand", write_json(tmp_path, "bad.json", bad)])
    assert rc == 2
    assert "horizon" in capsys.readouterr().err


def test_schema_wrong_domain_length(tmp_path, capsys):
    bad = json.loads(json.dumps(MINIMAL))
    bad["domain"]["lower"] = [-1.0, 0.0]
    rc = main(["expand", write_json(tmp_path, "bad.json", bad)])
    assert rc == 2
    assert "domain" in capsys.readouterr().err


def test_schema_out_of_range_drift_index(tmp_path, capsys):
    bad = json.loads(json.dumps(MINIMAL))
    bad["drift"] = [{"i": 0, "j": 0, "k": 5, "kind": "poly",
                     "terms": [[0.7, [0]]]}]
    rc = main(["expand", write_json(tmp_path, "bad.json", bad)])
    assert rc == 2
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("section, record", [
    ("drift", {"i": 0, "j": 0, "k": 0, "kind": "poly", "terms": [[0.7, [0]]]}),
    ("potential", {"i": 0, "kind": "poly", "terms": [[0.7, [0]]]}),
])
def test_schema_duplicate_index(tmp_path, capsys, section, record):
    # a duplicate drift index exits 2; a second potential record for an
    # index replaced the first
    bad = json.loads(json.dumps(MINIMAL))
    bad[section] = [record, dict(record, terms=[[0.2, [1]]])]
    rc = main(["expand", write_json(tmp_path, "bad.json", bad)])
    assert rc == 2
    assert f"at {section}: duplicate index" in capsys.readouterr().err


@pytest.mark.parametrize("name, where, spec, kind", [
    ("sin_drift.json", "phi", {"kind": "poly", "terms": [[1.0, [2, 0]]]},
     "poly"),
    ("sin_drift.json", "drift",
     {"i": 0, "j": 0, "k": 0, "kind": "fourier", "terms": [[0.3, [1.0, 0.0],
                                                            0.0]]},
     "fourier"),
    ("sin_drift.json", "phi",
     {"kind": "gaussian_mix", "terms": [[1.0, 1.0, [0.0, 0.0]]]},
     "gaussian_mix"),
    ("sin_drift.json", "phi",
     {"kind": "polyfourier", "terms": [[1.0, [1], [1.0, 2.0], 0.0]]},
     "polyfourier"),
    ("sin_drift.json", "f", {"kind": "time_poly", "parts": [
        [1, {"kind": "polyfourier", "terms": [[1.0, [1, 0], [1.0], 0.0]]}]]},
     "polyfourier"),
    ("coupled_system.json", "phi",
     {"kind": "grid", "points": [-1.0, 0.0, 1.0], "values": [0.0, 1.0, 0.0]},
     "grid"),
], ids=["poly-exponent", "fourier-wave-vector", "gaussian-centre",
        "polyfourier-wave-vector", "polyfourier-exponent", "grid-in-2d"])
def test_coordinate_lengths_must_match_the_dimension(tmp_path, capsys, name,
                                                     where, spec, kind):
    # each used to die with a traceback, or to solve reading some
    # coordinates only
    with open(problem(name)) as fh:
        data = json.load(fh)
    if where == "drift":
        data["drift"] = [spec]
    else:
        data["problem"][where] = spec
    rc = main(["solve", write_json(tmp_path, "bad.json", data),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "problem-file error" in err and f"{kind}:" in err
    assert os.listdir(tmp_path) == ["bad.json"]


@pytest.mark.parametrize("where, value, message", [
    (("drift", 0, "terms"), [[0.3]], "at drift/0: not enough values"),
    (("problem", "phi", "terms"), [[1.0]], "at problem/phi: not enough"),
    (("problem", "phi", "terms"), [["abc", 1.0, [0.0]]],
     "at problem/phi: gaussian_mix: 'abc' is not a number"),
    (("problem", "phi", "terms"), [["1.0", 1.0, [0.0]]],
     "at problem/phi: gaussian_mix: '1.0' is not a number"),
    (("problem", "phi", "terms"), [[True, 1.0, [0.0]]],
     "at problem/phi: gaussian_mix: True is not a number"),
    (("drift", 0), {"i": 0, "j": 0, "k": 0, "kind": "poly",
                    "terms": [[0.3, [1.5]]]},
     "at drift/0: poly: 1.5 is not an integer"),
    (("problem", "phi", "kind"), "nope",
     "at problem/phi: unknown function kind 'nope'"),
    (("problem", "phi"), {"terms": [[1.0, 1.0, [0.0]]]},
     "at problem/phi: unknown function kind None"),
    (("problem", "phi"), {"kind": "gaussian_mix"},
     "at problem/phi: missing key 'terms'"),
    (("problem", "phi"), {"kind": "time_poly", "parts": [[0, 1.0]]},
     "at problem/phi: a function spec is an object, not 1.0"),
    (("domain",), {"lower": [1.0], "upper": [-1.0]}, "at domain: upper"),
    (("domain",), {"lower": [0.5], "upper": [0.5]}, "at domain: upper"),
    (("problem", "phi", "terms"), [[10 ** 400, 1.0, [0.0]]],
     "at problem/phi: int too large to convert to float"),
    (("problem", "kind"), "burgers",
     "at problem: burgers requires positive viscosity"),
], ids=["short-drift-term", "short-phi-term", "string-coefficient",
        "numeric-string-coefficient", "boolean-coefficient",
        "fractional-exponent", "unknown-kind", "missing-kind",
        "missing-terms", "non-object-part", "swapped-domain", "flat-domain",
        "integer-past-float-range", "burgers-without-nu"])
def test_malformed_specs_exit_2_naming_the_field(tmp_path, capsys, where,
                                                 value, message):
    # the short terms, the string coefficient and the huge integer used
    # to exit 1 with a traceback, the unknown or missing kind, the degenerate domain and a
    # Burgers problem without a viscosity exit 3 as numeric errors
    with open(problem("sin_drift.json")) as fh:
        data = json.load(fh)
    node = data
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    for command in ("validate", "expand", "eval", "solve"):
        rc = main([command, write_json(tmp_path, "bad.json", data),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"problem-file error: {message}")
    assert os.listdir(tmp_path) == ["bad.json"]


def test_schema_rejects_nonfinite(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(MINIMAL).replace("0.5", "NaN"))
    rc = main(["expand", str(path)])
    assert rc == 2


@pytest.mark.parametrize("old, new", [
    ("0.5", "1e400"), ("[[1.0, 1.0,", "[[-1e999, 1.0,")],
    ids=["horizon", "coefficient"])
def test_schema_rejects_literals_past_the_float_range(tmp_path, capsys, old,
                                                      new):
    # each used to read as inf: the solve wrote inf values and exited 0
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(MINIMAL).replace(old, new))
    rc = main(["solve", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "non-finite number" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["inf.json"]


def test_schema_unknown_file(capsys):
    rc = main(["expand", "/nonexistent/file.json"])
    assert rc == 2


def test_numeric_failure_exit_code(tmp_path, capsys):
    bad = json.loads(json.dumps(MINIMAL))
    bad["problem"]["kind"] = "burgers"
    bad["problem"]["nu"] = 1e-4
    bad["problem"]["phi0"] = {"kind": "poly", "terms": [[-5.0, [2]]]}
    rc = main(["solve", write_json(tmp_path, "uf.json", bad),
               "--out", str(tmp_path / "x")])
    assert rc == 3
    assert "numeric error" in capsys.readouterr().err


def test_burgers_overflow_exits_numeric(tmp_path, capsys):
    # burgers_selfsim.json with Phi_0 = 400 - x^2: exp(Phi_0 / (2 nu))
    # leaves the float range, which is a numeric error, not a crash
    with open(problem("burgers_selfsim.json")) as fh:
        data = json.load(fh)
    data["problem"]["phi0"] = {"kind": "poly",
                               "terms": [[400.0, [0]], [-1.0, [2]]]}
    rc = main(["solve", write_json(tmp_path, "of.json", data),
               "--out", str(tmp_path / "x")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numeric error: psi0 overflows" in err
    assert "subtract about 400" in err


@pytest.mark.parametrize("forcing", [
    {"kind": "fourier", "terms": [[0.1, [1.0], 0.0]]},
    {"kind": "polyfourier", "terms": [[0.1, [1], [1.0], 0.0]]},
    {"kind": "gaussian_mix", "terms": [[0.1, 1.0, [0.0]]]},
], ids=lambda f: f["kind"])
def test_burgers_non_polynomial_forcing_exits_numeric(tmp_path, capsys,
                                                      forcing):
    with open(problem("burgers_selfsim.json")) as fh:
        data = json.load(fh)
    data["problem"]["f"] = forcing
    rc = main(["solve", write_json(tmp_path, "f.json", data),
               "--out", str(tmp_path / "x")])
    assert rc == 3
    assert "burgers forcing must be a spatial polynomial" in \
        capsys.readouterr().err
    assert os.listdir(tmp_path) == ["f.json"]


def test_burgers_solve_honours_degree_and_warp_flags(tmp_path):
    # with a poly forcing the heat kernel carries a potential, so the
    # degree cap and the warp reach the Burgers output; without one the
    # kernel is the heat kernel and no flag changes a byte
    with open(problem("burgers_selfsim.json")) as fh:
        data = json.load(fh)
    data["problem"]["f"] = {"kind": "poly", "terms": [[0.2, [2]]]}
    forced = write_json(tmp_path, "forced.json", data)
    flags = {"default": [], "degree": ["--degree", "1"],
             "tau": ["--mode", "tau", "--beta", "0.5"]}
    for path, tag in ((forced, "forced"),
                      (problem("burgers_selfsim.json"), "free")):
        for name, extra in flags.items():
            rc = main(["solve", path, *extra,
                       "--out", str(tmp_path / f"{tag}_{name}")])
            assert rc == 0

    def csv_bytes(tag, name):
        return (tmp_path / f"{tag}_{name}.csv").read_bytes()

    assert csv_bytes("forced", "degree") != csv_bytes("forced", "default")
    assert csv_bytes("forced", "tau") != csv_bytes("forced", "default")
    assert csv_bytes("free", "degree") == csv_bytes("free", "default")
    assert csv_bytes("free", "tau") == csv_bytes("free", "default")


@pytest.mark.parametrize("name, kind", [
    ("sin_drift.json", "cauchy"), ("manufactured_ibvp2.json", "ibvp2"),
    ("burgers_selfsim.json", "burgers")])
def test_solve_metadata_names_the_kernel(tmp_path, name, kind):
    # every kind records the order, degree cap and warp it solved with
    rc = main(["solve", problem(name), "--order", "2", "--degree", "5",
               "--mode", "tau", "--beta", "0.5", "--out",
               str(tmp_path / "sol")])
    assert rc == 0
    meta = json.loads((tmp_path / "sol.json").read_text())["metadata"]
    assert meta["kind"] == kind
    assert (meta["K"], meta["D"], meta["mode"], meta["beta"]) == \
        (2, 5, "tau", 0.5)


@pytest.mark.parametrize("section, record", [
    ("drift", {"i": 0, "j": 0, "k": 0, "kind": "poly", "terms": [[5.0, [0]]]}),
    ("potential", {"i": 0, "kind": "poly", "terms": [[3.0, [0]]]}),
], ids=["drift", "potential"])
def test_burgers_with_drift_or_potential_exits_numeric(tmp_path, capsys,
                                                       section, record):
    with open(problem("burgers_selfsim.json")) as fh:
        data = json.load(fh)
    data[section] = [record]
    rc = main(["solve", write_json(tmp_path, "b.json", data),
               "--out", str(tmp_path / "x")])
    assert rc == 3
    assert "burgers takes no drift or potential" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["b.json"]


def test_coupled_system_through_cli(tmp_path):
    out = tmp_path / "sys.json"
    rc = main(["expand", problem("coupled_system.json"), "--order", "4",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["components"] == 2
    assert len(payload["coefficients"]) == 2
    rc = main(["validate", problem("coupled_system.json"), "--order", "3"])
    assert rc == 0


def test_roundtrip_bit_exact_kernel_values(tmp_path):
    from parakern.problemfile import load_problem_file
    from parakern.recursion import (expand, expansion_from_dict,
                                    expansion_to_dict)
    pf = load_problem_file(problem("sin_drift.json"))
    exp = expand(pf.pc, [0.0], pf.order_K, pf.warp, pf.degree_D)
    clone = expansion_from_dict(json.loads(json.dumps(expansion_to_dict(exp))))
    rng = np.random.default_rng(21)
    for _ in range(25):
        t = rng.uniform(0.01, 0.3)
        x = rng.uniform(-1, 1, (1, 1))
        assert eval_points(exp, t, x).value[0, 0] == \
            eval_points(clone, t, x).value[0, 0]


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

# a fast problem file per command, its extra flags and the suffixes of the
# files it writes after the --out path, in the order it writes them
OUTPUTS = {
    "expand": ("sin_drift.json", [], [""]),
    "eval": ("sin_drift.json", ["--t", "0.05,0.1"], [""]),
    "validate": ("const_drift.json", [], [""]),
    "solve": ("manufactured_ibvp2.json", [],
              [".csv", ".json", "_density.csv"]),
}


@pytest.mark.parametrize("command", OUTPUTS)
def test_a_rewrite_writes_the_bytes_of_a_fresh_file(tmp_path, capsys,
                                                    command):
    # files are written in place, never emptied first: a longer old file
    # must lose its tail, a shorter one must grow
    name, extra, suffixes = OUTPUTS[command]
    args = [command, problem(name), *extra, "--out"]
    (tmp_path / "fresh").mkdir()
    assert main(args + [str(tmp_path / "fresh" / "out")]) == 0
    fresh = {s: (tmp_path / "fresh" / f"out{s}").read_bytes()
             for s in suffixes}
    (tmp_path / "old").mkdir()
    for size in (lambda n: 2 * n + 100, lambda n: n // 2):
        for s, data in fresh.items():
            (tmp_path / "old" / f"out{s}").write_bytes(b"x" * size(len(data)))
        assert main(args + [str(tmp_path / "old" / "out")]) == 0
        assert {s: (tmp_path / "old" / f"out{s}").read_bytes()
                for s in suffixes} == fresh
    capsys.readouterr()


@pytest.mark.parametrize("command", ["eval", "expand", "validate"])
def test_out_to_dev_null_exits_0(command, capsys):
    # a device cannot be cut to the output's length, and is not
    name, extra, _ = OUTPUTS[command]
    assert main([command, problem(name), *extra, "--out", os.devnull]) == 0


@pytest.mark.parametrize("command", OUTPUTS)
@pytest.mark.parametrize("case", ["missing-directory", "directory"])
def test_an_unwritable_out_exits_2(tmp_path, capsys, command, case):
    # each used to exit 1 with a traceback
    name, extra, suffixes = OUTPUTS[command]
    if case == "missing-directory":
        out, reason = tmp_path / "missing" / "out", "No such file or directory"
    else:
        out, reason = tmp_path / "out", "Is a directory"
        (tmp_path / f"out{suffixes[0]}").mkdir()
    before = sorted(os.listdir(tmp_path))
    rc = main([command, problem(name), *extra, "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == (f"problem-file error: cannot write "
                            f"{out}{suffixes[0]}: {reason}\n")
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("command", OUTPUTS)
@pytest.mark.parametrize("case", ["directory", "byte-ff", "permission"])
def test_an_unreadable_problem_file_exits_2(tmp_path, capsys, monkeypatch,
                                            command, case):
    # each used to exit 1 with a traceback; root reads every file, so a
    # refused read is a patched open
    path = tmp_path / "problem.json"
    if case == "directory":
        path.mkdir()
        reason = f"cannot read problem file {path}: Is a directory"
    elif case == "byte-ff":
        path.write_bytes(b"\xff" + json.dumps(MINIMAL).encode())
        reason = (f"cannot decode problem file {path}: 'utf-8' codec can't "
                  f"decode byte 0xff in position 0")
    else:
        path.write_text(json.dumps(MINIMAL))
        reason = f"cannot read problem file {path}: Permission denied"

        def refused(file, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES),
                                  file)
        monkeypatch.setattr(problemfile, "open", refused, raising=False)
    before = sorted(os.listdir(tmp_path))
    rc = main([command, str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("problem-file error: ")
    assert reason in captured.err
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == before


def test_a_new_out_file_has_the_mode_open_gives(tmp_path, capsys):
    umask = os.umask(0o027)
    try:
        with open(tmp_path / "reference", "w"):
            pass
        assert main(["expand", problem("sin_drift.json"),
                     "--out", str(tmp_path / "new")]) == 0
    finally:
        os.umask(umask)
    mode = os.stat(tmp_path / "new").st_mode
    assert mode == os.stat(tmp_path / "reference").st_mode
    assert mode & 0o777 == 0o640
    # an existing file keeps its mode, as under open(path, "w")
    os.chmod(tmp_path / "new", 0o600)
    assert main(["expand", problem("zero_drift.json"),
                 "--out", str(tmp_path / "new")]) == 0
    assert os.stat(tmp_path / "new").st_mode & 0o777 == 0o600
    capsys.readouterr()


# ---------------------------------------------------------------------------
# scipy loads on first use
# ---------------------------------------------------------------------------

def test_a_command_that_forms_no_sparse_product_loads_no_scipy(tmp_path):
    # in a fresh process: the suite's own filters load scipy before any test
    # runs.  Constant drifts and potentials multiply no two jets of degree
    # >= 1, and validate runs no FD referee, so none of these builds a
    # scatter or factors a step; sin_drift.json's products do
    code = (
        "import contextlib, io, sys\n"
        "import parakern.cli as cli\n"
        "def run(*args):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(list(args)) == 0, args\n"
        "def loaded():\n"
        "    return [m for m in ('scipy.sparse', 'scipy.linalg')\n"
        "            if m in sys.modules]\n"
        f"run('solve', {problem('zero_drift.json')!r},\n"
        f"    '--out', {str(tmp_path / 'solution')!r})\n"
        f"run('eval', {problem('const_drift.json')!r})\n"
        f"run('validate', {problem('manufactured_ibvp2.json')!r})\n"
        "assert loaded() == [], loaded()\n"
        f"run('solve', {problem('sin_drift.json')!r},\n"
        f"    '--out', {str(tmp_path / 'solution')!r})\n"
        "assert 'scipy.sparse' in loaded(), loaded()\n")
    env = {**os.environ, "PYTHONPATH": os.path.join(PROBLEMS, "..", "src")}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
