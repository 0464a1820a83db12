import csv
import json
import math
import os

import jsonschema
import numpy as np
import pytest

from parakern import problemfile
from parakern.cli import main
from parakern.kernel import eval_kernel, residual
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


def test_eval_rows_match_a_per_point_loop(tmp_path):
    # one evaluation per time over all points writes the rows a loop of
    # single-point residual and eval_kernel calls would, in that order
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
            _, rel = residual(exp, pf.pc, t, x)
            for j in range(pf.pc.components):
                kv = eval_kernel(exp, t, x, j=j)
                rows.append([repr(t)] + [repr(v) for v in x]
                            + [str(j), repr(kv.value), repr(kv.log_value)]
                            + [repr(float(g)) for g in kv.gradient]
                            + [repr(float(rel[j]))])
    with open(out, newline="") as fh:
        assert list(csv.reader(fh))[1:] == rows


def test_eval_rejects_tau_beyond_tau_max(tmp_path, capsys):
    # a --c-target schedule sets tau_max = 1 - 1/e
    args = ["eval", problem("sin_drift.json"), "--mode", "tau",
            "--c-target", "1.0", "--out", str(tmp_path / "k.csv")]
    assert main(args + ["--t", "0.6"]) == 0
    assert main(args + ["--t", "0.6,0.7"]) == 3
    assert "exceeds the warp's tau_max" in capsys.readouterr().err


def test_solve_threads_flag_is_ignored(tmp_path):
    # --threads is accepted for old command lines and changes nothing
    for base, extra in ((tmp_path / "a", []), (tmp_path / "b",
                                               ["--threads", "4"])):
        rc = main(["solve", problem("sin_drift.json"), "--gh-order", "10",
                   "--out", str(base)] + extra)
        assert rc == 0
    for suffix in (".csv", ".json"):
        a = (tmp_path / ("a" + suffix)).read_bytes()
        assert a == (tmp_path / ("b" + suffix)).read_bytes()


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
    names = {c["name"] for c in report["checks"]}
    assert {"ray_weight_E2_plain", "ray_weight_jbk_beta", "ray_weight_E4",
            "pk_gamma_diagonal", "roundtrip_serialization",
            "const_drift_kernel"} <= names


def test_validate_zero_drift_trivial(tmp_path, capsys):
    rc = main(["validate", problem("zero_drift.json")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert any(c["name"] == "zero_drift_trivial" and c["status"] == "PASS"
               for c in report["checks"])


def test_validate_detects_injected_fault(tmp_path, capsys):
    rc = main(["validate", problem("const_drift.json"),
               "--inject-fault", "ray_weight_E4"])
    assert rc == 3
    report = json.loads(capsys.readouterr().out)
    failing = [c["name"] for c in report["checks"] if c["status"] == "FAIL"]
    assert failing == ["ray_weight_E4"]


# ---------------------------------------------------------------------------
# schema errors -> exit 2 with a JSON path
# ---------------------------------------------------------------------------

def test_packaged_schema_is_valid():
    # loads check it once per process; the suite checks it on every run
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


def test_schema_rejects_nonfinite(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(MINIMAL).replace("0.5", "NaN"))
    rc = main(["expand", str(path)])
    assert rc == 2


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
    from parakern.kernel import eval_kernel
    from parakern.problemfile import load_problem_file
    from parakern.recursion import (expand, expansion_from_dict,
                                    expansion_to_dict)
    pf = load_problem_file(problem("sin_drift.json"))
    exp = expand(pf.pc, [0.0], pf.order_K, pf.warp, pf.degree_D)
    clone = expansion_from_dict(json.loads(json.dumps(expansion_to_dict(exp))))
    rng = np.random.default_rng(21)
    for _ in range(25):
        t = rng.uniform(0.01, 0.3)
        x = rng.uniform(-1, 1, 1)
        assert eval_kernel(exp, t, x).value == eval_kernel(clone, t, x).value
