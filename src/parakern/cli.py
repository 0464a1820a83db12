"""Batch command-line interface.

Subcommands: ``expand`` (coefficient tables), ``eval`` (kernel values,
gradients and residuals to CSV), ``solve`` (problem representations to
CSV/JSON) and ``validate`` (oracle suite with a machine-readable report).

Exit codes: 0 success, 2 problem-file validation failure, 3 numeric
failure (including failed validation checks).  All behavior is driven by
explicit flags; no environment variables are consulted.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import __version__, recursion
from .errors import ParakernError, ParameterError, SchemaError
from .funcspec import PolyEntry
from .kernel import KernelField, eval_points
from .problemfile import ProblemFile, load_problem_file
from .recursion import (ProblemCoefficients, WarpParams, expand,
                        expansion_from_dict, expansion_to_dict, resolve_warp)
from .solvers import (QuadratureConfig, burgers_demo, lattice, solve_cauchy,
                      solve_ibvp2, _write_csv, _write_text)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERIC = 3


def _parse_floats(values, where: str) -> list[float]:
    """Finite floats from strings; anything else is a :class:`SchemaError`
    naming ``where`` (a flag or a file)."""
    out = []
    for v in values:
        try:
            f = float(v)
        except ValueError:
            raise SchemaError(f"{where}: {v!r} is not a number") from None
        if not math.isfinite(f):
            raise SchemaError(f"{where}: {v!r} is not finite")
        out.append(f)
    return out


def _parse_center(text: str | None, dim: int) -> np.ndarray:
    if not text:
        return np.zeros(dim)
    vals = _parse_floats(text.split(","), "--center")
    if len(vals) != dim:
        raise SchemaError(f"--center needs {dim} comma-separated values")
    return np.array(vals)


def _apply_overrides(pf: ProblemFile, args) -> ProblemFile:
    for flag, value in (("--order", args.order), ("--degree", args.degree)):
        if value is not None and value < 0:
            # the schema's minimum for the file's order_K and degree_D
            raise SchemaError(f"{flag} must be at least 0, got {value}")
    order = args.order if args.order is not None else pf.order_K
    degree = args.degree if args.degree is not None else pf.degree_D
    warp, mode = pf.warp, args.mode or pf.warp.mode
    # the file's own mode, named alone, keeps the file's warp
    if args.beta is not None or args.c_target is not None \
            or mode != warp.mode:
        try:
            warp = resolve_warp(pf.pc, pf.ps.horizon, mode, args.beta,
                                args.c_target)
        except ParameterError as exc:
            given = [f"{flag} {value}" for flag, value in (
                ("--mode", args.mode), ("--beta", args.beta),
                ("--c-target", args.c_target)) if value is not None]
            raise SchemaError(f"{' '.join(given)}: {exc}") from exc
    quad = {}
    for name in ("gh_order", "gl_order", "steps"):
        value = getattr(args, name)
        if value is not None and value < 2:
            # the schema's minimum for the file's quadrature settings
            flag = "--" + name.replace("_", "-")
            raise SchemaError(f"{flag} must be at least 2, got {value}")
        quad[name] = getattr(pf.quad, name) if value is None else value
    return ProblemFile(pf.pc, pf.ps, order, degree, warp,
                       QuadratureConfig(**quad))


@contextlib.contextmanager
def _writing(path: str):
    """An output that cannot be written (a missing directory, a directory
    named as the file) is a :class:`SchemaError`, as an unreadable
    ``--points`` file is."""
    try:
        yield
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------

def cmd_expand(args) -> int:
    pf = _apply_overrides(load_problem_file(args.file), args)
    y = _parse_center(args.center, pf.pc.n)
    exp = expand(pf.pc, y, pf.order_K, pf.warp, pf.degree_D)
    text = json.dumps(expansion_to_dict(exp), indent=1)
    if args.out:
        with _writing(args.out):
            _write_text(args.out, text)
    else:
        print(text)
    diag = exp.diagnostics
    print(f"# expansion mode={exp.warp.mode} beta={exp.warp.beta:.6g} "
          f"K={exp.order_K} D={exp.degree_D} center={list(exp.center)}")
    print(f"# diagnostics at tau_ref={diag.tau_ref}")
    print(f"{'k':>3s} {'c_k_up':>24s} {'c_k_up*tau^k':>24s}")
    for k, (s, w) in enumerate(zip(diag.sup_norms, diag.weighted)):
        print(f"{k:3d} {s:24.15e} {w:24.15e}")
    if exp.truncated:
        print("# note: degree-cap truncation occurred "
              "(inherent for non-polynomial drift)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _read_points(path: str, dim: int) -> np.ndarray:
    rows = []
    try:
        with open(path, newline="") as fh:
            for line, row in enumerate(csv.reader(fh), 1):
                if not row or row[0].startswith("#") or row[0].startswith("x"):
                    continue
                if len(row) < dim:
                    raise SchemaError(
                        f"{path}, line {line}: {len(row)} values, need {dim}")
                rows.append(_parse_floats(row[:dim], f"{path}, line {line}"))
    except OSError as exc:
        raise SchemaError(f"cannot read points file: {exc}") from None
    if not rows:
        raise SchemaError(f"no points found in {path}")
    return np.array(rows)


def cmd_eval(args) -> int:
    pf = _apply_overrides(load_problem_file(args.file), args)
    # every argument is checked before the expansion is built
    y = _parse_center(args.center, pf.pc.n)
    pts = _read_points(args.points, pf.pc.n) if args.points \
        else lattice(pf.ps, 11)
    times = _parse_floats(args.t.split(","), "--t") if args.t else [0.1]
    exp = expand(pf.pc, y, pf.order_K, pf.warp, pf.degree_D)
    # every row is computed before --out is opened, so a numeric failure
    # leaves no file behind and an existing one untouched
    kp = eval_points(exp, times, pts, pf.pc)
    # [time, point, component, column]: value, log value, gradient, residual
    table = np.concatenate(
        [kp.value[..., None], kp.log_value[..., None], kp.gradient,
         kp.residual_rel[..., None]], axis=-1).transpose(1, 2, 0, 3).tolist()
    xs, grads = ([f"{name}{i + 1}" for i in range(pf.pc.n)]
                 for name in ("x", "grad"))
    lines = [",".join(["t", *xs, "component", "value", "log_value", *grads,
                       "residual_rel"])]
    for t, at_t in zip(times, table):
        for x, at_x in zip(pts.tolist(), at_t):
            head = ",".join(map(repr, [t, *x]))
            lines += [f"{head},{j},{','.join(map(repr, values))}"
                      for j, values in enumerate(at_x)]
    if args.out:
        with _writing(args.out):
            _write_csv(args.out, lines)
    else:
        _write_csv(None, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    pf = _apply_overrides(load_problem_file(args.file), args)
    base = args.out or "solution"
    fld = KernelField(pf.pc, pf.warp, pf.order_K, pf.degree_D)
    points = lattice(pf.ps, 41 if pf.pc.n == 1 else 9)
    if pf.ps.kind == "cauchy":
        sol = solve_cauchy(pf.ps, fld, pf.quad, points=points)
    elif pf.ps.kind == "ibvp2":
        sol, dens = solve_ibvp2(pf.ps, fld, pf.quad.steps, pf.quad)
    else:
        sol = burgers_demo(pf.ps, pf.order_K, pf.quad, points=points,
                           warp=pf.warp, D=pf.degree_D)
    outputs = {f"{base}.csv": sol.to_csv, f"{base}.json": sol.to_json}
    if pf.ps.kind == "ibvp2":
        outputs[f"{base}_density.csv"] = dens.to_csv
    for path, write in outputs.items():
        with _writing(path):
            write(path)
    print("wrote " + " and ".join(outputs))
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _check(name, deviation, tol):
    return {"name": name, "max_deviation": float(deviation),
            "tolerance": float(tol),
            "status": "PASS" if deviation <= tol else "FAIL"}


def _ray_weight_check():
    """Adjudicate the plain solve's ray weights against adaptive
    quadrature, on the monomials dx^g of a 1D table, k and g <= 8: row g
    of R_{k-1} is divided by k + g (``_BatchWorkspace.ray``),
    int_0^1 s^g s^(k-1) ds.  Read from ``recursion`` at call time, so a
    corrupted weight fails the check."""
    from .oracle import quad_ray
    D = 8
    ws = recursion._BatchWorkspace(ProblemCoefficients(1, 1, {}),
                                   np.zeros((1, 1)), None, D)
    plain = 0.0
    for k in range(1, 9):
        applied = ws.ray(np.ones((D + 1, 1, 1)), float(k))[:, 0, 0]
        for g in range(D + 1):
            plain = max(plain, abs(applied[g] - quad_ray(lambda s: s ** g, k)))
    return _check("ray_weight_E2_plain", plain, 1e-12)


def _tau_reexpansion_check():
    """Tau mode's re-expansion map [tau^q] t(tau)^m, q and m <= 8, of
    t(tau) = -beta ln(1 - tau) = beta sum_j tau^j / j, against exact
    rational arithmetic at beta = 1/2 and 2.  Read from ``recursion`` at
    call time, so a corrupted entry fails the check."""
    K, worst = 8, 0.0
    for beta in (Fraction(1, 2), Fraction(2)):
        t = [Fraction(0)] + [beta / j for j in range(1, K + 1)]
        power = [Fraction(1)] + [Fraction(0)] * K           # t(tau)^0
        M = recursion._tau_reexpansion(float(beta), K)
        for m in range(K + 1):
            worst = max(worst, *(abs(Fraction(M[q, m]) - power[q])
                                 for q in range(K + 1)))
            power = [sum(power[i] * t[q - i] for i in range(q + 1))
                     for q in range(K + 1)]
    return _check("tau_reexpansion_E4", worst, 1e-12)


def _roundtrip_check(pf: ProblemFile):
    y = np.zeros(pf.pc.n)
    exp = expand(pf.pc, y, min(pf.order_K, 4), pf.warp, pf.degree_D)
    clone = expansion_from_dict(
        json.loads(json.dumps(expansion_to_dict(exp))))
    rng = np.random.default_rng(7)
    xs, ts = rng.uniform(-0.5, 0.5, (20, pf.pc.n)), rng.uniform(0.05, 0.2, 20)
    v1, v2 = (eval_points(e, ts, xs).log_value for e in (exp, clone))
    return _check("roundtrip_serialization",
                  float(np.max(np.abs(v1 - v2))), 0.0)


def _const_drift_check(pf: ProblemFile):
    from .oracle import exact_const_drift_kernel
    # b0 + b1 t: every constant term of the time parts 0 and 1
    b = [0.0, 0.0]
    for l, part in pf.pc.drift[(0, 0, 0)].parts:
        b[l] += sum(c for c, _ in part.terms)
    b0, b1 = b
    exp = expand(pf.pc, [0.0], max(pf.order_K, 2), WarpParams(), pf.degree_D)
    worst = 0.0
    xs = np.linspace(-1, 1, 9)
    for t in (0.1, 0.5, 1.0):
        for x, value in zip(xs, eval_points(exp, t, xs[:, None]).value[0]):
            ref = exact_const_drift_kernel(b0, b1, t, x, 0.0)
            worst = max(worst, abs(value / ref - 1.0))
    tail = float(np.max(np.abs(exp.coeffs[0, 4:]), initial=0.0))
    return [_check("const_drift_kernel", worst, 1e-10),
            _check("const_drift_termination", tail, 1e-14)]


def _is_const_drift(pf: ProblemFile) -> bool:
    """A 1D scalar drift b0 + b1 t and no potential, whose kernel
    ``oracle.exact_const_drift_kernel`` gives in closed form."""
    if pf.pc.n != 1 or pf.pc.components != 1 or not pf.pc.drift \
            or pf.pc.potential:
        return False
    return all(l <= 1 and isinstance(p, PolyEntry)
               and all(sum(e) == 0 for _, e in p.terms)
               for l, p in pf.pc.drift[(0, 0, 0)].parts)


def _zero_drift_check(pf: ProblemFile):
    exp = expand(pf.pc, np.zeros(pf.pc.n), pf.order_K, WarpParams(),
                 pf.degree_D)
    worst = float(np.max(np.abs(exp.coeffs)))
    return _check("zero_drift_trivial", worst, 0.0)


def _normalization_check_entry(pf: ProblemFile):
    from .kernel import normalization_check
    fld = KernelField(pf.pc, WarpParams(), min(pf.order_K, 6), pf.degree_D)
    t = min(0.1, pf.ps.horizon)
    val = normalization_check(fld, t, np.zeros(pf.pc.n), 40)
    return _check("normalization_gh40", abs(val - 1.0), 1e-4)


def _beta_equivalence_check(pf: ProblemFile):
    beta = 0.5
    y = np.zeros(pf.pc.n)
    K = min(pf.order_K, 8)
    plain = expand(pf.pc, y, K, WarpParams(), pf.degree_D)
    bexp = expand(pf.pc, y, K, WarpParams(mode="beta", beta=beta), pf.degree_D)
    xs = np.repeat(np.linspace(-0.4, 0.4, 5)[:, None], pf.pc.n, axis=1)
    ts = np.array([0.05, 0.1, 0.2])
    v1 = eval_points(plain, ts, xs).log_value[0]
    v2 = eval_points(bexp, ts / beta, xs).log_value[0]
    return _check("mode_equivalence_beta",
                  float(np.max(np.abs(np.exp(v2 - v1) - 1.0))), 1e-10)


def cmd_validate(args) -> int:
    pf = _apply_overrides(load_problem_file(args.file), args)
    checks = [_ray_weight_check(), _tau_reexpansion_check(),
              _roundtrip_check(pf)]
    if pf.pc.drift or pf.pc.potential:
        checks.append(_check("coefficient_bounds",
                             pf.pc.spot_check_bounds(), 1.0 + 1e-12))
    if pf.pc.is_zero_drift():
        checks.append(_zero_drift_check(pf))
    elif _is_const_drift(pf):
        checks.extend(_const_drift_check(pf))
    if pf.pc.components == 1 and not pf.pc.potential:
        checks.append(_normalization_check_entry(pf))
        if not pf.pc.is_zero_drift() and not pf.pc.time_dependent:
            checks.append(_beta_equivalence_check(pf))
    status = "PASS" if all(c["status"] == "PASS" for c in checks) else "FAIL"
    report = {"file": args.file, "status": status, "checks": checks}
    text = json.dumps(report, indent=1)
    if args.out:
        with _writing(args.out):
            _write_text(args.out, text + "\n")
    print(text)
    return EXIT_OK if status == "PASS" else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("file", help="problem JSON file")
    p.add_argument("--order", type=int, help="expansion order K")
    p.add_argument("--degree", type=int, help="polynomial degree cap D")
    p.add_argument("--mode", choices=["plain", "beta", "tau"])
    p.add_argument("--beta", type=float, help="warp parameter")
    p.add_argument("--c-target", dest="c_target", type=float,
                   help="convergence constant for tau scheduling")
    p.add_argument("--gh-order", dest="gh_order", type=int)
    p.add_argument("--gl-order", dest="gl_order", type=int)
    p.add_argument("--steps", type=int, help="ibvp2 marching steps")
    p.add_argument("--out", help="output path (or base path for solve)")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="parakern",
        description="analytic kernel expansions for drift-coupled "
                    "parabolic problems")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="compute expansion coefficients")
    _add_common(p)
    p.add_argument("--center", help="expansion center, comma separated")

    p = sub.add_parser("eval", help="evaluate kernel values to CSV")
    _add_common(p)
    p.add_argument("--center", help="expansion center, comma separated")
    p.add_argument("--points", help="CSV of evaluation points")
    p.add_argument("--t", help="comma-separated evaluation times")

    p = sub.add_parser("solve", help="run the problem's representation")
    _add_common(p)

    p = sub.add_parser("validate", help="run the oracle validation suite")
    _add_common(p)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"expand": cmd_expand, "eval": cmd_eval,
                "solve": cmd_solve, "validate": cmd_validate}
    try:
        return handlers[args.command](args)
    except SchemaError as exc:
        print(f"problem-file error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ParakernError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
