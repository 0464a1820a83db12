"""The four benchmark workloads.

Each workload generates a pool of op inputs from the seed, builds the
reference answers in set-up from a path that shares no code with the one
it checks, and runs one op (one user-visible job) at a time.  Ops call the
library through module attributes (``solvers.solve_cauchy``, never a
``from`` import) so that the tracer's rebinding reaches them.

Why each workload exists:

* ``cauchy_cold_1d`` -- build-heavy: a fresh ``KernelField`` per op, as
  every ``parakern solve`` makes, so each expansion is used once.
* ``ibvp2_march`` -- zero drift, so ``expand`` never runs; time goes to the
  Volterra march and the per-scalar ``pair_*`` kernel calls.
* ``eval_tau_2d`` -- read-heavy: one large tau-mode expansion of a 2D
  two-component system evaluated many times through the CLI.
* ``fd_oracle`` -- the Crank-Nicolson reference solver with a drift that
  changes every step, so the operator is refactored each step.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from parakern import cli, kernel, oracle, problemfile, solvers


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


class Workload:
    """Inputs, references and the op of one workload."""

    name = ""
    tol = 0.0            # largest error an op may have and still pass
    pool_size = 512      # distinct inputs; a run cycles if it needs more
    calibration = "scalar"   # kind of work the op does (see run.CAL_REF_S)

    def __init__(self, root: str, outdir: str):
        self.root = root
        self.outdir = os.path.join(outdir, self.name)
        os.makedirs(self.outdir, exist_ok=True)
        self.inputs: list = []
        self.refs: list = []

    def setup(self, seed: int):
        """Generate inputs, build references and run one warm-up op."""
        rng = np.random.default_rng(seed)
        self.generate(rng)
        self.op(0)

    def generate(self, rng: np.random.Generator):
        raise NotImplementedError

    def op(self, i: int):
        """Run op ``i``; returns what :meth:`error` checks."""
        raise NotImplementedError

    def error(self, i: int, result) -> float:
        raise NotImplementedError

    def gh_attempts(self, i: int) -> int:
        """Gauss-Hermite nodes op ``i`` asks the kernel for (0 if none)."""
        return 0

    def written_bytes(self, i: int) -> int:
        """Bytes of output files op ``i`` wrote."""
        return 0

    def _path(self, stem: str) -> str:
        return os.path.join(self.outdir, stem)

    def _sizes(self, *stems: str) -> int:
        return sum(os.path.getsize(self._path(s)) for s in stems)


class CauchyCold1D(Workload):
    """``solve_cauchy`` of sin_drift.json with seeded data, cold each op.

    Initial data are seeded positive combinations of three fixed Gaussians,
    so by linearity the reference is the same combination of three
    finite-difference solutions, one per Gaussian, each Richardson-
    extrapolated from two grids.  Evaluation points sit on both grids; ops
    visit them in a seeded order, so a run of more ops than points sees
    every one and the worst error does not hinge on which were drawn.
    """

    name = "cauchy_cold_1d"
    tol = 1e-5
    basis = ((1.0, 0.0), (2.0, 0.4), (0.5, -0.3))   # (width b, centre c)
    fd_box = (-6.0, 6.0)
    fd_grids = ((1 / 64, 1e-3), (1 / 128, 5e-4))    # (h, dt), ratio 2

    def generate(self, rng):
        base = _load_json(os.path.join(self.root, "problems",
                                       "sin_drift.json"))
        lo, hi = base["domain"]["lower"][0], base["domain"]["upper"][0]
        h = self.fd_grids[0][0]
        nodes = np.arange(math.ceil(lo / h), math.floor(hi / h) + 1) * h
        profiles = [self._reference(base, b, c, nodes) for b, c in self.basis]
        order = rng.permutation(len(nodes))
        for j in range(self.pool_size):
            weights = rng.uniform(0.9, 1.0, len(self.basis))
            k = int(order[j % len(nodes)])
            data = json.loads(json.dumps(base))
            data["problem"]["phi"] = {
                "kind": "gaussian_mix",
                "terms": [[float(a), b, [c]]
                          for a, (b, c) in zip(weights, self.basis)]}
            self.inputs.append((data, np.array([[nodes[k]]])))
            self.refs.append(np.array([sum(
                a * prof[k] for a, prof in zip(weights, profiles))]))
        self.gh = int(base["quadrature"]["gh_order"])

    def _reference(self, base, b, c, nodes):
        data = json.loads(json.dumps(base))
        data["domain"] = {"lower": [self.fd_box[0]], "upper": [self.fd_box[1]]}
        data["problem"]["phi"] = {"kind": "gaussian_mix",
                                  "terms": [[1.0, b, [c]]]}
        ps = problemfile.load_problem_dict(data).ps
        sols = []
        for h, dt in self.fd_grids:
            sol = oracle.fd_solve(ps, oracle.FDConfig(h=h, dt=dt))
            grid = sol.points[:, 0]
            idx = np.rint((nodes - grid[0]) / h).astype(int)
            if not np.allclose(grid[idx], nodes, rtol=0, atol=1e-12):
                raise RuntimeError("reference nodes are off the FD grid")
            sols.append(sol.values[-1][idx, 0])
        coarse, fine = sols
        return (4.0 * fine - coarse) / 3.0

    def op(self, i):
        data, pts = self.inputs[i % len(self.inputs)]
        pf = problemfile.load_problem_dict(data)
        fld = kernel.KernelField(pf.pc, pf.warp, pf.order_K, pf.degree_D)
        sol = solvers.solve_cauchy(pf.ps, fld, pf.quad, points=pts)
        sol.to_csv(self._path("solution.csv"))
        sol.to_json(self._path("solution.json"))
        return sol.values[0, :, 0]

    def error(self, i, result):
        return float(np.max(np.abs(result - self.refs[i % len(self.refs)])))

    def gh_attempts(self, i):
        return len(self.inputs[i % len(self.inputs)][1]) * self.gh

    def written_bytes(self, i):
        return self._sizes("solution.csv", "solution.json")


class Ibvp2March(Workload):
    """``solve_ibvp2`` of the manufactured Robin problem with seeded alpha.

    u = exp(-t) cos x solves u_t = u_xx, and with
    psi = exp(-t) (alpha cos x - x sin x) it meets du/dnu + alpha u = psi
    on both ends of [0, 1] for every alpha, so the closed form is exact.
    """

    name = "ibvp2_march"
    tol = 0.05           # first-order march: 0.026 at alpha = 0.5
    horizon = 0.5
    steps = 16
    gl_order = 8
    points = 2

    def generate(self, rng):
        base = _load_json(os.path.join(self.root, "problems",
                                       "manufactured_ibvp2.json"))
        base["horizon"] = self.horizon
        base["quadrature"].update(gl_order=self.gl_order, steps=self.steps)
        for _ in range(self.pool_size):
            alpha = float(rng.uniform(0.5, 2.0))
            xs = np.sort(rng.uniform(0.05, 0.95, self.points))
            data = json.loads(json.dumps(base))
            data["problem"]["alpha"] = {"kind": "poly",
                                        "terms": [[alpha, [0]]]}
            data["problem"]["psi"]["space"] = {
                "kind": "polyfourier",
                "terms": [[alpha, [0], [1.0], math.pi / 2],
                          [-1.0, [1], [1.0], 0.0]]}
            self.inputs.append((data, xs[:, None]))
            self.refs.append(math.exp(-self.horizon) * np.cos(xs))

    def op(self, i):
        data, pts = self.inputs[i % len(self.inputs)]
        pf = problemfile.load_problem_dict(data)
        fld = kernel.KernelField(pf.pc, pf.warp, pf.order_K, pf.degree_D)
        sol, dens = solvers.solve_ibvp2(pf.ps, fld, pf.quad.steps, pf.quad,
                                        points=pts)
        sol.to_csv(self._path("solution.csv"))
        sol.to_json(self._path("solution.json"))
        dens.to_csv(self._path("solution_density.csv"))
        return sol.values[0, :, 0]

    def error(self, i, result):
        return float(np.max(np.abs(result - self.refs[i % len(self.refs)])))

    def written_bytes(self, i):
        return self._sizes("solution.csv", "solution.json",
                           "solution_density.csv")


class EvalTau2D(Workload):
    """``parakern eval`` of a seeded 2D two-component constant-drift system.

    Drifts are diagonal and constant, b^i_{ik} = r_i (cos theta_i,
    sin theta_i)_k, so component i's kernel is a product of 1D shifted
    Gaussians and ``oracle.exact_const_drift_log`` gives it exactly.  The
    magnitudes r_i are fixed and the directions seeded: the tau-mode
    truncation error depends on |b_i| only, so the worst error is a
    property of the workload rather than of the seed.
    """

    name = "eval_tau_2d"
    tol = 1e-6
    calibration = "dense"    # most of its time is poly_eval on 120 terms
    pool_size = 32
    radii = (0.5, 0.4)
    beta = 0.5
    times = (0.05, 0.1, 0.2)      # tau
    n_points = 8

    def generate(self, rng):
        for i in range(self.pool_size):
            theta = rng.uniform(0.0, 2.0 * math.pi, len(self.radii))
            drift = [(r * math.cos(a), r * math.sin(a))
                     for r, a in zip(self.radii, theta)]
            center = rng.uniform(-0.3, 0.3, 2)
            pts = rng.uniform(-1.0, 1.0, (self.n_points, 2))
            data = {
                "dimension": 2, "components": 2,
                "drift": [{"i": c, "j": c, "k": k, "kind": "poly",
                           "terms": [[drift[c][k], [0, 0]]]}
                          for c in range(2) for k in range(2)],
                "domain": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
                "horizon": 0.5,
                "problem": {"kind": "cauchy", "phi": {
                    "kind": "gaussian_mix", "terms": [[1.0, 1.0, [0.0, 0.0]]]}},
                "expansion": {"order_K": 6, "degree_D": 14, "mode": "tau",
                              "beta": self.beta},
                "quadrature": {"gh_order": 20, "gl_order": 16, "steps": 32},
            }
            problemfile.load_problem_dict(data)     # schema check
            with open(self._path(f"problem_{i}.json"), "w") as fh:
                json.dump(data, fh)
            with open(self._path(f"points_{i}.csv"), "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["x1", "x2"])
                writer.writerows([[repr(float(v)) for v in p] for p in pts])
            argv = ["eval", self._path(f"problem_{i}.json"),
                    "--center=" + ",".join(repr(float(v)) for v in center),
                    "--points", self._path(f"points_{i}.csv"),
                    "--t", ",".join(repr(t) for t in self.times),
                    "--out", self._path(f"kernel_{i}.csv")]
            self.inputs.append(argv)
            self.refs.append(self._reference(drift, center, pts))

    def _reference(self, drift, center, pts):
        """log p_i(tau, x; y) for every (tau, point, component) row."""
        ref = {}
        for tau in self.times:
            t = -self.beta * math.log1p(-tau)
            for p in pts:
                for c in range(2):
                    ref[(tau, float(p[0]), float(p[1]), c)] = sum(
                        oracle.exact_const_drift_log(
                            drift[c][k], 0.0, t, float(p[k]), float(center[k]))
                        for k in range(2))
        return ref

    def op(self, i):
        rc = cli.main(self.inputs[i % len(self.inputs)])
        if rc != 0:
            raise RuntimeError(f"parakern eval exited with {rc}")
        return self._path(f"kernel_{i % len(self.inputs)}.csv")

    def error(self, i, result):
        ref = self.refs[i % len(self.refs)]
        with open(result, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != len(ref):
            return math.inf
        worst = 0.0
        for row in rows:
            t, x1, x2, comp, value, logv = row[:6]
            if not all(math.isfinite(float(v)) for v in row):
                return math.inf
            key = (float(t), float(x1), float(x2), int(comp))
            worst = max(worst, abs(float(logv) - ref[key]))
        return worst

    def written_bytes(self, i):
        return self._sizes(f"kernel_{i % len(self.inputs)}.csv")


class FdOracle(Workload):
    """``oracle.fd_solve`` of a seeded Cauchy problem with drift b0 + b1 t.

    With B(t) = b0 t + b1 t^2 / 2 the exact solution from characteristics
    for phi = a exp(-w (x - c)^2) is
    a / sqrt(1 + 4 w t) * exp(-w (x + B(t) - c)^2 / (1 + 4 w t)).
    """

    name = "fd_oracle"
    tol = 1e-3
    horizon = 0.2
    box = (-4.0, 4.0)
    cfg = (1 / 16, 0.01)           # (h, dt)

    def generate(self, rng):
        for _ in range(self.pool_size):
            b0 = float(rng.uniform(-0.8, 0.8))
            b1 = float(rng.uniform(-2.0, 2.0))
            a = float(rng.uniform(0.8, 1.2))
            w = float(rng.uniform(2.0, 3.0))
            c = float(rng.uniform(-0.5, 0.5))
            data = {
                "dimension": 1, "components": 1,
                "drift": [{"i": 0, "j": 0, "k": 0, "kind": "time_poly",
                           "terms": [[0, {"kind": "poly", "terms": [[b0, [0]]]}],
                                     [1, {"kind": "poly", "terms": [[b1, [0]]]}]]}],
                "domain": {"lower": [self.box[0]], "upper": [self.box[1]]},
                "horizon": self.horizon,
                "problem": {"kind": "cauchy", "phi": {
                    "kind": "gaussian_mix", "terms": [[a, w, [c]]]}},
                "expansion": {"order_K": 4, "mode": "plain"},
                "quadrature": {"gh_order": 20, "gl_order": 16, "steps": 32},
            }
            self.inputs.append(data)
            self.refs.append((b0, b1, a, w, c))

    def op(self, i):
        pf = problemfile.load_problem_dict(self.inputs[i % len(self.inputs)])
        h, dt = self.cfg
        sol = oracle.fd_solve(pf.ps, oracle.FDConfig(h=h, dt=dt))
        return sol.points[:, 0], sol.values[-1][:, 0]

    def error(self, i, result):
        b0, b1, a, w, c = self.refs[i % len(self.refs)]
        x, u = result
        t = self.horizon
        spread = 1.0 + 4.0 * w * t
        shift = b0 * t + b1 * t * t / 2.0
        exact = a / math.sqrt(spread) * np.exp(-w * (x + shift - c) ** 2 / spread)
        inner = (x >= -1.0) & (x <= 1.0)
        return float(np.max(np.abs(u - exact)[inner]))


WORKLOADS = {w.name: w for w in (CauchyCold1D, Ibvp2March, EvalTau2D, FdOracle)}
