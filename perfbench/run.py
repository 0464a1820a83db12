"""parakern benchmark: one workload per run, one process, one thread.

    python3 perfbench/run.py --workload cauchy_cold_1d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The launcher pins BLAS/OpenMP threads to 1 and the hash seed to 0, then
re-executes itself.  A run generates its inputs from ``--seed``, sets up
(imports, inputs, problem load, references, one warm-up op), runs ops
back to back for ``--seconds`` (a closed loop with one client), checks
every op's answer against the workload's reference and prints a table
followed by one JSON line.  The exit code is 1 if any op failed.

The machine this was written on runs identical ops up to twice as slow,
for stretches from a fraction of a second to many seconds, when
neighbouring tenants are busy; CPU time equals wall time.  So machine
speed is sampled with a fixed calibration loop, matched to the kind of
work the workload does, between ops and, through a timer signal, every
PROBE_INTERVAL_S during them.  Op times are reported at reference speed:
wall time (less the sampling) times the mean speed of the samples,
relative to CAL_REF_S.  The raw wall-clock figures are printed next to
them.

With ``--trace 0`` the JSON carries the end-to-end metrics.  Set-up is
timed three times (this process and two fresh ones), each scaled like an
op by the speed sampled during it and three loops right after it, and the
median reported.  With ``--trace 1`` every other op runs with the layer
tracer installed; the JSON carries per-op layer metrics from the traced
ops and the tracing overhead against the untraced ops in between.  Spans,
per-op counts and results go to ``perfbench/out/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
WORKLOAD_NAMES = ("cauchy_cold_1d", "ibvp2_march", "eval_tau_2d", "fd_oracle")
SETUP_REPEATS = 3
# Machine-speed calibration.  There are two loops, one per kind of work
# the workloads' hot paths do, because contention slows the two kinds by
# different factors: "scalar" (per-scalar Python calls, tuples, calls on
# 20-element arrays) and "dense" (the same plus the evaluation of a dense
# 2D degree-14 polynomial).  CAL_REF_S is seconds per iteration on the
# reference machine (2-core x86-64 VM, Python 3.11) when no neighbour is
# busy, so scaled times read as seconds on that machine at that speed.
CAL_REF_S = {"scalar": 3.5e-6, "dense": 27e-6}
CAL_S = 0.003             # length of the loop run between ops
PROBE_S = 0.0003          # length of the loop run during an op ...
PROBE_INTERVAL_S = 0.02   # ... this often

END_TO_END = {
    "ops_per_s": "1/s", "op_p50_s": "s", "op_p90_s": "s", "max_err": "abs",
    "ok_frac": "frac", "setup_s": "s", "peak_rss_mb": "MB",
}
# Groups whose exact per-op call counts are recorded and replay-checked.
COUNTED = ("recursion.expand", "kernel.correction", "kernel.pair",
           "solvers.leggauss", "oracle.splu")


# a (120, 2) exponent table: the dense 2D degree-14 polynomial basis
_CAL_EXPS = np.array([(a, d - a) for d in range(15) for a in range(d + 1)])
_CAL_SMALL = np.arange(20.0)


def speed(kind: str, seconds: float = CAL_S) -> float:
    """Machine speed relative to the reference, from one calibration loop."""
    ref = CAL_REF_S[kind]
    iterations = max(1, round(seconds / ref))
    dense = kind == "dense"
    coeffs = np.ones(len(_CAL_EXPS))
    dx = np.array([0.2, -0.3])
    start = time.perf_counter()
    items, acc = [], 0.0
    for i in range(iterations):
        items.append((i, float(_CAL_SMALL[i % 20]) * 0.5))
        acc += float(np.sum(_CAL_SMALL * 0.5))
        if dense:
            acc += float(coeffs @ np.prod(dx[None, :] ** _CAL_EXPS, axis=1))
    return ref * iterations / (time.perf_counter() - start)


class SpeedProbe:
    """Samples machine speed while armed, from a SIGALRM handler.

    ``spent`` is the wall time the samples took; the caller takes it out
    of the op's time.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(speed(self.kind, PROBE_S))
        self.spent += time.perf_counter() - start

    def arm(self):
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def environment() -> dict:
    import scipy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            **{k: os.environ.get(k) for k in PINNED}}


def child_setup_seconds(args) -> float:
    """Set-up time of the same workload and seed in a fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0", "--setup-only"],
        capture_output=True, text=True, timeout=150, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_all(args) -> int:
    worst = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], timeout=900)
        worst = max(worst, proc.returncode)
    return worst


def run_ops(wl, seconds, probe, tracer=None):
    """Closed loop of ops for ``seconds``; traced ops alternate if tracing.

    A full calibration loop runs before the first op and after every op;
    each op is scaled by the mean speed of the two around it and of the
    samples taken during it.
    """
    ops = []
    begin = time.perf_counter()
    deadline = begin + seconds
    speed_before = speed(probe.kind)
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 0
        if traced:
            tracer.op = i
            tracer.install()
            before = tracer.call_counts()
        probe.arm()
        start = time.perf_counter()
        try:
            result, failure = wl.op(i), None
        except Exception:       # an op that raises is a failed op
            result, failure = None, traceback.format_exc()
        finally:
            probe.disarm()
        took = time.perf_counter() - start - probe.spent
        speed_after = speed(probe.kind)
        rate = statistics.fmean([speed_before, *probe.samples, speed_after])
        speed_before = speed_after
        rec = {"i": i, "wall": took, "speed": rate, "s": took * rate,
               "samples": len(probe.samples), "result": result,
               "failure": failure, "traced": traced}
        if traced:
            tracer.uninstall()
            after = tracer.call_counts()
            rec["counts"] = {g: after.get(g, 0) - before.get(g, 0)
                             for g in COUNTED}
            rec["bytes"] = wl.written_bytes(i) if failure is None else 0
        ops.append(rec)
        i += 1
        # a traced run needs untraced ops too, for the overhead
        if time.perf_counter() >= deadline and (tracer is None or i > 1):
            break
    return ops, time.perf_counter() - begin


def check(wl, ops) -> tuple[int, float]:
    """Score every op against its reference; returns (failed, worst error)."""
    failed, worst = 0, 0.0
    for rec in ops:
        if rec["failure"] is None:
            rec["err"] = wl.error(rec["i"], rec["result"])
            if not rec["err"] <= wl.tol:
                rec["failure"] = f"error {rec['err']!r} above {wl.tol!r}"
            worst = max(worst, rec["err"])
        if rec["failure"] is not None:
            failed += 1
            if failed == 1:
                print(f"# op {rec['i']} failed: {rec['failure']}",
                      file=sys.stderr)
    return failed, worst


def p90(values):
    """90th percentile, interpolating between order statistics."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(ops, elapsed, worst, failed, setups):
    durs = [rec["s"] for rec in ops]
    walls = [rec["wall"] for rec in ops]
    n = len(durs)
    q90 = p90(durs)
    values = {
        "ops_per_s": n / sum(durs),
        "op_p50_s": statistics.median(durs),
        "op_p90_s": q90,
        "max_err": worst,
        "ok_frac": 1.0 - failed / n,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    notes = {
        "ops_per_s": f"{n} ops; wall {n / elapsed:.4g}/s over {elapsed:.2f} s "
                     "of loop",
        "op_p50_s": f"n={n}; wall {statistics.median(walls):.4g} s; "
                    "median speed "
                    f"{statistics.median(rec['speed'] for rec in ops):.3f}",
        "op_p90_s": f"n={n}, {sum(d > q90 for d in durs)} beyond; "
                    f"wall {p90(walls):.4g} s",
        "max_err": f"n={n}",
        "ok_frac": f"failed_frac={failed / n:.6g} ({failed}/{n})",
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups)
                   + " (scaled like ops)",
        "peak_rss_mb": "ru_maxrss of the measuring process",
    }
    return ({k: (values[k], END_TO_END[k]) for k in END_TO_END}, notes)


def per_layer(tracer, wl, ops):
    traced = [rec for rec in ops if rec["traced"]]
    untraced = [rec for rec in ops if not rec["traced"]]
    nt = len(traced)

    def calls(group):
        return tracer.group_stat(group)[0] / nt

    def busy(group):
        return tracer.group_stat(group)[1] / nt

    def own(group):
        return tracer.group_stat(group)[2] / nt

    def layer_busy(layer):
        return tracer.layer_stat(layer)[0] / nt

    def layer_self(layer):
        return tracer.layer_stat(layer)[1] / nt

    expand_durs = tracer.durations("recursion.expand")
    n_expand = tracer.group_stat("recursion.expand")[0]
    n_expansion = tracer.group_stat("kernel.expansion")[0]
    n_correction = tracer.group_stat("kernel.correction")[0]
    attempts = sum(wl.gh_attempts(rec["i"]) for rec in traced)
    traced_rate = nt / sum(rec["s"] for rec in traced)
    untraced_rate = len(untraced) / sum(rec["s"] for rec in untraced)
    m = {
        "problemfile.load.busy_s": (busy("problemfile.load"), "s"),
        "problemfile.self_s": (layer_self("problemfile"), "s"),
        "polyalg.poly_mul.calls": (calls("polyalg.poly_mul"), "count"),
        "polyalg.poly_mul.busy_s": (busy("polyalg.poly_mul"), "s"),
        "polyalg.taylorize.calls": (calls("polyalg.taylorize"), "count"),
        "polyalg.taylorize.busy_s": (busy("polyalg.taylorize"), "s"),
        "polyalg.poly_eval.calls": (calls("polyalg.poly_eval"), "count"),
        "polyalg.poly_eval.busy_s": (busy("polyalg.poly_eval"), "s"),
        "polyalg.self_s": (layer_self("polyalg"), "s"),
        "recursion.expand.calls": (calls("recursion.expand"), "count"),
        "recursion.expand.busy_s": (busy("recursion.expand"), "s"),
        "recursion.expand.self_s": (own("recursion.expand"), "s"),
        "recursion.expand.p50_s": (
            float(statistics.median(expand_durs)) if len(expand_durs)
            else 0.0, "s"),
        "recursion.self_s": (layer_self("recursion"), "s"),
        "kernel.cache_hit_ratio": (
            1.0 - n_expand / n_expansion if n_expansion else 0.0, "ratio"),
        "kernel.correction.calls": (calls("kernel.correction"), "count"),
        "kernel.gh_drop_ratio": (
            1.0 - n_correction / attempts if attempts else 0.0, "ratio"),
        "kernel.eval.calls": (calls("kernel.eval"), "count"),
        "kernel.eval.self_s": (own("kernel.eval"), "s"),
        "kernel.residual.calls": (calls("kernel.residual"), "count"),
        "kernel.residual.self_s": (own("kernel.residual"), "s"),
        "kernel.pair.calls": (calls("kernel.pair"), "count"),
        "kernel.pair.self_s": (own("kernel.pair"), "s"),
        "kernel.self_s": (layer_self("kernel"), "s"),
        "solvers.busy_s": (layer_busy("solvers"), "s"),
        "solvers.self_s": (layer_self("solvers"), "s"),
        "solvers.leggauss.calls": (calls("solvers.leggauss"), "count"),
        "solvers.write.busy_s": (busy("solvers.write"), "s"),
        "solvers.write.bytes": (sum(rec["bytes"] for rec in traced) / nt,
                                "B"),
        "cli.main.busy_s": (busy("cli.main"), "s"),
        "cli.self_s": (layer_self("cli"), "s"),
        "oracle.fd_solve.busy_s": (busy("oracle.fd_solve"), "s"),
        "oracle.splu.calls": (calls("oracle.splu"), "count"),
        "oracle.factor_s": (busy("oracle.splu"), "s"),
        "oracle.self_s": (layer_self("oracle"), "s"),
        "trace.ops_per_s": (traced_rate, "1/s"),
        "trace.untraced_ops_per_s": (untraced_rate, "1/s"),
        "trace.slowdown": (untraced_rate / traced_rate, "ratio"),
    }
    notes = {"trace.ops_per_s": f"{nt} traced ops",
             "trace.untraced_ops_per_s": f"{len(untraced)} untraced ops",
             "recursion.expand.p50_s": f"n={len(expand_durs)} expand spans"}
    return m, notes


def replay_counts(wl, tracer, first) -> str | None:
    """Re-run the first traced op; its exact counts must repeat."""
    tracer.op = first["i"]
    before = tracer.call_counts()
    tracer.install()
    try:
        wl.op(first["i"])
    finally:
        tracer.uninstall()
    after = tracer.call_counts()
    again = {g: after.get(g, 0) - before.get(g, 0) for g in COUNTED}
    if again != first["counts"]:
        return f"op {first['i']} counts {first['counts']} then {again}"
    return None


def print_table(title, metrics, notes):
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:16.8g} {unit:6s} {notes.get(name, '')}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isdir(os.path.join(ROOT, "src", "parakern")):
        print(f"error: {os.path.join(ROOT, 'src', 'parakern')} not found; "
              "run from the root of a parakern checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import parakern
    if not os.path.abspath(parakern.__file__).startswith(ROOT + os.sep):
        print(f"error: imported parakern from {parakern.__file__}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    probe = SpeedProbe(WORKLOADS[args.workload].calibration)
    probe.arm()
    wl = WORKLOADS[args.workload](ROOT, OUT)
    wl.setup(args.seed)
    probe.disarm()
    took = time.perf_counter() - T_START - probe.spent
    rate = statistics.fmean([*probe.samples,
                             *(speed(probe.kind) for _ in range(3))])
    setups = [took * rate]
    if args.setup_only:
        print(json.dumps({"setup_s": setups[0]}))
        return 0

    env = environment()
    print(f"# parakern benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env}

    if args.trace:
        from tracer import Tracer
        tracer = Tracer(parakern)
        ops, _ = run_ops(wl, args.seconds, probe, tracer)
    else:
        setups += [child_setup_seconds(args)
                   for _ in range(SETUP_REPEATS - 1)]
        ops, elapsed = run_ops(wl, args.seconds, probe)
    failed, worst = check(wl, ops)
    correct = failed == 0

    if args.trace:
        metrics, notes = per_layer(tracer, wl, ops)
        first = next(rec for rec in ops if rec["traced"])
        mismatch = replay_counts(wl, tracer, first)
        if mismatch:
            print(f"# count replay mismatch: {mismatch}", file=sys.stderr)
            correct = False
        record["counts"] = {rec["i"]: rec["counts"]
                            for rec in ops if rec["traced"]}
        print("# per-op counts " + json.dumps(record["counts"])[:400])
        tracer.save(os.path.join(OUT, f"{args.workload}_spans.npz"))
        notes["trace.slowdown"] = f"{tracer.span_count} spans kept"
        title = "per-layer metrics, per traced op"
    else:
        metrics, notes = end_to_end(ops, elapsed, worst, failed, setups)
        title = f"end-to-end metrics, tolerance {wl.tol:g}"
    print_table(title, metrics, notes)

    record.update(correct=correct, attempted=len(ops), failed=failed,
                  durations=[rec["s"] for rec in ops],
                  wall=[rec["wall"] for rec in ops],
                  speed=[rec["speed"] for rec in ops],
                  samples=[rec["samples"] for rec in ops],
                  errors=[rec.get("err") for rec in ops],
                  metrics={k: v for k, (v, _) in metrics.items()})
    with open(os.path.join(OUT, f"{args.workload}_trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in PINNED.items()):
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  {**os.environ, **PINNED})
    sys.exit(main())
