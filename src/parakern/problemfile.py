"""Problem-file ingestion: JSON schema validation and object construction."""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from importlib import resources

import jsonschema

from .errors import ParameterError as ParakernValueError
from .errors import SchemaError
from .funcspec import FourierEntry, TimeEntry, spec_from_dict
from .recursion import ProblemCoefficients, WarpParams, resolve_warp
from .solvers import ProblemSpec, QuadratureConfig


@dataclass(frozen=True)
class ProblemFile:
    """Everything a CLI command needs, parsed and validated."""

    pc: ProblemCoefficients
    ps: ProblemSpec
    order_K: int
    degree_D: int | None
    warp: WarpParams
    quad: QuadratureConfig


def _schema() -> dict:
    text = resources.files("parakern").joinpath(
        "schemas/problem.schema.json").read_text()
    return json.loads(text)


@functools.lru_cache(maxsize=None)
def _validator():
    """Validator for the packaged schema, checked against its metaschema once."""
    schema = _schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _reject_nonfinite(value: str):
    raise SchemaError(f"non-finite number {value!r} in problem file")


def _default_bound_c(entries) -> float:
    """Smallest admissible generic constant the entries advertise.

    Fourier entries demand C >= max(1, |k|) (their derivatives never
    decay); polynomial entries are only domain-bounded, so 1 is kept as
    the floor and users override bound_C when they know better.
    """
    c = 1.0
    for e in entries:
        parts = e.parts if isinstance(e, TimeEntry) else ((0, e),)
        for _, part in parts:
            if isinstance(part, FourierEntry):
                _, rate = part.bound_constants()
                c = max(c, rate)
    return c


def load_problem_dict(data: dict) -> ProblemFile:
    error = jsonschema.exceptions.best_match(_validator().iter_errors(data))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise SchemaError(f"at {path}: {error.message}") from error

    dim = data["dimension"]
    components = data["components"]
    if len(data["domain"]["lower"]) != dim or len(data["domain"]["upper"]) != dim:
        raise SchemaError("at domain: bounds must have length 'dimension'")

    drift, potential = {}, {}
    for where, table in (("drift", drift), ("potential", potential)):
        for rec in data.get(where, []):
            key = (rec["i"], rec["j"], rec["k"]) if where == "drift" \
                else rec["i"]
            if key in table:
                raise SchemaError(f"at {where}: duplicate index {key}")
            table[key] = spec_from_dict(rec, dim)

    lo = tuple(float(v) for v in data["domain"]["lower"])
    hi = tuple(float(v) for v in data["domain"]["upper"])
    radius = math.sqrt(sum(max(a * a, b * b) for a, b in zip(lo, hi)))

    try:
        pc = ProblemCoefficients(
            dim, components, drift, potential,
            bound_C=float(data.get("bound_C", _default_bound_c(
                [*drift.values(), *potential.values()]))),
            domain_radius_R=radius)
    except ParakernValueError as exc:
        raise SchemaError(f"at drift/potential: {exc}") from exc

    prob = data["problem"]
    ps = ProblemSpec(
        kind=prob["kind"],
        domain_lo=lo,
        domain_hi=hi,
        horizon=float(data["horizon"]),
        coefficients=pc,
        phi=spec_from_dict(prob.get("phi"), dim),
        source=spec_from_dict(prob.get("f"), dim),
        alpha=spec_from_dict(prob.get("alpha"), dim),
        psi=spec_from_dict(prob.get("psi"), dim),
        nu=float(prob.get("nu", 0.0)) if prob.get("nu") is not None else 0.0,
        phi0=spec_from_dict(prob.get("phi0"), dim))

    expn = data.get("expansion", {})
    try:
        warp = resolve_warp(pc, ps.horizon, expn.get("mode", "plain"),
                            expn.get("beta"), expn.get("c_target"))
    except ParakernValueError as exc:
        raise SchemaError(f"at expansion: {exc}") from exc

    quad_data = data.get("quadrature", {})
    quad = QuadratureConfig(
        gh_order=int(quad_data.get("gh_order", 40)),
        gl_order=int(quad_data.get("gl_order", 32)),
        steps=int(quad_data.get("steps", 64)))

    return ProblemFile(pc, ps, int(expn.get("order_K", 6)),
                       expn.get("degree_D"), warp, quad)


def load_problem_file(path: str) -> ProblemFile:
    try:
        with open(path) as fh:
            data = json.load(fh, parse_constant=_reject_nonfinite)
    except FileNotFoundError as exc:
        raise SchemaError(f"problem file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError("problem file must hold a JSON object")
    return load_problem_dict(data)
