"""Problem-file ingestion: schema check and object construction.

The packaged schema is compiled once into plain Python checks that keep
jsonschema's meaning of every keyword the schema uses (``true`` is not a
number, ``1.0`` is an integer) and report the error ``best_match`` would
choose; a keyword the compiler does not implement raises at compile time.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
from importlib import resources

from .errors import ParakernError, SchemaError
from .errors import ParameterError as ParakernValueError
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


# ---------------------------------------------------------------------------
# the schema, compiled
# ---------------------------------------------------------------------------

# A compiled node is a check ``(instance, path, errors)`` that appends a
# ``(path, message)`` pair per violation, with jsonschema's message, in
# the order its ``iter_errors`` yields them: the node's keywords in schema
# order.  ``path`` is the tuple of keys and indices from the root.

def _is_number(x) -> bool:
    # the exact-type test spares JSON's numbers the slower ABC check
    return type(x) in (float, int) \
        or (isinstance(x, numbers.Number) and not isinstance(x, bool))


def _is_integer(x) -> bool:
    # as jsonschema's draft 4 and later: an int, or a float of integer value
    return (isinstance(x, int) and not isinstance(x, bool)) \
        or (isinstance(x, float) and x.is_integer())


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "null": lambda x: x is None,
    "number": _is_number,
    "integer": _is_integer,
}


def _kw_type(types, schema):
    names = [types] if isinstance(types, str) else list(types)
    if not set(names) <= _TYPES.keys():
        raise NotImplementedError(f"type: {types!r} is not compiled")
    tests = [_TYPES[name] for name in names]
    reprs = ", ".join(repr(name) for name in names)

    def check(x, path, errors):
        for test in tests:
            if test(x):
                return
        errors.append((path, f"{x!r} is not of type {reprs}"))
    return check


def _kw_enum(values, schema):
    # jsonschema's equality makes a string equal only to an equal string
    if not all(isinstance(v, str) for v in values):
        raise NotImplementedError("enum: only string values are compiled")
    allowed = frozenset(values)

    def check(x, path, errors):
        if not (isinstance(x, str) and x in allowed):
            errors.append((path, f"{x!r} is not one of {values!r}"))
    return check


def _kw_minimum(bound, schema):
    def check(x, path, errors):
        if _is_number(x) and x < bound:
            errors.append((path, f"{x!r} is less than the minimum of "
                                 f"{bound!r}"))
    return check


def _kw_exclusive_minimum(bound, schema):
    def check(x, path, errors):
        if _is_number(x) and x <= bound:
            errors.append((path, f"{x!r} is less than or equal to the "
                                 f"minimum of {bound!r}"))
    return check


def _kw_min_items(count, schema):
    message = "should be non-empty" if count == 1 else "is too short"

    def check(x, path, errors):
        if isinstance(x, list) and len(x) < count:
            errors.append((path, f"{x!r} {message}"))
    return check


def _kw_required(names, schema):
    def check(x, path, errors):
        if isinstance(x, dict):
            for name in names:
                if name not in x:
                    errors.append((path, f"{name!r} is a required property"))
    return check


def _kw_additional_properties(allowed, schema):
    if allowed is not False:
        raise NotImplementedError(
            "additionalProperties: only false is compiled")
    known = frozenset(schema.get("properties", {}))

    def check(x, path, errors):
        if isinstance(x, dict) and not x.keys() <= known:
            extras = sorted((k for k in x if k not in known), key=str)
            verb = "was" if len(extras) == 1 else "were"
            errors.append((path, "Additional properties are not allowed "
                                 f"({', '.join(map(repr, extras))} {verb} "
                                 "unexpected)"))
    return check


def _kw_properties(props, schema):
    nodes = [(name, _compile(sub)) for name, sub in props.items()]

    def check(x, path, errors):
        if isinstance(x, dict):
            for name, node in nodes:
                if name in x:
                    node(x[name], (*path, name), errors)
    return check


def _kw_items(sub, schema):
    if not isinstance(sub, dict):
        raise NotImplementedError("items: only a schema object is compiled")
    node = _compile(sub)

    def check(x, path, errors):
        if isinstance(x, list):
            for index, item in enumerate(x):
                node(item, (*path, index), errors)
    return check


_KEYWORDS = {
    "type": _kw_type,
    "enum": _kw_enum,
    "minimum": _kw_minimum,
    "exclusiveMinimum": _kw_exclusive_minimum,
    "minItems": _kw_min_items,
    "required": _kw_required,
    "additionalProperties": _kw_additional_properties,
    "properties": _kw_properties,
    "items": _kw_items,
}
# keywords that constrain nothing
_ANNOTATIONS = frozenset({"$schema", "title", "description", "$comment"})


def _compile(schema: dict):
    """The check of one schema node; a keyword that is neither compiled
    nor an annotation raises :class:`NotImplementedError`."""
    checks = []
    for key, value in schema.items():
        if key in _ANNOTATIONS:
            continue
        if key not in _KEYWORDS:
            raise NotImplementedError(
                f"schema keyword {key!r} is not compiled")
        checks.append(_KEYWORDS[key](value, schema))
    if len(checks) == 1:
        return checks[0]

    def node(x, path, errors):
        for check in checks:
            check(x, path, errors)
    return node


@functools.lru_cache(maxsize=None)
def _checker():
    """The packaged schema, compiled once per process."""
    return _compile(_schema())


def _check_schema(data) -> None:
    """Raise :class:`SchemaError` ``at {path}: {message}`` for the error
    jsonschema's ``best_match`` picks: the shallowest path, the greatest
    among siblings, the first found among equals.  (Its other criteria
    cannot split errors here: without combinators one schema node checks
    each instance path.)"""
    errors = []
    _checker()(data, (), errors)
    if errors:
        path, message = max(errors, key=lambda e: (-len(e[0]), e[0]))
        where = "/".join(str(p) for p in path) or "<root>"
        raise SchemaError(f"at {where}: {message}")


def _reject_nonfinite(value: str):
    raise SchemaError(f"non-finite number {value!r} in problem file")


def _finite_float(text: str) -> float:
    """A JSON float literal; one past the float range (``1e400``) would
    read as inf."""
    value = float(text)
    if not math.isfinite(value):
        _reject_nonfinite(text)
    return value


def _real(value, where: str) -> float:
    """``float(value)``; an integer literal past the float range (``1``
    followed by 400 zeros) is a :class:`SchemaError` naming ``where``."""
    try:
        return float(value)
    except OverflowError as exc:
        raise SchemaError(f"at {where}: {exc}") from exc


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


def _spec(data, dim: int, where: str):
    """``spec_from_dict`` of the spec at ``where``; a malformed spec (a
    short term, a string number, an unknown kind) is a :class:`SchemaError`
    naming it."""
    try:
        return spec_from_dict(data, dim)
    except KeyError as exc:
        raise SchemaError(f"at {where}: missing key {exc}") from exc
    except (IndexError, OverflowError, TypeError, ValueError) as exc:
        raise SchemaError(f"at {where}: {exc}") from exc


def load_problem_dict(data: dict) -> ProblemFile:
    _check_schema(data)

    # the schema's integers may be integer-valued floats: read them as int
    dim = int(data["dimension"])
    components = int(data["components"])
    lo, hi = (tuple(_real(v, f"domain/{side}/{i}")
                    for i, v in enumerate(data["domain"][side]))
              for side in ("lower", "upper"))
    if len(lo) != dim or len(hi) != dim:
        raise SchemaError("at domain: bounds must have length 'dimension'")
    if any(b <= a for a, b in zip(lo, hi)):
        raise SchemaError(f"at domain: upper {list(hi)} must exceed lower "
                          f"{list(lo)} in every coordinate")

    drift, potential = {}, {}
    for where, table in (("drift", drift), ("potential", potential)):
        for n, rec in enumerate(data.get(where, [])):
            key = (int(rec["i"]), int(rec["j"]), int(rec["k"])) \
                if where == "drift" else int(rec["i"])
            if key in table:
                raise SchemaError(f"at {where}: duplicate index {key}")
            table[key] = _spec(rec, dim, f"{where}/{n}")

    radius = math.sqrt(sum(max(a * a, b * b) for a, b in zip(lo, hi)))

    try:
        pc = ProblemCoefficients(
            dim, components, drift, potential,
            bound_C=_real(data.get("bound_C", _default_bound_c(
                [*drift.values(), *potential.values()])), "bound_C"),
            domain_radius_R=radius)
    except ParakernValueError as exc:
        raise SchemaError(f"at drift/potential: {exc}") from exc

    prob = data["problem"]
    specs = {name: _spec(prob.get(name), dim, f"problem/{name}")
             for name in ("phi", "f", "alpha", "psi", "phi0")}
    horizon = _real(data["horizon"], "horizon")
    nu = 0.0 if prob.get("nu") is None else _real(prob["nu"], "problem/nu")
    try:
        ps = ProblemSpec(
            kind=prob["kind"], domain_lo=lo, domain_hi=hi, horizon=horizon,
            coefficients=pc, phi=specs["phi"], source=specs["f"],
            alpha=specs["alpha"], psi=specs["psi"], phi0=specs["phi0"],
            nu=nu)
    except ParakernError as exc:
        raise SchemaError(f"at problem: {exc}") from exc

    expn = data.get("expansion", {})
    beta, c_target = (None if expn.get(name) is None
                      else _real(expn[name], f"expansion/{name}")
                      for name in ("beta", "c_target"))
    try:
        warp = resolve_warp(pc, ps.horizon, expn.get("mode", "plain"),
                            beta, c_target)
    except ParakernValueError as exc:
        raise SchemaError(f"at expansion: {exc}") from exc

    quad_data = data.get("quadrature", {})
    quad = QuadratureConfig(
        gh_order=int(quad_data.get("gh_order", 40)),
        gl_order=int(quad_data.get("gl_order", 32)),
        steps=int(quad_data.get("steps", 64)))

    degree = expn.get("degree_D")
    return ProblemFile(pc, ps, int(expn.get("order_K", 6)),
                       None if degree is None else int(degree), warp, quad)


def load_problem_file(path: str) -> ProblemFile:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, parse_constant=_reject_nonfinite,
                             parse_float=_finite_float)
    except FileNotFoundError as exc:
        raise SchemaError(f"problem file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    except OSError as exc:
        raise SchemaError(f"cannot read problem file {path}: "
                          f"{exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"cannot decode problem file {path}: {exc}") \
            from exc
    if not isinstance(data, dict):
        raise SchemaError("problem file must hold a JSON object")
    return load_problem_dict(data)
