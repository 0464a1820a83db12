"""The compiled schema check against jsonschema, and integer reading.

``problemfile`` checks problem files with the packaged schema compiled
into plain Python; jsonschema, a test dependency only, is the referee:
on every problem file and on a seeded corpus of single mutations both
must accept or reject alike, and a reject must carry the error
``best_match`` picks.
"""

import copy
import glob
import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from parakern import problemfile
from parakern.cli import main
from parakern.errors import SchemaError

ROOT = os.path.join(os.path.dirname(__file__), "..")
PROBLEM_FILES = sorted(glob.glob(os.path.join(ROOT, "problems", "*.json")))
SCHEMA = problemfile._schema()
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)

# every JSON type, both booleans, an integer-valued and a fractional float,
# and the values on either side of the schema's minimums (0, 1 and 2)
PALETTE = [True, False, None, "x", "", [], [1.0], {}, {"kind": "poly"},
           -1, 0, 1, 2, 3, -1.0, 0.0, -0.0, 1.0, 1.5, 2.0, 1e-300, -1e-300]


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _reference(doc):
    """``None``, or the message of the error jsonschema's ``best_match``
    picks, in the loader's ``at {path}: {message}`` form."""
    error = jsonschema.exceptions.best_match(VALIDATOR.iter_errors(doc))
    if error is None:
        return None
    path = "/".join(str(p) for p in error.absolute_path) or "<root>"
    return f"at {path}: {error.message}"


def _compiled(doc):
    try:
        problemfile._check_schema(doc)
    except SchemaError as exc:
        return str(exc)
    return None


def _nodes(doc, path=()):
    """(path, value) of every node of ``doc``, the root first."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, (*path, key))


def _replaced(doc, path, value):
    out = copy.deepcopy(doc)
    if not path:
        return value
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


def _mutations(doc, rng):
    """Single mutations of ``doc``: each key dropped, an unknown key at
    each object, a seeded half of the palette at each node, an empty
    ``domain.lower`` and enum misses."""
    for path, node in _nodes(doc):
        if isinstance(node, dict):
            for key in node:
                dropped = copy.deepcopy(node)
                del dropped[key]
                yield _replaced(doc, path, dropped)
            yield _replaced(doc, path, {**node, "unknown": 1})
        for k in rng.choice(len(PALETTE), len(PALETTE) // 2, replace=False):
            yield _replaced(doc, path, copy.deepcopy(PALETTE[k]))
    yield _replaced(doc, ("domain", "lower"), [])
    for path in (("problem", "kind"), ("expansion", "mode")):
        yield _replaced(doc, path, "unknown")
    if doc.get("drift"):
        yield _replaced(doc, ("drift", 0, "kind"), "Poly")


@pytest.mark.parametrize("path", PROBLEM_FILES,
                         ids=[os.path.basename(p) for p in PROBLEM_FILES])
def test_compiled_check_agrees_with_jsonschema(path):
    rng = np.random.default_rng(2601)
    doc = _load(path)
    assert _reference(doc) is None and _compiled(doc) is None
    rejects = 0
    for n, mutant in enumerate(_mutations(doc, rng)):
        want = _reference(mutant)
        assert _compiled(mutant) == want, (n, mutant)
        rejects += want is not None
    # the corpus exercises the rejecting side, not only the accepting one
    assert rejects > 50


@pytest.mark.parametrize("doc, message", [
    ({"dimension": 1.0, "expansion": {"degree_D": 12.0}}, None),
    ({"dimension": True}, "at dimension: True is not of type 'integer'"),
    ({"dimension": 1.5}, "at dimension: 1.5 is not of type 'integer'"),
    ({"horizon": True}, "at horizon: True is not of type 'number'"),
    ({"horizon": 0}, "at horizon: 0 is less than or equal to the minimum "
                     "of 0"),
    ({"dimension": 0}, "at dimension: 0 is less than the minimum of 1"),
    ({"domain": {"lower": [], "upper": [1.0]}},
     "at domain/lower: [] should be non-empty"),
    ({"expansion": {"mode": "warp"}},
     "at expansion/mode: 'warp' is not one of ['plain', 'beta', 'tau']"),
    ({"quadrature": {"gh_order": 1, "gl_order": 1}},
     "at quadrature/gl_order: 1 is less than the minimum of 2"),
    ({"extra": 1, "more": 2}, "at <root>: Additional properties are not "
                              "allowed ('extra', 'more' were unexpected)"),
], ids=["integer-valued-floats", "true-integer", "fraction-integer",
        "true-number", "exclusive", "minimum", "min-items", "enum",
        "greatest-sibling", "additional"])
def test_compiled_check_messages(doc, message):
    base = _load(os.path.join(ROOT, "problems", "sin_drift.json"))
    for key, value in doc.items():
        base[key] = value if key not in base or not isinstance(value, dict) \
            else {**base[key], **value}
    assert _compiled(base) == message == _reference(base)


@pytest.mark.parametrize("where, keyword", [
    ((), ("pattern", "^x")),
    (("properties", "problem", "properties", "kind"), ("pattern", "^c")),
    (("properties", "horizon"), ("maximum", 10)),
    (("properties", "drift"), ("prefixItems", [])),
    (("properties", "domain"), ("anyOf", [{}])),
    (("properties", "expansion"), ("additionalProperties", True)),
    (("properties", "dimension"), ("type", "int")),
    (("properties", "problem", "properties", "kind"), ("enum", [1, 2])),
], ids=["pattern-root", "pattern-nested", "maximum", "prefixItems", "anyOf",
        "additionalProperties-true", "unknown-type", "non-string-enum"])
def test_compile_raises_on_a_keyword_it_does_not_implement(where, keyword):
    schema = copy.deepcopy(SCHEMA)
    node = schema
    for key in where:
        node = node[key]
    node[keyword[0]] = keyword[1]
    with pytest.raises(NotImplementedError):
        problemfile._compile(schema)


def test_cli_and_a_load_do_not_import_jsonschema():
    # its import took about 50 ms of every fresh process
    path = os.path.join(ROOT, "problems", "sin_drift.json")
    code = ("import sys, parakern.cli\n"
            "from parakern.problemfile import load_problem_file\n"
            f"load_problem_file({path!r})\n"
            "assert 'jsonschema' not in sys.modules, 'jsonschema imported'\n")
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


# ---------------------------------------------------------------------------
# integer fields written as integer-valued floats
# ---------------------------------------------------------------------------

INTEGER_FIELDS = {
    "dimension": ("dimension",),
    "components": ("components",),
    "drift-i": ("drift", 0, "i"),
    "drift-j": ("drift", 0, "j"),
    "drift-k": ("drift", 0, "k"),
    "potential-i": ("potential", 0, "i"),
    "order_K": ("expansion", "order_K"),
    "degree_D": ("expansion", "degree_D"),
    "gh_order": ("quadrature", "gh_order"),
    "gl_order": ("quadrature", "gl_order"),
    "steps": ("quadrature", "steps"),
    "exponent": ("problem", "f", "parts", 0, 1, "terms", 0, 1, 0),
    "time-order": ("problem", "f", "parts", 0, 0),
}


def _outputs(tmp_path, capsys, data):
    """Exit codes, written files and stdout of ``validate``, ``expand``,
    ``eval`` and ``solve`` on ``data``, with its directory's name taken
    out (the ``validate`` report names the file)."""
    tmp_path.mkdir()
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    rcs = [main([command, str(path), "--gh-order", "10", "--order", "3",
                 *extra, "--out", str(tmp_path / command)])
           for command, extra in (("validate", []), ("expand", []),
                                  ("eval", ["--t", "0.05,0.1"]),
                                  ("solve", []))]
    files = {name: (tmp_path / name).read_bytes()
             for name in sorted(os.listdir(tmp_path)) if name != path.name}
    stdout = capsys.readouterr().out
    here = str(tmp_path)
    return rcs, {name: data.replace(here.encode(), b"")
                 for name, data in files.items()}, stdout.replace(here, "")


@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_an_integer_valued_float_runs_as_its_integer_twin(tmp_path, capsys,
                                                          field):
    # dimension, components, degree_D and the drift and potential indices
    # each used to raise a TypeError or an IndexError (exit 1)
    where = INTEGER_FIELDS[field]
    doc = _load(os.path.join(ROOT, "problems", "sin_drift.json"))
    doc["potential"] = [{"i": 0, "kind": "poly", "terms": [[0.4, [0]]]}]
    doc["problem"]["f"] = {"kind": "time_poly", "parts": [
        [1, {"kind": "poly", "terms": [[0.1, [2]]]}]]}
    value = _get(doc, where)
    assert type(value) is int
    twin = _replaced(doc, where, float(value))
    rcs, files, stdout = _outputs(tmp_path / "int", capsys, doc)
    assert rcs == [0, 0, 0, 0] and len(files) == 5
    assert _outputs(tmp_path / "float", capsys, twin) == (rcs, files, stdout)


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# ---------------------------------------------------------------------------
# integer literals past the float range
# ---------------------------------------------------------------------------

# each number field read as a float, with the file and mode that read it
REAL_FIELDS = {
    "horizon": ("sin_drift.json", None, ("horizon",)),
    "bound_C": ("sin_drift.json", None, ("bound_C",)),
    "domain-lower": ("sin_drift.json", None, ("domain", "lower", 0)),
    "domain-upper": ("sin_drift.json", None, ("domain", "upper", 0)),
    "beta": ("sin_drift.json", "beta", ("expansion", "beta")),
    "c_target": ("sin_drift.json", "tau", ("expansion", "c_target")),
    "nu": ("burgers_selfsim.json", None, ("problem", "nu")),
}


@pytest.mark.parametrize("field", REAL_FIELDS)
def test_an_integer_past_the_float_range_names_its_field(tmp_path, capsys,
                                                         field):
    # each used to raise an uncaught OverflowError (exit 1)
    name, mode, where = REAL_FIELDS[field]
    doc = _load(os.path.join(ROOT, "problems", name))
    if mode is not None:
        doc["expansion"]["mode"] = mode
    doc = _replaced(doc, where, 10 ** 400)
    message = (f"at {'/'.join(map(str, where))}: "
               "int too large to convert to float")
    with pytest.raises(SchemaError) as info:
        problemfile.load_problem_dict(doc)
    assert str(info.value) == message
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as info:
        problemfile.load_problem_file(str(path))
    assert str(info.value) == message
    for command in ("validate", "expand", "eval", "solve"):
        rc = main([command, str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"problem-file error: {message}\n"
    assert os.listdir(tmp_path) == ["big.json"]
