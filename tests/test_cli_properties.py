"""Property tests of the CLI's input reader.

A complex entry drawn from the characters of the number grammar parses
or is refused with ``InvalidAlgebra``.  A valid system or algebra
document with one field replaced by an arbitrary JSON value exits 0, 2
or 3, and exit 2 comes with exactly one ``error:`` line.

The ``algebra`` field of a system names a builtin or the definition file
written here, never an arbitrary path.  The runs use the derandomized
profile of ``conftest.py``, so the suite is deterministic.
"""

import contextlib
import io
import json
import os

import pytest
from hypothesis import given, strategies as st

from freealg import complex_algebra, quaternion_algebra
from freealg.cli import BUILTIN_NAMES, algebra_to_json, main, parse_complex_entry
from freealg.errors import InvalidAlgebra
from freealg.linmap import LinearMap

C = complex_algebra()

GRAMMAR_TEXT = st.text(alphabet="0123456789 +-*/I.e", max_size=12)
# valid values often enough that some mutants still solve
LITERALS = st.sampled_from(["0", "1", "-1", "3/4", " -2 ", "1/0", "1e5", "0.5", "I", "2*I"])
JSON_VALUES = st.recursive(
    LITERALS | st.integers(-1, 4) | st.integers() | st.none() | st.booleans() | st.floats()
    | GRAMMAR_TEXT | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=12)

ALGEBRA_FILE = "algebra.json"
SYSTEMS = [
    {"algebra": "complex", "matrix": [["1", "2*I"], ["1/2 - I", "-3"]],
     "rhs": [["1", "0"], ["0", "1"]]},
    {"algebra": "quaternion",
     "matrix": [[[["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                  ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]]],
     "rhs": [["1", "0", "0", "0"]]},
]
ALGEBRAS = [algebra_to_json(complex_algebra()), algebra_to_json(quaternion_algebra())]


def paths(doc, prefix=()):
    """The path of every value inside ``doc``, ``doc`` itself excluded."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@st.composite
def mutants(draw, docs):
    doc = draw(st.sampled_from(docs))
    path = draw(st.sampled_from(sorted(paths(doc), key=str)))
    value = (draw(st.sampled_from(BUILTIN_NAMES + (ALGEBRA_FILE,))) if path == ("algebra",)
             else draw(JSON_VALUES))
    return replaced(doc, path, value)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("mutants")
    (directory / ALGEBRA_FILE).write_text(json.dumps(ALGEBRAS[1]), encoding="utf-8")
    return directory


def run_on(directory, command, doc):
    (directory / "doc.json").write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "doc.json", "--machine"])
    finally:
        os.chdir(cwd)
    return code, err.getvalue()


def assert_clean_exit(code, err):
    assert code in (0, 2, 3)
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err


@given(GRAMMAR_TEXT)
def test_complex_entry_parses_or_is_refused(text):
    try:
        result = parse_complex_entry(text, C)
    except InvalidAlgebra:
        return
    assert isinstance(result, LinearMap)


@given(doc=mutants(SYSTEMS))
def test_solve_on_a_mutated_system(workdir, doc):
    assert_clean_exit(*run_on(workdir, "solve", doc))


@given(doc=mutants(ALGEBRAS))
def test_basis_on_a_mutated_algebra(workdir, doc):
    assert_clean_exit(*run_on(workdir, "basis", doc))
