"""Property tests of the CLI's input reader.

A complex entry drawn from the characters of the number grammar parses
or is refused with ``InvalidAlgebra``.  A valid system or algebra
document with one field replaced by an arbitrary JSON value exits 0, 2
or 3, and exit 2 comes with exactly one ``error:`` line.

Every fraction that ``solve``, ``map convert`` and ``basis`` print in
``--machine`` mode re-parses through ``literal`` to exactly the value
the library computes, on builtin and random algebras and on small and
40-bit entries.

The int literal reader ``_ratio`` reads what ``Fraction`` reads from the
stripped text, and refuses the rest with a pinned message; ``_form`` of a
list of literals is the canonical int form of their Fractions.  ``_form``
and ``parse_complex_entry`` read on ints; each is held to an earlier
reader that went through ``_ratio`` value by value and through
``Fraction`` and ``ComplexAdditiveMap``, kept here as its oracle: the
same form or map, or the same refusal.

The ``algebra`` field of a system names a builtin or the definition file
written here, never an arbitrary path.  The runs use the derandomized
profile of ``conftest.py``, so the suite is deterministic.
"""

import contextlib
import io
import json
import os
import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from freealg import (ComplexAdditiveMap, LinearMap, MapMatrix, NotRepresentable,
                     SingularSystem, complex_algebra, quaternion_algebra, representation_basis,
                     solve_additive, standard_from_coords)
from freealg import exact
from freealg.cli import (BUILTIN_NAMES, _LONG_INT, _form, _ratio, _shown, algebra_from_json,
                         algebra_to_json, main, make_builtin, parse_complex_entry)
from freealg.errors import InvalidAlgebra, UnsupportedAlgebra
from test_kernel_properties import VALUES, algebras, grids

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


def run_in(directory, argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def run_on(directory, command, doc):
    (directory / "doc.json").write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_in(directory, [command, "doc.json", "--machine"])
    return code, err


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


# --machine output re-parses exactly

def literal(value, what):
    """The rational ``_ratio`` reads."""
    return Fraction(*_ratio(value, what))


def printed(out):
    """The --machine lines as {key: values}, every value read back by literal."""
    return {key: [literal(token, key) for token in value.split()]
            for key, _, value in (line.partition("=") for line in out.splitlines())
            if key != "substitution"}


def as_strings(grid):
    return [[str(v) for v in row] for row in grid]


@st.composite
def definitions(draw, workdir, unital=None):
    """A builtin name, or a definition file of a random algebra; with the algebra."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(BUILTIN_NAMES))
        return name, make_builtin(name)
    algebra = draw(algebras(unital))
    (workdir / "alg.json").write_text(json.dumps(algebra_to_json(algebra)), encoding="utf-8")
    return "alg.json", algebra


@settings(max_examples=40)
@given(st.data())
def test_machine_solve_reparses_to_the_library_values(workdir, data):
    name = data.draw(st.sampled_from(BUILTIN_NAMES))
    algebra = make_builtin(name)
    n, size = algebra.dim, data.draw(st.integers(1, 2))
    cells = [[data.draw(grids(n)) for _ in range(size)] for _ in range(size)]
    rhs = [data.draw(st.lists(VALUES, min_size=n, max_size=n)) for _ in range(size)]
    doc = {"algebra": name, "matrix": [[as_strings(cell) for cell in line] for line in cells],
           "rhs": as_strings(rhs)}
    (workdir / "doc.json").write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_in(workdir, ["solve", "doc.json", "--machine"])
    m = MapMatrix([[LinearMap(algebra, algebra, cell) for cell in line] for line in cells])
    try:
        x = solve_additive(m, [algebra.element(v) for v in rhs])
    except SingularSystem:
        assert code == 3
        return
    assert code == 0
    assert printed(out) == {f"solution.{i}": list(xi.coords) for i, xi in enumerate(x)}


@settings(max_examples=40)
@given(st.data(), st.sampled_from(["left", "right"]))
def test_machine_map_convert_reparses_to_the_library_values(workdir, data, order):
    source, algebra = data.draw(definitions(workdir))
    grid = data.draw(grids(algebra.dim))
    (workdir / "coords.txt").write_text("\n".join(map(" ".join, as_strings(grid))),
                                        encoding="utf-8")
    code, out, _ = run_in(workdir, ["map", "convert", "--algebra", source, "--coords",
                                    "coords.txt", "--order", order, "--machine"])
    try:
        solution = standard_from_coords(LinearMap(algebra, algebra, grid), order)
    except NotRepresentable:
        assert code == 3
        return
    assert code == 0
    want = {"rank": [solution.rank], "nullity": [len(solution.nullspace)]}
    want.update((f"particular.{r}", list(row))
                for r, row in enumerate(solution.particular.components))
    want.update((f"nullspace.{i}.{r}", list(row)) for i, t in enumerate(solution.nullspace)
                for r, row in enumerate(t.components))
    assert printed(out) == want


@settings(max_examples=40)
@given(st.data(), st.sampled_from(["left", "right"]))
def test_machine_basis_reparses_to_the_library_values(workdir, data, order):
    source, algebra = data.draw(definitions(workdir, unital=True))
    code, out, _ = run_in(workdir, ["basis", source, "--order", order, "--machine"])
    assert code == 0
    generators = representation_basis(algebra, order)
    want = {"generators": [len(generators)]}
    want.update((f"generator.{i}.{r}", list(row)) for i, g in enumerate(generators)
                for r, row in enumerate(g.coords))
    assert printed(out) == want


# the int literal reader against Fraction(text.strip())

def oracle(value):
    """The rational a JSON integer or a literal's text stands for, by ``Fraction``."""
    return Fraction(value) if isinstance(value, int) else Fraction(value.strip())


SPACES = st.sampled_from(["", " ", "  ", "\t", "\n", " 　", "\x1c"])
DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=24)
WELL_FORMED = st.builds(lambda lead, sign, p, q, trail: f"{lead}{sign}{p}{q}{trail}",
                        SPACES, st.sampled_from(["", "+", "-"]), DIGITS,
                        st.just("") | DIGITS.map("/{}".format), SPACES)
JSON_INTS = st.integers() | st.integers(-3, 3)


@example(" 007/014 ")
@example("-2/4")
@example("+0")
@example("9" * 4300)
@example("1/" + "9" * 4300)
@given(WELL_FORMED | JSON_INTS)
def test_ratio_reads_what_fraction_reads(value):
    try:
        want = oracle(value)
    except ZeroDivisionError:
        with pytest.raises(InvalidAlgebra) as refused:
            _ratio(value, "x")
        assert str(refused.value) == f"x has a zero denominator: {value.strip()}"
        return
    p, q = _ratio(value, "x")
    assert type(p) is int and type(q) is int and q > 0
    assert Fraction(p, q) == want


@given(st.text(alphabet="0123456789 +-/.eE_\t٣１", max_size=10))
def test_ratio_accepts_nothing_fraction_refuses(text):
    # on text near the grammar, whatever _ratio accepts Fraction reads the same
    try:
        ratio = _ratio(text, "x")
    except InvalidAlgebra as refused:
        assert str(refused).startswith(("x must be a fraction string or an integer, got ",
                                        "x has a zero denominator: "))
        return
    assert Fraction(*ratio) == oracle(text)


@pytest.mark.parametrize("value, message", [
    (True, "x must be a fraction string or an integer, got true"),
    (False, "x must be a fraction string or an integer, got false"),
    (None, "x must be a fraction string or an integer, got null"),
    (0.5, "x must be a fraction string or an integer, got 0.5"),
    ("0.5", 'x must be a fraction string or an integer, got "0.5"'),
    ("1e5", 'x must be a fraction string or an integer, got "1e5"'),
    ("1 2", 'x must be a fraction string or an integer, got "1 2"'),
    ("1/ 2", 'x must be a fraction string or an integer, got "1/ 2"'),
    ("- 1", 'x must be a fraction string or an integer, got "- 1"'),
    ("٣", 'x must be a fraction string or an integer, got "\\u0663"'),
    ("1_000", 'x must be a fraction string or an integer, got "1_000"'),
    ("1/0", "x has a zero denominator: 1/0"),
    (" -3/00 ", "x has a zero denominator: -3/00"),
    ("1" * 4301, "x has too many digits"),
    ("1/" + "1" * 4301, "x has too many digits"),
    ("1" * 4301 + "/0", "x has too many digits"),
    (_LONG_INT, "x has too many digits"),
], ids=["true", "false", "null", "float", "decimal", "exponent", "inner_space",
        "space_after_slash", "space_after_sign", "arabic_indic_digit", "underscore",
        "zero_denominator", "zero_denominator_spaced", "digits_4301", "denominator_4301",
        "digits_before_zero_denominator", "long_json_int"])
def test_ratio_refusals_are_pinned(value, message):
    for values in ([value], ["1", value, "2"], ["1", 2, value, value, "x"]):
        with pytest.raises(InvalidAlgebra) as refused:
            _form(values, "x")
        assert str(refused.value) == message
    with pytest.raises(InvalidAlgebra) as refused:
        _ratio(value, "x")
    assert str(refused.value) == message


@given(st.lists(WELL_FORMED | JSON_INTS, max_size=8))
def test_form_is_the_canonical_form_of_the_oracle(values):
    try:
        fractions = [oracle(v) for v in values]
    except ZeroDivisionError:
        with pytest.raises(InvalidAlgebra, match="zero denominator"):
            _form(values, "x")
        return
    assert _form(values, "x") == exact.canonical(*exact.as_ints(fractions))


# the int readers against the readers they replaced

def form_oracle(values, what):
    """The int form of ``values`` read value by value with ``_ratio``."""
    ratios = [_ratio(v, what) for v in values]
    den = lcm(*(q for _, q in ratios))
    return exact.canonical([p * (den // q) for p, q in ratios], den)


def complex_entry_oracle(text, algebra):
    """A complex entry read through Fraction, two elements and a ComplexAdditiveMap."""
    if re.search(r"[0-9]\s+[0-9]|\s/|/\s", text):
        raise InvalidAlgebra(f"complex entry has a space inside a number, got {_shown(text)}")
    compact = text.replace(" ", "")
    if not compact:
        raise InvalidAlgebra("empty matrix entry")
    plain = conj_part = Fraction(0)
    for term in re.split(r"(?<=[^-+*/])(?=[+-])", compact):
        body = term.lstrip("+-")
        if len(term) - len(body) > 1:
            raise InvalidAlgebra(f"complex entry term has more than one sign, got {_shown(text)}")
        sign = -1 if term[0] == "-" else 1
        if body == "I":
            conj_part += sign
        elif body.endswith("*I"):
            conj_part += sign * literal(body[:-2], "complex entry term")
        else:
            plain += sign * literal(body, "complex entry term")
    return ComplexAdditiveMap(algebra.element([plain, 0]),
                              algebra.element([conj_part, 0])).to_linear_map()


def outcome(read, *args):
    """What ``read(*args)`` returns, or the class and message of what it raises."""
    try:
        return read(*args)
    except Exception as err:
        return type(err), str(err)


LONG = st.sampled_from(["9" * 4300, "-0" + "7" * 4299, "1/" + "3" * 4300, "5" * 4301,
                        "1/" + "4" * 4301])
BAD = (st.booleans() | st.floats() | st.none() | st.just(_LONG_INT)
       | st.lists(st.integers(-2, 2) | st.just("1"), max_size=2)
       | st.sampled_from(["", "1/0", "-3/00", "1e5", "0.5", "1 2", "- 1", "I", "٣"])
       | st.text(alphabet="0123456789 +-/.e", max_size=6))
FORM_VALUES = WELL_FORMED | JSON_INTS | LONG | BAD


@example(["1", "1/0", "x"])
@example(["x", "1/0", "1"])
@example(["5" * 4301, "1/0"])
@example([3, "2/4", _LONG_INT])
@example(["1", True, "2"])
@given(st.lists(FORM_VALUES, max_size=8) | st.lists(WELL_FORMED | JSON_INTS, max_size=16))
def test_form_reads_what_the_value_by_value_reader_reads(values):
    # the same form, or the same refusal: the first bad literal is named
    assert outcome(_form, values, "x") == outcome(form_oracle, values, "x")


def test_form_rereads_only_a_list_its_pass_refuses(monkeypatch):
    # a list of valid strings is read in one pass, without _ratio; a JSON
    # integer, a bad literal or a zero denominator sends the list to _ratio
    import freealg.cli as cli_mod
    reread = []
    monkeypatch.setattr(cli_mod, "_ratio", lambda value, what: reread.append(value) or
                        _ratio(value, what))
    assert _form(["1", " -2/4", "007 ", "+3/6"], "x") == ((2, -1, 14, 1), 2)
    assert reread == []
    for values in (["1", 2], ["1", "0.5"], ["1/0", "1"], ["1", "1" * 4301]):
        reread.clear()
        outcome(_form, values, "x")
        assert reread == values[:len(reread)] and reread


SIGNS = st.sampled_from(["", "+", "-", " + ", " - ", "--", "+-"])
NUMBERS = st.builds("{}{}".format, DIGITS, st.just("") | DIGITS.map("/{}".format))
TERMS = st.builds("{}{}".format, SIGNS, NUMBERS | NUMBERS.map("{}*I".format)
                  | st.sampled_from(["I", "*I", "1/0*I", "2*I*I"]))
ENTRIES = st.lists(TERMS, min_size=1, max_size=4).map("".join)
UNTAGGED_C = algebra_from_json(algebra_to_json(C))


@example("1/2 + 3/4*I", UNTAGGED_C)
@example("1/0 + I", UNTAGGED_C)
@example("", C)
@example("-0/5*I - 2/4", C)
@given(GRAMMAR_TEXT | ENTRIES, st.sampled_from([C, UNTAGGED_C]))
def test_complex_entry_reads_what_the_fraction_reader_reads(text, algebra):
    # the same map, or the same refusal; a non-complex algebra is refused
    # after the text is read
    assert outcome(parse_complex_entry, text, algebra) == outcome(complex_entry_oracle,
                                                                 text, algebra)


def test_a_complex_entry_over_another_dimension_is_unsupported():
    # the earlier reader built a two-coordinate element of the algebra and
    # so refused an algebra of another dimension by its coordinate count
    with pytest.raises(UnsupportedAlgebra, match="^defined over the built-in complex algebra$"):
        parse_complex_entry("1 + I", quaternion_algebra())
    with pytest.raises(InvalidAlgebra, match="zero denominator"):
        parse_complex_entry("1/0 + I", quaternion_algebra())
