"""Differential property tests of the component matrix and the product.

Random structure-constant algebras of dimension 1 to 5, with sparse
constants, with and without a unit at index 0, and with small or
40-bit rational values, are checked against the plain-``Fraction``
definitions in ``oracle.py``: the product, the sandwiches x -> (e_i x) e_j
and x -> e_i (x e_j), whose coordinate matrices are the columns of the
component matrix, and the twisted product.  Orbit membership must find a
tensor for each map S f, S the sandwich of a tensor, and a tensor inverse
is checked by the oracle's solve with the matrix of u -> t o u.  Each
example builds a fresh algebra, so no cached component matrix carries
over from one example to the next.  The other test modules share the
strategies here.

Elements, maps and tensors hold an integer form: int numerators over
one positive denominator, primitive, the zero vector over 1.  A value
built from Fractions and the same value built by int operations must
agree with a plain-``Fraction`` reference in ``==``, ``hash``, the
Fraction view and that form.

The runs use the derandomized profile of ``conftest.py``.
"""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings, strategies as st

from freealg import (LinearMap, NotRepresentable, SingularTensor, Tensor2, apply, b_matrix,
                     complex_algebra, compose, coords_from_standard, multiply, octonion_algebra,
                     orbit_contains, quaternion_algebra, tensor_inverse, tensor_product,
                     twisted_mul, standard_from_coords)
from freealg.core import FreeAlgebra
import oracle

SMALL = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
BIG = st.builds(Fraction, st.integers(-2**40, 2**40), st.integers(1, 2**40))
VALUES = st.one_of(SMALL, BIG)
ZERO = Fraction(0)
NONZERO = st.builds(Fraction, st.integers(1, 2**40) | st.integers(-2**40, -1),
                    st.integers(1, 2**40))
H = quaternion_algebra()
BUILTINS = {"C": complex_algebra(), "H": H, "O": octonion_algebra(),
            "H(x)H": tensor_product([H, H])}


@st.composite
def definitions(draw, unital=None):
    """(dim, constants, unit index) of an algebra; with a unit, e_0 is the
    unit and the other constants are drawn for products of e_1 .. e_{n-1}."""
    n = draw(st.integers(1, 5))
    if unital is None:
        unital = draw(st.booleans())
    first = 1 if unital else 0
    cells = [(i, j, k) for i in range(first, n) for j in range(first, n) for k in range(n)]
    chosen = draw(st.lists(st.sampled_from(cells), unique=True, max_size=2 * n)) if cells else []
    constants = [(i, j, k, draw(VALUES)) for i, j, k in chosen]
    if unital:
        constants += [(0, j, j, 1) for j in range(n)]
        constants += [(j, 0, j, 1) for j in range(1, n)]
    return n, constants, 0 if unital else None


def build(definition):
    n, constants, unit = definition
    return FreeAlgebra(n, [f"e{i}" for i in range(n)], constants, unit_index=unit)


def algebras(unital=None):
    """A fresh algebra, built from ``definitions``."""
    return definitions(unital).map(build)


def grids(n):
    return st.lists(st.lists(VALUES, min_size=n, max_size=n), min_size=n, max_size=n)


def sparse_grids(n):
    """n x n grids with SMALL values in at most n cells and 0 elsewhere."""
    cells = st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), SMALL,
                            max_size=n)
    return cells.map(lambda d: [[d.get((r, k), ZERO) for k in range(n)] for r in range(n)])


def table(algebra):
    return oracle.table(algebra.constants, algebra.dim)


@given(algebras(), st.sampled_from(["left", "right"]))
def test_b_matrix_matches_the_contraction(algebra, order):
    assert b_matrix(algebra, order).entries == oracle.component_matrix(table(algebra), order)


@given(st.data())
def test_multiply_matches_the_constants(data):
    algebra = data.draw(algebras())
    n = algebra.dim
    x = data.draw(st.lists(VALUES, min_size=n, max_size=n))
    y = data.draw(st.lists(VALUES, min_size=n, max_size=n))
    expected = tuple(oracle.mul(table(algebra), x, y))
    assert multiply(algebra.element(x), algebra.element(y)).coords == expected


def matrices(rows, cols):
    return st.lists(st.lists(VALUES, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@given(st.data())
def test_apply_matches_a_fraction_mat_vec(data):
    # f: A -> B and g: B -> A between algebras of independent dimensions
    A, B = data.draw(algebras()), data.draw(algebras())
    f, g = data.draw(matrices(B.dim, A.dim)), data.draw(matrices(A.dim, B.dim))
    x = data.draw(st.lists(VALUES, min_size=A.dim, max_size=A.dim))
    expected = tuple(sum((v * w for v, w in zip(row, x)), ZERO) for row in f)
    f, g, x = LinearMap(A, B, f), LinearMap(B, A, g), A.element(x)
    y = apply(f, x)
    assert y.algebra is B and y.coords == expected
    assert y.ints == reference_int_form(expected)
    assert apply(compose(g, f), x) == apply(g, y)


@given(st.data(), st.sampled_from(["left", "right"]), st.booleans())
def test_standard_components_round_trip(data, order, image):
    algebra = data.draw(algebras(unital=True))
    n = algebra.dim
    grid = data.draw(grids(n))
    if image:
        # the map of the tensor ``grid`` by the oracle's sandwich, so
        # that singular component matrices also reach the round trip
        grid = oracle.sandwich(table(algebra), grid, order)
    g = LinearMap(algebra, algebra, grid)
    try:
        solution = standard_from_coords(g, order)
    except NotRepresentable:
        return
    identity = LinearMap.identity(algebra)
    assert coords_from_standard(solution.particular, identity, order) == g
    zero = LinearMap.zero(algebra)
    for t in solution.nullspace:
        assert coords_from_standard(t, identity, order) == zero


def action(algebra, t, f, order):
    """The grid of t acting on the map f: S f, S the sandwich of t."""
    return oracle.matmul(oracle.sandwich(table(algebra), t, order), f)


@settings(max_examples=40)
@given(st.data(), st.sampled_from(["C", "H", "O", "random"]))
def test_orbit_membership_finds_a_tensor_for_each_image(data, name):
    # g = t acting on f lies in f's orbit, so orbit_contains must give a
    # tensor, not necessarily t, whose action on f is g.  O's 64 x 64
    # solves take sparse grids of small values: 40-bit ones take minutes.
    algebra = data.draw(algebras()) if name == "random" else BUILTINS[name]
    n = algebra.dim
    t, f = (data.draw(sparse_grids(n) if name == "O" else grids(n)) for _ in range(2))
    for order in ("left", "right"):
        g = action(algebra, t, f, order)
        found = orbit_contains(LinearMap(algebra, algebra, g), LinearMap(algebra, algebra, f),
                               order)
        assert found is not None
        assert action(algebra, found.components, f, order) == g


@settings(max_examples=40)
@given(st.data(), st.sampled_from(["C", "H", "O", "random"]))
def test_tensor_inverse_is_two_sided_or_refused(data, name):
    # with the left action of t of full rank, t o u = unit has one solution u:
    # tensor_inverse returns it when u o t = unit too, and is refused as
    # one-sided otherwise.  Short of full rank, t o u = unit may still be
    # solvable in an algebra that is not associative; a refusal is one-sided
    # exactly when it is, and an answer is still two-sided.  Sparse tensors
    # reach those cases, and keep the reference solve of O's 64 x 64 short.
    algebra = data.draw(algebras(unital=True)) if name == "random" else BUILTINS[name]
    n, c, e = algebra.dim, table(algebra), algebra.unit_index
    t = data.draw(sparse_grids(n) if name == "O" else grids(n) | sparse_grids(n))
    unit = [[Fraction(int(r == k == e)) for k in range(n)] for r in range(n)]
    solved = oracle.solve(oracle.left_action(c, t), oracle.flat(unit))
    u = solved and [solved[1][r * n:r * n + n] for r in range(n)]
    try:
        inverse = [list(row) for row in tensor_inverse(Tensor2(algebra, t)).components]
    except SingularTensor as err:
        assert err.one_sided == bool(u)
        assert not u or oracle.twisted(c, u, t) != unit
        return
    assert oracle.twisted(c, t, inverse) == oracle.twisted(c, inverse, t) == unit
    if solved[0] == n * n:
        assert inverse == u


def reference_int_form(values):
    """The Fractions as numerators over the lcm of their denominators."""
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def assert_agree(via_ints, via_fractions, view, flat, ids):
    """Both values equal, hash alike and read as ``view``, and hold the
    canonical form of ``flat``, the view read row by row."""
    for value in (via_ints, via_fractions):
        nums, den = value.ints
        assert value.ints == reference_int_form(flat)
        assert den > 0 and gcd(den, *nums) == 1
        assert value.is_zero() == (not any(flat))
    assert via_ints == via_fractions
    assert hash(via_ints) == hash(via_fractions) == hash((*ids, view))
    for value in (via_ints, via_fractions):
        assert (value.components if isinstance(value, Tensor2) else value.coords) == view


@given(st.data(), st.sampled_from([*BUILTINS, "random"]))
def test_elements_hold_the_canonical_int_form(data, name):
    A = data.draw(algebras()) if name == "random" else BUILTINS[name]
    x, y = (data.draw(st.lists(VALUES, min_size=A.dim, max_size=A.dim)) for _ in range(2))
    q = data.draw(NONZERO)
    view = tuple(x)
    x, y = A.element(x), A.element(y)
    for via_ints in ((x + y) - y, x.scaled(q).scaled(1 / q), -(-x),
                     apply(LinearMap.identity(A), x)):
        assert_agree(via_ints, x, view, view, (id(A),))
        assert hash(via_ints) == hash((id(A), via_ints.coords))
    zero = (Fraction(0),) * A.dim
    assert_agree(y - y, A.element(zero), zero, zero, (id(A),))
    assert (y - y).ints == ((0,) * A.dim, 1)


@given(st.data(), st.sampled_from(["C", "H", "O", "random"]))
def test_maps_hold_the_canonical_int_form(data, name):
    A = data.draw(algebras()) if name == "random" else BUILTINS[name]
    f, g = (data.draw(grids(A.dim)) for _ in range(2))
    q = data.draw(NONZERO)
    view = tuple(tuple(row) for row in f)
    f, g = LinearMap(A, A, f), LinearMap(A, A, g)
    identity = LinearMap.identity(A)
    for via_ints in ((f + g) - g, f.scaled(q).scaled(1 / q), -(-f), compose(f, identity),
                     compose(identity, f)):
        assert_agree(via_ints, f, view, [v for row in view for v in row], (id(A), id(A)))


@given(st.data())
def test_tensors_hold_the_canonical_int_form(data):
    s, t = (data.draw(grids(H.dim)) for _ in range(2))
    q = data.draw(NONZERO)
    view = tuple(tuple(row) for row in s)
    s, t = Tensor2(H, s), Tensor2(H, t)
    unit = Tensor2.unit(H)
    for via_ints in ((s + t) - t, s.scaled(q).scaled(1 / q), -(-s), twisted_mul(s, unit),
                     twisted_mul(unit, s)):
        assert_agree(via_ints, s, view, [v for row in view for v in row], (id(H),))
