"""Differential property tests of the component matrix and the product.

Random structure-constant algebras of dimension 1 to 5, with sparse
constants, with and without a unit at index 0, and with small or
40-bit rational values, are checked against plain-``Fraction``
references written here.  Each example builds a fresh algebra, so no
cached component matrix carries over from one example to the next.

The references are the definitions.  The product is
sum_{i,j} c_{ij}^k x^i y^j.  The coefficient of f^{ij} in coordinate
(k, m) of the component matrix is, for the two nesting orders,

    left,  x -> sum f^{ij} (e_i x) e_j:   sum_p c_{im}^p c_{pj}^k
    right, x -> sum f^{ij} e_i (x e_j):   sum_p c_{mj}^p c_{ip}^k

Elements, maps and tensors hold an integer form: int numerators over
one positive denominator, primitive, the zero vector over 1.  A value
built from Fractions and the same value built by int operations must
agree with a plain-``Fraction`` reference in ``==``, ``hash``, the
Fraction view and that form.

The runs use the derandomized profile of ``conftest.py``.
"""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, strategies as st

from freealg import (LinearMap, NotRepresentable, Tensor2, apply, b_matrix, complex_algebra,
                     compose, coords_from_standard, multiply, octonion_algebra,
                     quaternion_algebra, tensor_product, twisted_mul,
                     standard_from_coords)
from freealg.core import FreeAlgebra

SMALL = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
BIG = st.builds(Fraction, st.integers(-2**40, 2**40), st.integers(1, 2**40))
VALUES = st.one_of(SMALL, BIG)
NONZERO = st.builds(Fraction, st.integers(1, 2**40) | st.integers(-2**40, -1),
                    st.integers(1, 2**40))
H = quaternion_algebra()
BUILTINS = {"C": complex_algebra(), "H": H, "O": octonion_algebra(),
            "H(x)H": tensor_product([H, H])}


@st.composite
def algebras(draw, unital=None):
    """A fresh algebra; with a unit, e_0 is the unit and the other
    constants are drawn for products of e_1 .. e_{n-1}."""
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
    return FreeAlgebra(n, [f"e{i}" for i in range(n)], constants,
                       unit_index=0 if unital else None)


def grids(n):
    return st.lists(st.lists(VALUES, min_size=n, max_size=n), min_size=n, max_size=n)


def table(algebra):
    """c[i][j][k] as a dense grid of Fractions."""
    n = algebra.dim
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, v in algebra.constants:
        c[i][j][k] = v
    return c


def reference_b(algebra, order):
    n = algebra.dim
    c = table(algebra)
    out = [[Fraction(0)] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for m in range(n):
                    if order == "left":
                        value = sum(c[i][m][p] * c[p][j][k] for p in range(n))
                    else:
                        value = sum(c[m][j][p] * c[i][p][k] for p in range(n))
                    out[k * n + m][i * n + j] = value
    return out


@given(algebras(), st.sampled_from(["left", "right"]))
def test_b_matrix_matches_the_contraction(algebra, order):
    assert b_matrix(algebra, order).entries == reference_b(algebra, order)


@given(st.data())
def test_multiply_matches_the_constants(data):
    algebra = data.draw(algebras())
    n = algebra.dim
    x = data.draw(st.lists(VALUES, min_size=n, max_size=n))
    y = data.draw(st.lists(VALUES, min_size=n, max_size=n))
    c = table(algebra)
    expected = tuple(sum((c[i][j][k] * x[i] * y[j] for i in range(n) for j in range(n)),
                         Fraction(0))
                     for k in range(n))
    assert multiply(algebra.element(x), algebra.element(y)).coords == expected


@given(st.data(), st.sampled_from(["left", "right"]), st.booleans())
def test_standard_components_round_trip(data, order, image):
    algebra = data.draw(algebras(unital=True))
    n = algebra.dim
    grid = data.draw(grids(n))
    if image:
        # the map of the tensor ``grid`` by the reference contraction, so
        # that singular component matrices also reach the round trip
        t = [v for row in grid for v in row]
        flat = [sum(b * x for b, x in zip(row, t)) for row in reference_b(algebra, order)]
        grid = [flat[k * n:(k + 1) * n] for k in range(n)]
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
