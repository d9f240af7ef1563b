"""The Fractions of int forms: ``exact.as_fractions`` against ``Fraction``.

``as_fractions`` makes its Fractions without ``Fraction.__new__``, so each
value it returns must be the one ``Fraction(x, den)`` makes: equal, of
type Fraction, reduced, with the same hash, text and pickle.  Every view
the library reads off an int form goes through it, and each is checked
here against values built through ``Fraction`` from the definitions.
"""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from freealg import (LinearMap, Tensor2, b_matrix, exact, norm_sq, octonion_algebra,
                     quaternion_algebra)
from test_kernel_properties import VALUES, build, definitions
import oracle

BIG = 2 ** 200 + 187
CASES = [(1, 1), (-1, 1), (7, 1), (-7, 1), (1, 2), (6, 4), (-6, 4), (-12, 18), (3, 7),
         (BIG, 1), (-BIG, 3), (BIG * 6, 2 ** 199 * 9), (-(3 ** 130), 3 ** 127 * 2 ** 150),
         (2 ** 64, 2 ** 64), (BIG, BIG + 2)]


def assert_same(got, want):
    """got is the Fraction ``want`` is, as ``Fraction`` makes it."""
    want = Fraction(want)
    assert type(got) is Fraction and got == want
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert hash(got) == hash(want) and str(got) == str(want) and repr(got) == repr(want)


@pytest.mark.parametrize("x, den", CASES)
def test_the_builder_makes_the_fraction_fraction_makes(x, den):
    got, = exact.as_fractions([x], den)
    want = Fraction(x, den)
    assert_same(got, want)
    back = pickle.loads(pickle.dumps(got))
    assert_same(back, want)
    # and it behaves as one in arithmetic, as a dict key and in a set
    assert_same(got * got - got, want * want - want)
    assert {got: 1}[want] == 1 and len({got, want}) == 1


def test_zero_is_exact_zero():
    values = exact.as_fractions([0, 5, 0, -BIG, 0], 10)
    assert [v is exact.ZERO for v in values] == [True, False, True, False, True]
    assert_same(values[1], Fraction(1, 2))
    assert_same(values[3], Fraction(-BIG, 10))
    assert exact.as_fractions([], 3) == [] and exact.as_fractions((0,), 1)[0] is exact.ZERO


@given(st.lists(st.integers(-2 ** 200, 2 ** 200), max_size=8), st.integers(1, 2 ** 200))
def test_the_builder_matches_fraction_on_any_ints(ints, den):
    got = exact.as_fractions(ints, den)
    assert len(got) == len(ints)
    for v, x in zip(got, ints):
        assert_same(v, Fraction(x, den))


def test_the_exact_views_are_fractions_fraction_makes():
    a = [[Fraction(1, 2), Fraction(-2, 3)], [Fraction(5), Fraction(7, 4)]]
    b = [[Fraction(3, 5), Fraction(1, 6), 2], [Fraction(-1, 9), 0, Fraction(8, 3)]]
    for got, want in zip(exact.mat_mul(a, b),
                         [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]):
        for g, w in zip(got, want):
            assert_same(g, w)
    for got, want in zip(exact.mat_mul([[Fraction(1, 2)], [3]], [[Fraction(2, 3), 5]]),
                         [[Fraction(1, 3), Fraction(5, 2)], [2, 15]]):  # b of one row
        for g, w in zip(got, want):
            assert_same(g, w)
    inverse = exact.invert(a)
    for got, want in zip(exact.mat_mul(a, inverse), [[1, 0], [0, 1]]):
        for g, w in zip(got, want):
            assert_same(g, w)
    particular, basis = exact.solve([[Fraction(2, 3), 4, 0]], [Fraction(5, 7)])
    for g, w in zip([*particular, *basis[0], *basis[1]],
                    [Fraction(15, 14), 0, 0, -6, 1, 0, 0, 0, 1]):
        assert_same(g, w)


def test_norm_sq_is_the_fraction_of_its_sum_of_squares():
    x = octonion_algebra().element([Fraction(i - 3, i + 1) for i in range(8)])
    assert_same(norm_sq(x), sum(Fraction(i - 3, i + 1) ** 2 for i in range(8)))


@given(definitions(), st.data())
def test_every_view_equals_fractions_built_from_the_definition(definition, data):
    n, constants, _ = definition
    algebra = build(definition)
    expected = sorted((i, j, k, Fraction(v)) for i, j, k, v in constants if v)
    assert len(algebra.constants) == len(expected)
    for got, want in zip(algebra.constants, expected):
        assert got[:3] == want[:3]
        assert_same(got[3], want[3])
    # the coordinates of elements, maps and tensors made by int operations
    xs, ys = ([data.draw(VALUES) for _ in range(n)] for _ in range(2))
    q = data.draw(VALUES)
    x, y = algebra.element(xs), algebra.element(ys)
    for got, a, b in zip((x.scaled(q) - y).coords, xs, ys):
        assert_same(got, q * a - b)
    f = LinearMap(algebra, algebra, [xs] * n)
    for got_row in (f + f).coords:
        for got, a in zip(got_row, xs):
            assert_same(got, 2 * a)
    for got_row, a in zip(Tensor2.pure(x, y).components, xs):
        for got, b in zip(got_row, ys):
            assert_same(got, a * b)
    # B's relations against the definition, B^-1's by B^-1 B = I
    t = oracle.table(constants, n)
    for order in ("left", "right"):
        b = oracle.component_matrix(t, order)
        bm = b_matrix(algebra, order)
        relations = bm.relations()
        assert sorted(relations) == [divmod(r, n) for r in range(n * n)]
        for r in range(n * n):
            want = {divmod(col, n): v for col, v in enumerate(b[r]) if v}
            assert relations[divmod(r, n)] == want
            for key, got in relations[divmod(r, n)].items():
                assert_same(got, want[key])
        try:
            assert_inverse(bm.inverse_relations(), relations)
        except ValueError:
            pass


def assert_inverse(inverse, relations):
    """``inverse`` holds Fractions as ``Fraction`` makes them and, read as
    rows like ``relations``, is the inverse of that matrix."""
    for r, row in inverse.items():
        for v in row.values():
            assert_same(v, Fraction(v.numerator, v.denominator))
        for s in relations:
            entry = sum((v * relations[t].get(s, 0) for t, v in row.items()), Fraction(0))
            assert entry == (r == s)


@pytest.mark.parametrize("make", [quaternion_algebra, octonion_algebra], ids=["H", "O"])
@pytest.mark.parametrize("order", ["left", "right"])
def test_the_inverse_relations_of_the_builtins(make, order):
    bm = b_matrix(make(), order)
    assert_inverse(bm.inverse_relations(), bm.relations())
