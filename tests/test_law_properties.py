"""Algebraic laws that hold in every algebra, as property tests.

- The four-term Teichmueller identity
      a (b, c, d) + (a, b, c) d = (ab, c, d) - (a, bc, d) + (a, b, cd).
- The shift laws, in the form ``verify shifts`` checks them:
      l(a) l(b) + (a, b, .) - l(ab) = 0,   r(a) r(b) - r(ba) - (., b, a) = 0.
- A ``solve_additive`` round trip: the right side is computed here from
  the entries' coordinates, and the solver must give back x, or raise
  SingularSystem exactly when the system's rank, found by the plain
  Fraction elimination of ``oracle.py``, is short.  A second, arbitrary
  right side must be solved too, or refused on a singular system; each
  refusal's witness w is nonzero with M w = 0 by the flattening,
  multiplied here.

Each runs on the octonions and on random algebras of dimension 1 to 5
drawn with the strategy of ``test_kernel_properties.py``; the solver
also on C and H.  The runs use the derandomized profile of
``conftest.py``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freealg import (LinearMap, MapMatrix, SingularSystem, associator, complex_algebra, compose,
                     left_shift, multiply, octonion_algebra, quaternion_algebra, right_shift,
                     solve_additive)
from freealg.linmap import left_associator_map, right_associator_map
from test_kernel_properties import SMALL, VALUES, algebras
import oracle

ZERO = Fraction(0)
LAW_ALGEBRAS = st.one_of(st.just(octonion_algebra()), algebras())


def elements(algebra, values=VALUES):
    n = algebra.dim
    return st.lists(values, min_size=n, max_size=n).map(algebra.element)


@settings(max_examples=30)
@given(st.data())
def test_teichmueller_identity(data):
    algebra = data.draw(LAW_ALGEBRAS)
    a, b, c, d = (data.draw(elements(algebra)) for _ in range(4))
    lhs = multiply(a, associator(b, c, d)) + multiply(associator(a, b, c), d)
    rhs = (associator(multiply(a, b), c, d) - associator(a, multiply(b, c), d)
           + associator(a, b, multiply(c, d)))
    assert lhs == rhs


@settings(max_examples=30)
@given(st.data())
def test_shift_laws(data):
    algebra = data.draw(LAW_ALGEBRAS)
    a, b = data.draw(elements(algebra)), data.draw(elements(algebra))
    zero = LinearMap.zero(algebra)
    left = (compose(left_shift(a), left_shift(b)) + left_associator_map(a, b)
            - left_shift(multiply(a, b)))
    right = (compose(right_shift(a), right_shift(b))
             - right_shift(multiply(b, a)) - right_associator_map(b, a))
    assert left == zero
    assert right == zero


# zeros and units make singular systems common enough to reach
COEFFICIENTS = st.one_of(st.just(ZERO), st.just(Fraction(1)), SMALL)


@settings(max_examples=40)
@given(st.data(), st.integers(1, 3))
def test_solve_additive_round_trip(data, size):
    algebra = data.draw(st.one_of(st.just(complex_algebra()), st.just(quaternion_algebra()),
                                  algebras()))
    n = algebra.dim
    grid = st.lists(st.lists(COEFFICIENTS, min_size=n, max_size=n), min_size=n, max_size=n)
    coords = [[data.draw(grid) for _ in range(size)] for _ in range(size)]
    x = [data.draw(elements(algebra, COEFFICIENTS)) for _ in range(size)]
    # a second, arbitrary right side: inconsistent when M is singular, mostly
    other = [data.draw(elements(algebra, COEFFICIENTS)) for _ in range(size)]
    rhs = [algebra.element([sum((coords[i][j][p][q] * x[j].coords[q]
                                 for j in range(size) for q in range(n)), ZERO)
                            for p in range(n)])
           for i in range(size)]
    flat = [[coords[i][j][p][q] for j in range(size) for q in range(n)]
            for i in range(size) for p in range(n)]
    m = MapMatrix([[LinearMap(algebra, algebra, coords[i][j]) for j in range(size)]
                   for i in range(size)])

    def times_flat(v):
        return [sum((a * b for a, b in zip(row, v)), ZERO) for row in flat]

    if oracle.rank(flat) < size * n:
        for b in (rhs, other):
            with pytest.raises(SingularSystem) as err:
                solve_additive(m, b)
            w = [v for wj in err.value.witness for v in wj.coords]
            assert any(w) and times_flat(w) == [ZERO] * (size * n)
    else:
        assert solve_additive(m, rhs) == x
        assert times_flat([v for y in solve_additive(m, other) for v in y.coords]) == \
            [v for y in other for v in y.coords]
