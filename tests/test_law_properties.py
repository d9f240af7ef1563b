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
also on C and H.  The Teichmueller identity and the shift laws run again
on 40-bit coordinates, on H (x) H too, with the associativity of
``tensor_mul`` on H (x) H and of ``twisted_mul`` on C and H tensors: each
coordinate is a nonzero 40-bit numerator over a 41-bit denominator of its
own, so an element of O is over about 330 bits and its dense products run
``core.paired_kernel``.  The runs use the derandomized profile of
``conftest.py``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freealg import (LinearMap, MapMatrix, SingularSystem, Tensor2, associator, complex_algebra,
                     compose, left_shift, multiply, octonion_algebra, quaternion_algebra,
                     right_shift, solve_additive, tensor_mul, tensor_product, twisted_mul)
from freealg.linmap import left_associator_map, right_associator_map
from test_element_kernel import _coprime_denominators
from test_kernel_properties import SMALL, VALUES, algebras
import oracle

ZERO = Fraction(0)
LAW_ALGEBRAS = st.one_of(st.just(octonion_algebra()), algebras())
H = quaternion_algebra()
HH = tensor_product([H, H])
FORTY_BIT_ALGEBRAS = st.one_of(st.sampled_from([octonion_algebra(), HH]), algebras())
FORTY_BIT = st.integers(2**39, 2**40) | st.integers(-2**40, -2**39)
DENOMINATORS = _coprime_denominators(4 * 16)


def elements(algebra, values=VALUES):
    n = algebra.dim
    return st.lists(values, min_size=n, max_size=n).map(algebra.element)


def forty_bit(count, n):
    """``count`` lists of n coordinates, a 40-bit numerator over a
    denominator of ``DENOMINATORS`` each, no two coordinates over one."""
    def lists(numerators):
        values = [Fraction(p, d) for p, d in zip(numerators, DENOMINATORS)]
        return [values[m * n:(m + 1) * n] for m in range(count)]
    return st.lists(FORTY_BIT, min_size=count * n, max_size=count * n).map(lists)


def teichmueller_gap(a, b, c, d):
    return (multiply(a, associator(b, c, d)) + multiply(associator(a, b, c), d)
            - associator(multiply(a, b), c, d) + associator(a, multiply(b, c), d)
            - associator(a, b, multiply(c, d)))


def shift_law_maps(a, b):
    """l(a) l(b) + (a, b, .) - l(ab) and r(a) r(b) - r(ba) - (., b, a)."""
    return (compose(left_shift(a), left_shift(b)) + left_associator_map(a, b)
            - left_shift(multiply(a, b)),
            compose(right_shift(a), right_shift(b))
            - right_shift(multiply(b, a)) - right_associator_map(b, a))


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


@settings(max_examples=20)
@given(FORTY_BIT_ALGEBRAS, st.data())
def test_teichmueller_identity_on_40_bit_coordinates(algebra, data):
    a, b, c, d = map(algebra.element, data.draw(forty_bit(4, algebra.dim)))
    assert teichmueller_gap(a, b, c, d).is_zero()


@settings(max_examples=20)
@given(FORTY_BIT_ALGEBRAS, st.data())
def test_shift_laws_on_40_bit_coordinates(algebra, data):
    a, b = map(algebra.element, data.draw(forty_bit(2, algebra.dim)))
    zero = LinearMap.zero(algebra)
    assert shift_law_maps(a, b) == (zero, zero)


@settings(max_examples=20)
@given(st.data())
def test_tensor_and_twisted_products_are_associative_on_40_bit_coordinates(data):
    x, y, z = map(HH.element, data.draw(forty_bit(3, HH.dim)))
    assert tensor_mul(tensor_mul(x, y), z) == tensor_mul(x, tensor_mul(y, z))
    algebra = data.draw(st.sampled_from([complex_algebra(), H]))
    n = algebra.dim
    s, t, u = (Tensor2(algebra, [v[i * n:(i + 1) * n] for i in range(n)])
               for v in data.draw(forty_bit(3, n * n)))
    assert twisted_mul(twisted_mul(s, t), u) == twisted_mul(s, twisted_mul(t, u))


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
