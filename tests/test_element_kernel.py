"""Differential property tests of the element product and the matrix product.

``multiply`` on the built-in algebras C, H, O and E(-3/7, 5/2), and on
the tensor algebras H (x) H and O (x) O^op, is checked against
sum_{i,j} c_{ij}^k x^i y^j over the public constants.  ``exact.mat_mul``
is checked against a textbook triple loop on Fraction.  Both references
are in ``oracle.py`` and call nothing in freealg.  The laws of O (the
alternative laws and the Moufang identities; Baez, *The Octonions*,
arXiv:math/0105155) and the multiplicativity of the norm in C, H,
E(a, b) and O are checked on the same two classes of coordinates:

- small: p/q with |p| <= 4 and 1 <= q <= 3;
- 40-bit: |p| <= 2^40 over denominators of 41 bits that share no factor
  with one another, so that the common denominator of n coordinates has
  about 41 n bits, the worst case for a kernel that scales its operands
  to integers.

Elements of the 16- and 64-dimensional tensor algebras have at most 8
nonzero coordinates, which keeps the references fast.

The shifts, the two associator maps and ``associator``, all built on the
int kernel ``core.product_ints`` with no element in between, are checked
column by column against the same reference product, on those algebras,
the dual numbers and random algebras of ``test_kernel_properties``, whose
cells hold several constants over a denominator other than 1.  Operands
are zero, basis vectors and random supports, and in half the draws the
first two share their support count, where the kernel's choice of loop
is a tie.

``core.product_ints`` sends dense operands to the straight-line code of
``core.product_kernel`` and sparse ones to its loop.  Both paths are
checked, unreduced, against sum_{i,j} c_{ij}^k x^i y^j on the int
numerators of ``terms()``: on zero, one-hot, sparse and dense operands;
on a dim-1 algebra with and without a constant; on a constant whose
numerator has more digits than ``str()`` writes; and on algebras where
one output collects 6,400 terms or chains of 3,000.  Large dense operands
run ``core.paired_kernel``, one product per pair of terms x^i y^j, x^j y^i
whose table rows are equal up to sign: it must give the straight kernel's
ints and the oracle's product on C, H, E(a, b), the dual numbers, O,
H (x) H, H (x) H^op, random algebras and a table with unpaired, one-sided
and not-quite pairs, at 4 and 300 bits; the number of products each kernel
makes is pinned, and which kernel a product runs is read off the label its
compiled code carries.  The runs use the derandomized profile of
``conftest.py``.

Values reduce their int form once, on the first ``.ints`` read: a chain of
``octonion_laws``' identities calls ``exact.canonical`` only when its
results are read, and later products start from the stored reduced form
(``test_kernel_properties`` reads each operation's values first from eight
threads).
Each operation takes an operand's numerators and denominator from one read
of its form, which such a first read may replace.
"""

import dis
import itertools
import random
import sys
from fractions import Fraction
from functools import cache
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from freealg import (AlgebraMismatch, LinearMap, MapMatrix, QuaternionParams, Tensor2, apply,
                     associator, commutator, complex_algebra, compose, conjugate, exact,
                     inverse_element, left_shift, multiply, norm_sq, octonion_algebra, opposite,
                     quaternion_algebra, random_element, right_shift, tensor_inverse,
                     tensor_mul, tensor_product, twisted_mul)
from freealg import core
from freealg.exact import IntForm, canonical
from freealg.core import FreeAlgebra, paired_kernel, product_ints, product_kernel
from freealg.linmap import left_associator_map, right_associator_map, table_map, tensor_map
from freealg.solver import _left_sides
from freealg.tensor import twisted_algebra
from test_component_blocks import dual_numbers
from test_kernel_properties import algebras
import oracle


def _coprime_denominators(count):
    """The first ``count`` odd integers from 2^40 + 1 on that are coprime
    to every earlier pick."""
    picked, product, d = [], 1, 2**40 + 1
    while len(picked) < count:
        if gcd(d, product) == 1:
            picked.append(d)
            product *= d
        d += 2
    return picked


SUPPORT = 8
# one denominator for every nonzero coordinate of three elements
DENOMINATORS = _coprime_denominators(3 * SUPPORT)

SMALL = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
NUMERATOR = st.integers(-2**40, 2**40)
BIG = st.builds(Fraction, NUMERATOR, st.integers(1, 2**40))
NONZERO = st.builds(Fraction, st.integers(1, 4) | st.integers(-4, -1), st.integers(1, 3))


def E(a, b):
    return quaternion_algebra(QuaternionParams(a, b))


@cache
def algebra(name):
    """The named algebra, built once per test session."""
    if name == "C":
        return complex_algebra()
    if name == "H":
        return quaternion_algebra()
    if name == "O":
        return octonion_algebra()
    if name == "E(-3/7, 5/2)":
        return E(Fraction(-3, 7), Fraction(5, 2))
    if name == "E(2, -3)":
        return E(2, -3)
    if name == "H(x)H":
        return tensor_product([algebra("H"), algebra("H")])
    if name == "O(x)O^op":
        return tensor_product([algebra("O"), opposite(algebra("O"))])
    if name == "Q[e]/(e^2)":
        return dual_numbers()
    if name == "H(x)H^op":
        return twisted_algebra(algebra("H"))
    if name == "pairs":
        return pairs_algebra()
    if name == "Q[e]/(e^2) x Q":
        return FreeAlgebra(3, ["1", "e", "f"], [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1),
                                                (2, 2, 2, 1)])
    raise KeyError(name)


def pairs_algebra():
    """A table with every kind of pair i < j: (0, 1) commutes with a constant
    other than +-1 in two outputs, (1, 2) and (1, 3) anticommute, (0, 2) is
    one-sided, (0, 3) and (2, 3) are not +-1 apart, and e_0 e_0, e_1 e_1 and
    e_3 e_3 are diagonal terms; e_1 e_0 and e_1 e_3 share the output e_2.
    The pairs save one product of coordinates, 12 against 13."""
    return FreeAlgebra(4, ["a", "b", "c", "d"], [
        (0, 1, 2, 3), (0, 1, 3, -1), (1, 0, 2, 3), (1, 0, 3, -1),
        (1, 2, 0, 2), (2, 1, 0, -2), (1, 3, 2, 1), (3, 1, 2, -1),
        (0, 2, 1, 1), (0, 3, 1, 1), (3, 0, 1, 2),
        (2, 3, 0, 1), (2, 3, 1, 1), (3, 2, 0, 1), (3, 2, 1, -1),
        (0, 0, 0, Fraction(1, 2)), (1, 1, 3, 5), (3, 3, 3, 1)])


PRODUCT_ALGEBRAS = ["C", "H", "O", "E(-3/7, 5/2)", "H(x)H", "O(x)O^op"]


@st.composite
def elements(draw, alg, count, big):
    """``count`` elements of ``alg``, dense up to dimension 8 and with at
    most 8 nonzero coordinates above it.  In the 40-bit class every
    nonzero coordinate has a denominator of its own."""
    n = alg.dim
    denominators = iter(DENOMINATORS)
    out = []
    for _ in range(count):
        if n <= SUPPORT:
            support = range(n)
        else:
            support = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=SUPPORT))
        coords = [Fraction(0)] * n
        for i in support:
            coords[i] = Fraction(draw(NUMERATOR), next(denominators)) if big else draw(SMALL)
        out.append(alg.element(coords))
    return out


@cache
def table(alg):
    return oracle.table(alg.constants, alg.dim)


def product(alg, x, y):
    """sum_{i,j} c_{ij}^k x^i y^j over the public constants, by the oracle."""
    return tuple(oracle.mul(table(alg), x, y))


@given(st.sampled_from(PRODUCT_ALGEBRAS), st.booleans(), st.data())
def test_multiply_matches_the_constants(name, big, data):
    alg = algebra(name)
    x, y = data.draw(elements(alg, 2, big))
    assert multiply(x, y).coords == product(alg, x.coords, y.coords)


def reference_associator(alg, x, y, z, xy=None, yz=None):
    """(x y) z - x (y z); ``xy`` and ``yz`` when they are known."""
    xy = product(alg, x, y) if xy is None else xy
    yz = product(alg, y, z) if yz is None else yz
    left, right = product(alg, xy, z), product(alg, x, yz)
    return tuple(p - q for p, q in zip(left, right))


@st.composite
def operands(draw, alg, big):
    """Three coordinate tuples of ``alg``, each zero, a basis vector or
    nonzero values on a random support of at most 8 coordinates; in half
    the draws the second has as many nonzero coordinates as the first."""
    n = alg.dim
    denominators = iter(DENOMINATORS)
    tie = draw(st.booleans())
    out = []
    for index in range(3):
        kind = draw(st.sampled_from(["zero", "basis", "support"]))
        if tie and index == 1:
            kind, size = "support", sum(1 for v in out[0] if v)
        else:
            size = {"zero": 0, "basis": 1}.get(kind) or draw(st.integers(1, min(n, SUPPORT)))
        support = draw(st.lists(st.integers(0, n - 1), unique=True, min_size=size,
                                max_size=size))
        coords = [Fraction(0)] * n
        for i in support:
            if kind == "basis":
                coords[i] = Fraction(1)
            elif big:
                numerator = draw(st.integers(1, 2**40) | st.integers(-2**40, -1))
                coords[i] = Fraction(numerator, next(denominators))
            else:
                coords[i] = draw(NONZERO)
        out.append(tuple(coords))
    return out


def check_element_layer(alg, data, big):
    x, y, z = data.draw(operands(alg, big))
    a, b, c = (alg.element(v) for v in (x, y, z))
    units = [tuple(Fraction(int(i == j)) for i in range(alg.dim)) for j in range(alg.dim)]
    xy, yx = product(alg, x, y), product(alg, y, x)
    columns = [
        (left_shift(a), [product(alg, x, e) for e in units]),
        (right_shift(a), [product(alg, e, x) for e in units]),
        (left_associator_map(a, b), [reference_associator(alg, x, y, e, xy=xy) for e in units]),
        (right_associator_map(b, a), [reference_associator(alg, e, y, x, yz=yx) for e in units]),
    ]
    for f, cols in columns:
        assert f.coords == tuple(zip(*cols))
    assert multiply(a, b).coords == xy
    assert associator(a, b, c).coords == reference_associator(alg, x, y, z)
    assert associator(c, a, b).coords == reference_associator(alg, z, x, y)


@settings(max_examples=50)  # the reference runs on Fractions, slow on 40-bit O (x) O^op
@given(st.sampled_from(PRODUCT_ALGEBRAS + ["Q[e]/(e^2)"]), st.booleans(), st.data())
def test_shifts_and_associators_match_the_constants(name, big, data):
    check_element_layer(algebra(name), data, big)


@given(algebras(), st.booleans(), st.data())
def test_shifts_and_associators_match_the_constants_of_random_algebras(alg, big, data):
    check_element_layer(alg, data, big)


def int_product(alg, xs, ys):
    """sum_{i,j} c_{ij}^k x^i y^j on the int numerators of the table, unreduced."""
    out = [0] * alg.dim
    for i, row in enumerate(alg.terms()):
        for j, k, c in row:
            out[k] += c * xs[i] * ys[j]
    return out


@cache
def kernel_algebras():
    """The edge cases of the compiled product, by name."""
    huge = Fraction(1, 10**4400)  # 7 is 7 * 10^4400 over that denominator
    return {
        "dim 1": FreeAlgebra(1, ["e"], [(0, 0, 0, Fraction(-3, 2))]),
        "dim 1, zero product": FreeAlgebra(1, ["e"], []),
        "4,401-digit numerator": FreeAlgebra(2, ["a", "b"], [
            (0, 0, 0, 7), (0, 1, 1, huge), (1, 0, 1, -1), (1, 1, 0, 2)]),
        "dim 80, every product e_0": FreeAlgebra(
            80, [f"e{i}" for i in range(80)],
            [(i, j, 0, 1) for i in range(80) for j in range(80)]),
        "dim 3000, chains of 3000": FreeAlgebra(
            3000, [f"e{i}" for i in range(3000)],
            [(0, j, 0, 1) for j in range(3000)] + [(i, 0, 0, -5) for i in range(1, 3000)]),
        "O": algebra("O"),
        "H(x)H": algebra("H(x)H"),
        "E(-3/7, 5/2)": algebra("E(-3/7, 5/2)"),
    }


@pytest.mark.parametrize("name", list(kernel_algebras()))
def test_both_product_paths_match_the_int_reference(name):
    alg = kernel_algebras()[name]
    n = alg.dim
    rng = random.Random(n)

    def operand(nonzero, bits):
        xs = [0] * n
        for i in rng.sample(range(n), nonzero):
            xs[i] = rng.choice((-1, 1)) * rng.randint(1, 2**bits)
        return xs

    kinds = {"zero": 0, "one-hot": 1, "sparse": max(1, n // 4), "dense": n}
    for bits in (3, 40):
        for (kx, nx), (ky, ny) in itertools.product(kinds.items(), repeat=2):
            xs, ys = operand(nx, bits), operand(ny, bits)
            assert product_ints(alg, xs, ys) == int_product(alg, xs, ys), (kx, ky)
            assert product_kernel(alg)(xs, ys) == int_product(alg, xs, ys), (kx, ky)
    x, y = alg.element(operand(n, 3)), alg.element(operand(n, 3))
    # a table of its own, not cached: dim 3000 makes 9 million cells
    t = oracle.table(alg.constants, n)
    assert multiply(x, y).coords == tuple(oracle.mul(t, x.coords, y.coords))


def test_only_dense_operands_compile_the_kernel(monkeypatch):
    # the loop runs while 4 nnz <= dim for the sparser operand, so products
    # with a basis vector, as the shifts make them, never compile the kernel
    alg = tensor_product([algebra("H"), algebra("H")])
    dense = list(range(1, 17))
    sparse = [1, 2, 3, 4] + [0] * 12
    assert len(sparse) == alg.dim
    left_shift(alg.element(dense))
    multiply(alg.element(sparse), alg.element(dense))
    assert "product_kernel" not in alg._cache
    monkeypatch.setattr(core, "_compile_product", lambda a: lambda xs, ys: "compiled")
    assert product_ints(alg, dense, sparse) != "compiled"  # 4 nnz = dim
    assert product_ints(alg, dense, [5] + sparse[:-1]) == "compiled"  # 5 nnz
    assert product_ints(alg, dense, dense) == "compiled"


PAIRED_ALGEBRAS = ["C", "H", "Q[e]/(e^2)", "O", "H(x)H", "H(x)H^op", "pairs"]


def coordinates(bits):
    """Ints of at most 4 bits, or of 300 or 301 bits of either sign."""
    if bits < 300:
        return st.integers(-15, 15)
    return st.integers(2**299, 2**301) | st.integers(-2**301, -2**299)


@given(st.sampled_from(PAIRED_ALGEBRAS).map(algebra) | st.builds(E, NONZERO, NONZERO)
       | algebras(), st.sampled_from([4, 300]), st.data())
def test_the_paired_kernel_gives_the_straight_kernel_s_ints(alg, bits, data):
    n = alg.dim
    xs, ys = (data.draw(st.lists(coordinates(bits), min_size=n, max_size=n)) for _ in range(2))
    paired = paired_kernel(alg)(xs, ys)
    assert paired == product_kernel(alg)(xs, ys)
    assert [Fraction(v, alg.denominator) for v in paired] == oracle.mul(table(alg), xs, ys)


def compiled_calls(run):
    """The file names of the compiled kernels that ``run()`` calls, in order:
    ``core._compile`` names a kernel's code "<label>"."""
    names = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "kernel":
            names.append(frame.f_code.co_filename)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return names


def test_only_large_dense_products_run_the_paired_code():
    H, O = quaternion_algebra(), octonion_algebra()  # fresh: nothing compiled yet
    HH, HH_op = tensor_product([H, H]), twisted_algebra(H)
    rng = random.Random(50)

    def draw(alg, bound):
        return alg.element([Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
                            for _ in range(alg.dim)])

    a, b, c = (draw(O, 2**40) for _ in range(3))
    x, y = draw(HH, 2**40), draw(HH, 2**40)
    s, u = (Tensor2(H, [draw(H, 2**40).coords for _ in range(4)]) for _ in range(2))
    paired, straight = "<paired product of {!r}>".format, "<product of {!r}>".format
    assert compiled_calls(lambda: multiply(a, b)) == [paired(O)]
    assert compiled_calls(lambda: tensor_mul(x, y)) == [paired(HH)]
    assert compiled_calls(lambda: twisted_mul(s, u)) == [paired(HH_op)]
    assert compiled_calls(lambda: associator(a, b, c)) == [paired(O)] * 4
    assert compiled_calls(lambda: left_associator_map(a, b)) == [paired(O)] * 9
    assert compiled_calls(lambda: right_associator_map(b, a)) == [paired(O)] * 9
    # the bound is on the smaller operand: a 160-bit denominator runs the
    # paired code beside a 640-bit one, a 159-bit one the straight code, and
    # so does a 12-bit one, while two 330-bit ones run the paired code
    a = O.element([Fraction(1, 2**639)] * 8)
    for b_den, name in ((2**159, paired(O)), (2**158, straight(O)), (2**11, straight(O))):
        b = O.element([Fraction(1, b_den)] * 8)
        assert compiled_calls(lambda: multiply(a, b)) == [name]
        assert compiled_calls(lambda: multiply(b, a)) == [name]
    a, b = (O.element([Fraction(2 * rng.randint(1, 2**40) + 1, 2**329)] * 8) for _ in range(2))
    assert compiled_calls(lambda: multiply(a, b)) == [paired(O)]
    # 9-bit values, as the verify suites draw them
    a, b, c = (draw(O, 9) for _ in range(3))
    assert compiled_calls(lambda: multiply(a, b)) == [straight(O)]
    assert compiled_calls(lambda: associator(a, b, c)) == [straight(O)] * 4
    assert compiled_calls(lambda: left_associator_map(a, b)) == [straight(O)] * 9
    # component_maps' only products: the two checks of an H tensor's inverse
    t = Tensor2(H, [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
                    for _ in range(4)])
    calls = compiled_calls(lambda: tensor_inverse(t))
    assert [name for name in calls if "product" in name] == [straight(HH_op)] * 2


def multiplications(kernel):
    """The number of * operations in a compiled kernel's code."""
    return sum(op.opname == "BINARY_MULTIPLY" or op.opname == "BINARY_OP" and op.argrepr == "*"
               for op in dis.get_instructions(kernel))


@pytest.mark.parametrize("name, straight, paired", [
    ("C", 4, 3), ("H", 16, 10), ("E(2, -3)", 23, 15), ("O", 64, 36), ("H(x)H", 256, 136),
    ("H(x)H^op", 256, 136), ("pairs", 30, 25), ("Q[e]/(e^2)", 3, 3), ("Q[e]/(e^2) x Q", 4, 4)])
def test_the_paired_code_makes_one_product_per_pair(name, straight, paired):
    # products of coordinates and by constants other than +-1; in the dual
    # numbers d_0, d_1 and the pair (0, 1) would make 3, as many as x_0 y_0,
    # x_0 y_1 and x_1 y_0, so the paired kernel is the straight code, and
    # so it is with x_2 y_2 beside them
    alg = algebra(name)
    assert multiplications(product_kernel(alg)) == straight
    assert multiplications(paired_kernel(alg)) == paired
    label = "paired product" if paired < straight else "product"
    assert paired_kernel(alg).__code__.co_filename == f"<{label} of {alg!r}>"


def test_associators_refuse_operands_of_two_algebras():
    # associator and the associator maps reach the kernel without multiply,
    # so they check their operands' algebra themselves
    H, other = algebra("H"), quaternion_algebra()
    x, y, z = H.basis_element(1), H.basis_element(2), other.basis_element(3)
    for args in ((z, x, y), (x, z, y), (x, y, z)):
        with pytest.raises(AlgebraMismatch):
            associator(*args)
    for build in (left_associator_map, right_associator_map):
        for args in ((x, z), (z, x)):
            with pytest.raises(AlgebraMismatch):
                build(*args)


@given(st.booleans(), st.data())
def test_alternative_laws_and_moufang_identities_in_O(big, data):
    m = multiply
    x, y, z = data.draw(elements(algebra("O"), 3, big))
    xy = m(x, y)
    assert m(m(x, x), y) == m(x, xy)                    # left alternative
    assert m(m(y, x), x) == m(y, m(x, x))               # right alternative
    assert m(xy, x) == m(x, m(y, x))                    # flexible
    assert m(z, m(x, m(z, y))) == m(m(m(z, x), z), y)   # left Moufang
    assert m(x, m(z, m(y, z))) == m(m(m(x, z), y), z)   # right Moufang
    middle = m(m(z, x), m(y, z))
    assert middle == m(m(z, xy), z)                     # middle Moufang
    assert middle == m(z, m(xy, z))


@given(st.sampled_from(["C", "H", "O", "E(-3/7, 5/2)", "E(a, b)"]), st.booleans(),
       st.data())
def test_norm_is_multiplicative(name, big, data):
    if name == "E(a, b)":
        params = QuaternionParams(data.draw(NONZERO), data.draw(NONZERO))
        alg = E(params.a, params.b)
    else:
        alg = algebra(name)
        params = QuaternionParams(*alg.params) if alg.dim == 4 else None
    x, y = data.draw(elements(alg, 2, big))
    xy = multiply(x, y)
    assert norm_sq(xy) == norm_sq(x) * norm_sq(y)
    if params is not None:
        # the closed form (x^0)^2 - a (x^1)^2 - b (x^2)^2 + ab (x^3)^2 in E(a, b)
        a, b = params.a, params.b
        for z in (x, y, xy):
            z0, z1, z2, z3 = z.coords
            assert norm_sq(z) == z0 * z0 - a * z1 * z1 - b * z2 * z2 + a * b * z3 * z3


@st.composite
def matrix_pairs(draw):
    """a (rows x inner) and b (inner x cols), sizes 1 to 6, small or
    40-bit entries, with some rows and columns of either set to zero."""
    rows, inner, cols = (draw(st.integers(1, 6)) for _ in range(3))
    values = BIG if draw(st.booleans()) else SMALL

    def matrix(r, c):
        return [[draw(values) for _ in range(c)] for _ in range(r)]

    a, b = matrix(rows, inner), matrix(inner, cols)
    for i in draw(st.sets(st.integers(0, rows - 1))):
        a[i] = [Fraction(0)] * inner
    for k in draw(st.sets(st.integers(0, inner - 1))):
        for row in a:
            row[k] = Fraction(0)
    for k in draw(st.sets(st.integers(0, inner - 1))):
        b[k] = [Fraction(0)] * cols
    for j in draw(st.sets(st.integers(0, cols - 1))):
        for row in b:
            row[j] = Fraction(0)
    return a, b


@given(matrix_pairs())
def test_mat_mul_matches_the_reference(pair):
    a, b = pair
    assert exact.mat_mul(a, b) == oracle.matmul(a, b)


@pytest.mark.parametrize("size", [16, 24])
@pytest.mark.parametrize("big", [False, True])
def test_mat_mul_matches_the_reference_on_dense_matrices(size, big):
    rng = random.Random(size)

    def entry():
        if big:
            return Fraction(rng.randint(-2**40, 2**40), rng.randint(1, 2**40))
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    a = [[entry() for _ in range(size)] for _ in range(size)]
    b = [[entry() for _ in range(size)] for _ in range(size)]
    assert exact.mat_mul(a, b) == oracle.matmul(a, b)


def test_multiply_and_mat_mul_run_on_ints(monkeypatch):
    # Fraction arithmetic is what the integer form replaces: elements, maps
    # and tensors add, compose and multiply on ints, and Fractions are
    # built only for the coordinates that are read
    rng = random.Random(8)
    O, H = algebra("O"), algebra("H")

    def big_octonion(denominators):
        return O.element([Fraction(rng.randint(-2**40, 2**40), d) for d in denominators])

    x, y = big_octonion(DENOMINATORS[:8]), big_octonion(DENOMINATORS[8:16])
    c, d = big_octonion(DENOMINATORS[16:24]), big_octonion(DENOMINATORS[:8])
    a, b = ([[Fraction(rng.randint(-2**40, 2**40), rng.randint(1, 2**40)) for _ in range(8)]
             for _ in range(8)] for _ in range(2))
    s, t = (Tensor2(H, [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
                        for _ in range(4)]) for _ in range(2))

    def shift_law(p, q):
        return (compose(left_shift(p), left_shift(q)) + left_associator_map(p, q)
                - left_shift(multiply(p, q)))

    product, matrix = multiply(x, y).coords, exact.mat_mul(a, b)
    chained = associator(multiply(x, y), c, d).coords
    law, twisted = shift_law(x, y).coords, twisted_mul(s, t).components

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in the integer kernel")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Fraction, name, refuse)
    assert multiply(x, y).coords == product
    assert exact.mat_mul(a, b) == matrix
    assert associator(multiply(x, y), c, d).coords == chained
    assert shift_law(x, y).coords == law
    assert twisted_mul(s, t).components == twisted


def test_values_carry_their_int_form_from_construction(monkeypatch):
    # a value built from Fractions computes its int form when it is built,
    # so no later operation on it scales Fractions to ints again
    rng = random.Random(16)
    H, O = algebra("H"), algebra("O")
    twisted_algebra(H)  # built once per algebra, through its own constants

    def rationals(count):
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(count)]

    x_coords, y_coords, z_coords = rationals(4), rationals(4), rationals(8)
    f_grid = [rationals(8) for _ in range(8)]
    s_grid, t_grid = ([rationals(4) for _ in range(4)] for _ in range(2))

    def build():
        return (H.element(x_coords), H.element(y_coords), O.element(z_coords),
                LinearMap(O, O, f_grid), Tensor2(H, s_grid), Tensor2(H, t_grid))

    first = x, y, z, f, s, t = build()
    expected = (x + y, multiply(x, y), apply(f, z), compose(f, f), twisted_mul(s, t))
    x, y, z, f, s, t = build()  # fresh values, no int operation run on them yet

    def refuse(values):
        raise AssertionError("a value scaled its Fractions to ints after construction")

    monkeypatch.setattr(exact, "as_ints", refuse)
    assert (x + y, multiply(x, y), apply(f, z), compose(f, f), twisted_mul(s, t)) == expected
    assert (x, y, z, f, s, t) == first
    with pytest.raises(AttributeError):
        x.ints = ((0,) * 4, 1)


def test_a_law_chain_reduces_each_value_once_when_it_is_read(monkeypatch):
    # octonion_laws' identities on 40-bit values: products, sums, scalings,
    # shifts, compositions and tensor products leave their int forms
    # unreduced; the first .ints read of a value reduces it, once
    rng = random.Random(48)
    O, H, HH = algebra("O"), algebra("H"), algebra("H(x)H")

    def big(count):
        return [Fraction(rng.randint(-2**40, 2**40), rng.randint(1, 2**40)) for _ in range(count)]

    a, b, c, d = (O.element(big(8)) for _ in range(4))
    x, y, z = (HH.element(big(16)) for _ in range(3))
    p, q = H.element(big(4)), H.element(big(4))
    s, t, u = (Tensor2(H, [big(4) for _ in range(4)]) for _ in range(3))
    twisted_mul(s, t)  # builds H (x) H^op, whose constants are reduced once
    calls = []

    def counted(ints, den):
        calls.append(den)
        return canonical(ints, den)

    monkeypatch.setattr(exact, "canonical", counted)
    monkeypatch.setattr(core, "canonical", counted)
    ab = multiply(a, b)
    left = (compose(left_shift(a), left_shift(b)) + left_associator_map(a, b)
            - left_shift(ab))
    right = (compose(right_shift(a), right_shift(b)) - right_shift(multiply(b, a))
             - right_associator_map(b, a))
    teichmueller = (multiply(a, associator(b, c, d)) + multiply(associator(a, b, c), d)
                    - associator(ab, c, d) + associator(a, multiply(b, c), d)
                    - associator(a, b, multiply(c, d)))
    norm_gap = norm_sq(ab) - norm_sq(a) * norm_sq(b)
    inverse_gap = multiply(a, inverse_element(a)) - O.unit()
    image = apply(left_shift(conjugate(c)), -d).scaled(Fraction(3, 7)) + commutator(a, b)
    tensor_gap = tensor_mul(tensor_mul(x, y), z) - tensor_mul(x, tensor_mul(y, z))
    pure_gap = tensor_mul(HH.pure([p, q]), HH.pure([q, p])) - HH.pure([p * q, q * p])
    twist_gap = twisted_mul(twisted_mul(s, t), u) - twisted_mul(s, twisted_mul(t, u))
    pure_twist = twisted_mul(Tensor2.pure(p, q), Tensor2.pure(q, p))
    assert calls == [] and norm_gap == 0
    values = [left, right, teichmueller, inverse_gap, image, tensor_gap, pure_gap, twist_gap,
              pure_twist]
    for k, value in enumerate(values, 1):
        form = value.ints
        assert len(calls) == k
        assert value.ints is form and len(calls) == k
    zero = [value.ints for value in values if value.is_zero()]
    assert len(zero) == 7 and all(den == 1 for _, den in zero)
    # the reads stored the canonical forms, which the Fractions agree with
    assert image.ints == oracle.int_form(image.coords)
    assert pure_twist.ints == oracle.int_form(sum(map(list, pure_twist.components), []))
    assert len(calls) == len(values)


def test_a_read_stores_the_reduced_form_that_later_products_start_from():
    H = algebra("H")
    x = H.element([Fraction(1, 2)] * 4)  # (1 + i + j + k) / 2, of order 6
    power = x
    for _ in range(5):
        power = multiply(power, x)
    assert power._form[1] == 2 ** 6 and power.ints == ((1, 0, 0, 0), 1)
    for _ in range(6):
        power = multiply(power, x)  # x^12, from x^6 reduced: six factors over 2
    assert power._form[1] == 2 ** 6 and power.ints == ((1, 0, 0, 0), 1)
    # a sum stays over the lcm of its terms' denominators, whatever its length
    rng = random.Random(50)
    O = algebra("O")
    terms = [random_element(O, rng) for _ in range(50)]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    assert total._form[1] == lcm(*(term.ints[1] for term in terms))
    assert total.ints == oracle.int_form([sum(v) for v in zip(*(term.coords for term in terms))])


class Rescaling:
    """Mixed into a value type: each read of ``_form`` returns the stored form
    and then doubles it, as though a first ``ints`` read in another thread had
    replaced it by an equal form between two reads."""

    __slots__ = ()

    @property
    def _form(self):
        nums, den = IntForm._form.__get__(self)
        IntForm._form.__set__(self, ([2 * x for x in nums], 2 * den))
        return nums, den

    @_form.setter
    def _form(self, form):
        IntForm._form.__set__(self, form)


@cache
def rescaling(cls):
    return type(f"Rescaling{cls.__name__}", (Rescaling, cls), {"__slots__": ()})


def rescaled(value):
    """``value`` as a ``Rescaling`` value of its type, unread."""
    return rescaling(type(value))._of(value._space, value._form)


def like(a, value):
    """``value`` as a value of a's type, which ``+`` and ``-`` ask of their operands."""
    return type(a)._of(value._space, value._form)


def test_operations_read_an_operand_s_form_once():
    # numerators and denominator of an operand come from one read of its
    # form, or an operation could mix the form before and after a reduction
    rng = random.Random(51)
    O, H = algebra("O"), algebra("H")
    HH = tensor_product([H, H])
    x, y, z = (random_element(O, rng) for _ in range(3))
    p, q = random_element(H, rng), random_element(H, rng)
    f, g = (LinearMap(O, O, [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)]
                             for _ in range(8)]) for _ in range(2))
    s, t = (Tensor2(H, [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
                        for _ in range(4)]) for _ in range(2))
    m = MapMatrix([[f]])
    operations = [
        (x, lambda a: multiply(a, y)), (x, lambda a: multiply(y, a)),
        (x, lambda a: associator(a, y, z)), (x, lambda a: associator(y, z, a)),
        (x, lambda a: (a + like(a, y)).ints), (x, lambda a: (like(a, y) - a).ints),
        (x, lambda a: a.scaled(Fraction(3, 7)).ints), (x, lambda a: (-a).ints),
        (x, left_shift), (x, right_shift),
        (x, lambda a: left_associator_map(a, y)), (x, lambda a: right_associator_map(y, a)),
        (x, lambda a: apply(f, a)), (x, conjugate), (x, norm_sq), (x, inverse_element),
        (x, hash), (x, lambda a: a.coords), (x, lambda a: _left_sides(m, [a])),
        (p, lambda a: HH.pure([a, q])), (p, lambda a: Tensor2.pure(q, a)),
        (f, lambda a: compose(a, g)), (f, lambda a: compose(g, a)), (f, lambda a: apply(a, x)),
        (f, lambda a: (a - like(a, g)).ints), (f, lambda a: a.inverse()),
        (f, lambda a: _left_sides(MapMatrix([[a]]), [x])),
        (t, lambda a: twisted_mul(a, s)), (t, lambda a: twisted_mul(s, a)),
        (t, tensor_map), (t, table_map), (t, lambda a: tensor_map(a, "right")),
    ]
    for value, operation in operations:
        assert operation(rescaled(value)) == operation(value)
