"""Differential property tests of the component matrix and the product.

Random structure-constant algebras of dimension 1 to 5, with sparse
constants, with and without a unit at index 0, and with small or
40-bit rational values, are checked against the plain-``Fraction``
definitions in ``oracle.py``: the product, the sandwiches x -> (e_i x) e_j
and x -> e_i (x e_j), whose coordinate matrices are the columns of the
component matrix, and the twisted product.  Orbit membership must find a
tensor for each map S f, S the sandwich of a tensor.  ``check_inverse``
holds ``tensor_inverse`` to the oracle's solve of t o u = unit.  Each example builds
a fresh algebra, so no cached component matrix carries over from one
example to the next.  The other test modules share the strategies here.

Elements, maps and tensors read an integer form, ``.ints``: int numerators
over one positive denominator, primitive, the zero vector over 1, which
``oracle.int_form`` gives.  A value built from Fractions and the same value
built by int operations must agree with a plain-``Fraction`` reference in
``==``, ``hash``, the Fraction view and that form.  Products, associators,
commutators, the shifts, the associator maps, ``apply``, ``compose``, the
twisted product, ``tensor_mul`` and both pure tensors leave their form
unreduced until ``.ints`` is read, as do the conversions, the orbit tensor,
the inverses of maps and of grids of maps, the additive solutions and
witnesses and the CLI's complex entries, and ``_of`` takes any form: their
hash, view and ``is_zero`` are checked before that read, on the built-ins
and on random algebras.

The runs use the derandomized profile of ``conftest.py``.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st
import pytest

from freealg import (AlgElement, LinearMap, MapMatrix, MinorSingular, NotRepresentable,
                     SingularSystem, SingularTensor, Tensor2, apply, associator, b_matrix,
                     commutator, complex_algebra, compose, coords_from_standard, exact, flatten,
                     inverse_map_matrix, left_shift, multiply, octonion_algebra, orbit_contains,
                     quaternion_algebra, right_shift, solve_additive, standard_from_coords,
                     tensor_inverse, tensor_mul, tensor_product, twisted_mul)
from freealg.cli import parse_complex_entry
from freealg.core import FreeAlgebra
from freealg.linmap import left_associator_map, right_associator_map, table_map, tensor_map
from freealg.solver import _recursive_inverse
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
    assert y.ints == oracle.int_form(expected)
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


def check_inverse(algebra, comps):
    """tensor_inverse against a plain-Fraction solve of t o u = unit: the
    particular solution u, with free components 0, when u o t = unit too;
    SingularTensor, one-sided exactly when that solve succeeds, otherwise."""
    c, n, e = table(algebra), algebra.dim, algebra.unit_index
    unit = [[Fraction(int(r == c_ == e)) for c_ in range(n)] for r in range(n)]
    solved = oracle.solve(oracle.left_action(c, comps), sum(unit, []))
    u = solved and [solved[1][r * n:r * n + n] for r in range(n)]
    if u and oracle.twisted(c, u, comps) == unit:
        assert [list(row) for row in tensor_inverse(Tensor2(algebra, comps)).components] == u
        return True
    with pytest.raises(SingularTensor) as err:
        tensor_inverse(Tensor2(algebra, comps))
    assert err.value.one_sided == bool(u)
    return False


@settings(max_examples=40)
@given(st.data(), st.sampled_from(["C", "H", "O", "random"]))
def test_tensor_inverse_is_two_sided_or_refused(data, name):
    # Short of a left action of full rank, t o u = unit may still be solvable
    # in an algebra that is not associative.  Sparse tensors reach those
    # cases, and keep the reference solve of O's 64 x 64 short.
    algebra = data.draw(algebras(unital=True)) if name == "random" else BUILTINS[name]
    n = algebra.dim
    check_inverse(algebra, data.draw(sparse_grids(n) if name == "O"
                                     else grids(n) | sparse_grids(n)))


def assert_agree(via_ints, via_fractions, view, flat, ids):
    """Both values equal, hash alike and read as ``view``, and hold the
    canonical form of ``flat``, the view read row by row."""
    for value in (via_ints, via_fractions):
        nums, den = value.ints
        assert value.ints == oracle.int_form(flat)
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


def assert_deferred(value, via_fractions, view, ids):
    """``value``, made by int operations that leave its form unreduced, reads
    as ``via_fractions``: its hash, view and ``is_zero`` before its first
    ``.ints`` read, then the oracle's canonical form of ``view`` and ``==``."""
    flat = [v for row in view for v in row] if isinstance(view[0], tuple) else view
    assert hash(value) == hash(via_fractions) == hash((*ids, view))
    assert (value.components if isinstance(value, Tensor2) else value.coords) == view
    assert value.is_zero() == (not any(flat))
    assert value.ints == via_fractions.ints == oracle.int_form(flat)
    assert value == via_fractions and via_fractions == value


def coordinates(n):
    """n VALUES, at most 4 of them nonzero past dim 8, so that the references
    on H (x) H stay fast."""
    if n <= 8:
        return st.lists(VALUES, min_size=n, max_size=n)
    cells = st.dictionaries(st.integers(0, n - 1), VALUES, max_size=4)
    return cells.map(lambda d: [d.get(k, ZERO) for k in range(n)])


def fractions(values):
    return tuple(Fraction(v) for v in values)


def fraction_grid(rows):
    return tuple(fractions(row) for row in rows)


@given(st.data(), st.sampled_from([*BUILTINS, "random"]))
def test_products_shifts_and_compositions_hold_the_canonical_int_form(data, name):
    A = data.draw(algebras()) if name == "random" else BUILTINS[name]
    n, c = A.dim, table(A)
    x, y, z = (data.draw(coordinates(n)) for _ in range(3))
    f, g = (data.draw(sparse_grids(n) if n > 8 else grids(n)) for _ in range(2))

    def mul(p, q):
        return oracle.mul(c, p, q)

    def sub(p, q):
        return [v - w for v, w in zip(p, q)]

    def grid(image):  # the coordinate grid of a map from its images of e_0 .. e_{n-1}
        return fraction_grid(zip(*(image([int(k == j) for k in range(n)]) for j in range(n))))

    X, Y, Z = (A.element(v) for v in (x, y, z))
    F, G = LinearMap(A, A, f), LinearMap(A, A, g)
    xy = mul(x, y)
    for value, view in [
            (multiply(X, Y), fractions(xy)),
            (associator(X, Y, Z), fractions(sub(mul(xy, z), mul(x, mul(y, z))))),
            (commutator(X, Y), fractions(sub(xy, mul(y, x)))),
            (apply(F, X), fractions(row[0] for row in oracle.matmul(f, [[v] for v in x])))]:
        assert_deferred(value, A.element(view), view, (id(A),))
    for value, view in [
            (left_shift(X), grid(lambda e: mul(x, e))),
            (right_shift(X), grid(lambda e: mul(e, x))),
            (left_associator_map(X, Y), grid(lambda e: sub(mul(xy, e), mul(x, mul(y, e))))),
            (right_associator_map(Y, X),
             grid(lambda e: sub(mul(mul(e, y), x), mul(e, mul(y, x))))),
            (compose(G, F), fraction_grid(oracle.matmul(g, f)))]:
        assert_deferred(value, LinearMap(A, A, view), view, (id(A), id(A)))


@given(st.data(), st.sampled_from(["C", "H", "O", "random"]))
def test_tensor_products_and_pure_tensors_hold_the_canonical_int_form(data, name):
    A = data.draw(algebras()) if name == "random" else BUILTINS[name]
    n, c = A.dim, table(A)
    s, t = (data.draw(sparse_grids(n) if n > 4 else grids(n)) for _ in range(2))
    a, b, p = (data.draw(st.lists(VALUES, min_size=n, max_size=n)) for _ in range(3))
    u, v = (data.draw(st.lists(VALUES, min_size=2, max_size=2)) for _ in range(2))
    view = fraction_grid(oracle.twisted(c, s, t))
    assert_deferred(twisted_mul(Tensor2(A, s), Tensor2(A, t)), Tensor2(A, view), view, (id(A),))
    view = fraction_grid([[x * y for y in b] for x in a])
    assert_deferred(Tensor2.pure(A.element(a), A.element(b)), Tensor2(A, view), view, (id(A),))
    # A (x) C: its pure tensors, and their product by the oracle's tensor constants
    C = BUILTINS["C"]
    T = tensor_product([A, C])
    dim, constants = oracle.tensor_constants([(n, A.constants), (2, C.constants)])
    outer = [fractions(x * y for x in first for y in second) for first, second in ((a, u), (p, v))]
    pures = [T.pure([A.element(first), C.element(second)]) for first, second in ((a, u), (p, v))]
    for value, view in [*zip(pures, outer),
                        (tensor_mul(*pures), fractions(oracle.mul(oracle.table(constants, dim),
                                                                  *outer)))]:
        assert_deferred(value, T.element(view), view, (id(T),))


@given(st.data(), st.sampled_from([*BUILTINS, "random"]), st.integers(2, 2**40))
def test_of_takes_any_int_form_and_reduces_it_when_read(data, name, k):
    # the form of a drawn value with its numerators and denominator times k > 1
    A = data.draw(algebras()) if name == "random" else BUILTINS[name]
    n = A.dim
    x = data.draw(coordinates(n))
    f, t = (data.draw(sparse_grids(n) if n > 8 else grids(n)) for _ in range(2))
    for cls, via_fractions, view, ids in [
            (AlgElement, A.element(x), fractions(x), (id(A),)),
            (LinearMap, LinearMap(A, A, f), fraction_grid(f), (id(A), id(A))),
            (Tensor2, Tensor2(A, t), fraction_grid(t), (id(A),))]:
        nums, den = oracle.int_form(exact.vec(view) if isinstance(view[0], tuple) else view)
        value = cls._of(via_fractions._space, ([k * v for v in nums], k * den))
        assert_deferred(value, via_fractions, view, ids)


def grid_of(values, n):
    """The n x n grid of Fractions read row by row from ``values``."""
    return fraction_grid(exact.blocks(values, n))


@settings(max_examples=60)
@given(st.data(), st.sampled_from([*BUILTINS, "random"]), st.sampled_from(["left", "right"]))
def test_conversions_hold_the_canonical_int_form(data, name, order):
    # t's map by tensor_map and table_map, from an unreduced form of t, then
    # the particular tensor and each null vector of standard_from_coords of
    # that map, against the oracle's sandwich and its solve of B y = vec(g)
    A = data.draw(algebras()) if name == "random" else BUILTINS[name]
    n, c = A.dim, table(A)
    s = data.draw(sparse_grids(n) if n > 4 else grids(n))
    q = data.draw(NONZERO)
    t = Tensor2(A, s).scaled(q).scaled(1 / q)
    view = fraction_grid(oracle.sandwich(c, s, order))
    for value in (tensor_map(t, order), table_map(t, order)):
        assert_deferred(value, LinearMap(A, A, view), view, (id(A), id(A)))
    solution = standard_from_coords(LinearMap(A, A, view), order)
    if n > 8:  # B of H (x) H has full rank: s is the one solution
        wanted = [fraction_grid(s)]
    else:
        _, particular, nullspace = oracle.solve(oracle.component_matrix(c, order),
                                                exact.vec(view))
        wanted = [grid_of(v, n) for v in (particular, *nullspace)]
    assert len(wanted) == 1 + len(solution.nullspace)
    for value, grid in zip([solution.particular, *solution.nullspace], wanted):
        assert_deferred(value, Tensor2(A, grid), grid, (id(A),))


def basis_tensor(n, i, j):
    return [[int(r == i and m == j) for m in range(n)] for r in range(n)]


@settings(max_examples=40)
@given(st.data(), st.sampled_from(["C", "H", "O", "random"]), st.sampled_from(["left", "right"]))
def test_orbit_tensors_hold_the_canonical_int_form(data, name, order):
    # the particular solution, free components 0, of the oracle's system of
    # orbit columns e_i (x) e_j acting on f; O's 64 x 64 solve takes sparse grids
    A = data.draw(algebras()) if name == "random" else BUILTINS[name]
    n = A.dim
    t, f = (data.draw(sparse_grids(n) if name == "O" else grids(n)) for _ in range(2))
    g = action(A, t, f, order)
    found = orbit_contains(LinearMap(A, A, g), LinearMap(A, A, f), order)
    columns = [exact.vec(action(A, basis_tensor(n, i, j), f, order))
               for i in range(n) for j in range(n)]
    _, particular, _ = oracle.solve([list(row) for row in zip(*columns)], exact.vec(g))
    grid = grid_of(particular, n)
    assert_deferred(found, Tensor2(A, grid), grid, (id(A),))


def map_grids(data, A, rows):
    """A rows x rows grid of maps of A, their coordinates SMALL past dim 4."""
    n = A.dim
    small = st.lists(st.lists(SMALL, min_size=n, max_size=n), min_size=n, max_size=n)
    return [[LinearMap(A, A, data.draw(small if n > 4 else grids(n))) for _ in range(rows)]
            for _ in range(rows)]


@given(st.data(), st.sampled_from(["C", "H", "O", "random"]))
def test_inverses_hold_the_canonical_int_form(data, name):
    # LinearMap.inverse of f, and inverse_map_matrix and the quasideterminant
    # recursion of a grid of maps, against the oracle's inverse of the flattening
    A = data.draw(algebras()) if name == "random" else BUILTINS[name]
    n = A.dim
    f = data.draw(grids(n))
    inverse = oracle.inverse(f)
    if inverse is None:
        with pytest.raises(ValueError):
            LinearMap(A, A, f).inverse()
    else:
        view = fraction_grid(inverse)
        assert_deferred(LinearMap(A, A, f).inverse(), LinearMap(A, A, view), view,
                        (id(A), id(A)))
    grid = map_grids(data, A, data.draw(st.integers(1, 2)))
    inverse = oracle.inverse(flatten(MapMatrix(grid)))
    if inverse is None:
        with pytest.raises(SingularSystem):
            inverse_map_matrix(MapMatrix(grid))
        return
    rows = len(grid)
    views = [[fraction_grid(row[j * n:j * n + n] for row in inverse[i * n:i * n + n])
              for j in range(rows)] for i in range(rows)]
    try:
        recursive = _recursive_inverse(grid)
    except MinorSingular:
        recursive = None
    for got in (inverse_map_matrix(MapMatrix(grid)).entries, recursive):
        for got_row, view_row in zip(got or (), views):
            for value, view in zip(got_row, view_row):
                assert_deferred(value, LinearMap(A, A, view), view, (id(A), id(A)))


@given(st.data(), st.sampled_from(["C", "H", "O", "random"]), st.booleans())
def test_additive_solutions_and_witnesses_hold_the_canonical_int_form(data, name, singular):
    # the solution x of M x = b, or for a singular M (a repeated row of maps
    # when ``singular``) the witness w: the oracle's first null vector of M
    A = data.draw(algebras()) if name == "random" else BUILTINS[name]
    n = A.dim
    grid = map_grids(data, A, data.draw(st.integers(1 + singular, 2)))
    if singular:
        grid[-1] = grid[0]
    rhs = [A.element(data.draw(coordinates(n))) for _ in grid]
    flat = flatten(MapMatrix(grid))
    solved = oracle.solve(flat, [v for y in rhs for v in y.coords])
    if solved and solved[0] == len(flat):
        got, vector = solve_additive(MapMatrix(grid), rhs), solved[1]
    else:
        with pytest.raises(SingularSystem) as err:
            solve_additive(MapMatrix(grid), rhs)
        got, vector = err.value.witness, oracle.solve(flat, [ZERO] * len(flat))[2][0]
    for value, view in zip(got, exact.blocks(vector, n), strict=True):
        view = fractions(view)
        assert_deferred(value, A.element(view), view, (id(A),))


@given(st.integers(-40, 40), st.integers(1, 12), st.integers(-40, 40), st.integers(1, 12),
       st.integers(1, 6))
def test_complex_entries_hold_the_canonical_int_form(p, q, r, s, k):
    # 'p/q + r/s*I' with both terms written over k times their denominator
    C = BUILTINS["C"]
    a, b = Fraction(p, q), Fraction(r, s)
    text = f"{k * p}/{k * q} {'-' if r < 0 else '+'} {k * abs(r)}/{k * s}*I"
    view = fraction_grid([[a + b, 0], [0, a - b]])
    assert_deferred(parse_complex_entry(text, C), LinearMap(C, C, view), view, (id(C), id(C)))
