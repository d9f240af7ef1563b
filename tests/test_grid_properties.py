"""Property tests of the grid work that matrices of maps, the component
matrix and tensor products hand to ``exact``.

Each law is checked against a reference written here, on random
structure-constant algebras of dimension 1 to 4 drawn with the strategy
of ``test_kernel_properties.py``:

- ``cr_product`` against its definition, entry (a, d) = sum_s
  b[s][d] after c[a][s], not against ``rc_product`` on transposes;
- ``transpose`` moves entry (r, c) to (c, r), and a matrix of maps
  reads back the grid it was built from;
- ``representation_basis`` gives the generators of the plain-Fraction
  algorithm it replaced, ``reference_generators``, on those algebras and
  on square-zero algebras of dimension 2 to 8, in both orders;
- the constants of a tensor product are the factorwise products of
  the factors' constants at row-major flat indices.

The runs use the derandomized profile of ``conftest.py``.
"""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings, strategies as st

from conftest import square_zero
from freealg import (LinearMap, MapMatrix, compose, cr_product, rc_product,
                     representation_basis, tensor_product)
from test_exact import oracle_rref
from test_kernel_properties import VALUES, algebras, reference_b, reference_solve

ZERO = Fraction(0)
SMALL_ALGEBRAS = algebras().filter(lambda a: a.dim <= 4)


def maps(algebra):
    n = algebra.dim
    grid = st.lists(st.lists(VALUES, min_size=n, max_size=n), min_size=n, max_size=n)
    return grid.map(lambda coords: LinearMap(algebra, algebra, coords))


def map_grids(data, algebra, rows, cols):
    return [[data.draw(maps(algebra)) for _ in range(cols)] for _ in range(rows)]


def reference_rank(rows):
    """Rank by plain Fraction elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@settings(max_examples=20)
@given(st.data(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
def test_cr_product_matches_its_definition(data, rows, inner, cols):
    algebra = data.draw(SMALL_ALGEBRAS)
    b = map_grids(data, algebra, inner, cols)
    c = map_grids(data, algebra, rows, inner)
    expected = []
    for a in range(rows):
        row = []
        for d in range(cols):
            entry = compose(b[0][d], c[a][0])
            for s in range(1, inner):
                entry = entry + compose(b[s][d], c[a][s])
            row.append(entry)
        expected.append(tuple(row))
    assert cr_product(MapMatrix(b), MapMatrix(c)).entries == tuple(expected)


@settings(max_examples=30)
@given(st.data(), st.integers(1, 3), st.integers(1, 3))
def test_transpose_moves_each_entry_and_entries_read_back(data, rows, cols):
    algebra = data.draw(SMALL_ALGEBRAS)
    grid = map_grids(data, algebra, rows, cols)
    m = MapMatrix(grid)
    # a product with the identity composes and adds maps; its entries must read back as the grid
    flat = rc_product(m, MapMatrix.identity(algebra, cols))
    for mm in (m, flat):
        assert mm.entries == tuple(tuple(row) for row in grid)
        t = mm.transpose()
        assert (t.rows, t.cols) == (cols, rows)
        assert all(t.entries[c][r] == grid[r][c] for r in range(rows) for c in range(cols))
        assert t.transpose() == m


def reference_generators(algebra, order):
    """The generators by the Fraction algorithm ``representation_basis``
    replaced: from the identity, each pass reduces the rows so far and all
    n^2 orbit columns of the newest generator to reduced row echelon form,
    and adjoins the orthogonal residual of the first e_c outside their
    span, from the normal equations of the rows' Gram matrix, made primitive."""
    n = algebra.dim
    b = reference_b(algebra, order)
    g = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    generators, rows = [g], []
    while True:
        # column q of B is the map of the basis tensor q, which acts on g after it
        terms = [[(p, g[p]) for p in range(n) if b[k * n + p][q]]
                 for q in range(n * n) for k in range(n)]
        rows += [[sum((b[k * n + p][q] * row[m] for p, row in terms[q * n + k]), ZERO)
                  for k in range(n) for m in range(n)] for q in range(n * n)]
        reduced, pivots = oracle_rref(rows, n * n)
        if len(pivots) == n * n:
            return generators
        rows = reduced[:len(pivots)]
        inside = {c for row, c in zip(rows, pivots) if sum(1 for x in row if x) == 1}
        c = next(c for c in range(n * n) if c not in inside)
        sparse = [{k: x for k, x in enumerate(row) if x} for row in rows]
        gram = [[sum((x * s.get(k, ZERO) for k, x in r.items()), ZERO) for s in sparse]
                for r in sparse]
        _, y, _ = reference_solve(gram, [row[c] for row in rows])
        residual = [int(k == c) - sum(yi * row[k] for yi, row in zip(y, rows))
                    for k in range(n * n)]
        den = lcm(*(x.denominator for x in residual))
        ints = [int(x * den) for x in residual]
        scale = gcd(*ints) * (1 if next(filter(None, ints)) > 0 else -1)
        g = [[Fraction(x // scale) for x in ints[i * n:i * n + n]] for i in range(n)]
        generators.append(g)


@settings(max_examples=30)
@given(algebras(unital=True) | st.integers(2, 8).map(square_zero),
       st.sampled_from(["left", "right"]))
def test_basis_matches_the_fraction_algorithm_it_replaced(algebra, order):
    want = reference_generators(algebra, order)
    assert [g.coords for g in representation_basis(algebra, order)] == [
        tuple(map(tuple, g)) for g in want]


def reference_constants(factors):
    """Factorwise products of the constants, at row-major flat indices."""
    out = {(0, 0, 0): Fraction(1)}
    for a in factors:
        out = {(i * a.dim + fi, j * a.dim + fj, k * a.dim + fk): v * fv
               for (i, j, k), v in out.items() for fi, fj, fk, fv in a.constants}
    return tuple(sorted((i, j, k, v) for (i, j, k), v in out.items()))


@settings(max_examples=40)
@given(st.lists(SMALL_ALGEBRAS, min_size=2, max_size=3))
def test_tensor_product_constants_are_factorwise_products(factors):
    assert tensor_product(factors).constants == reference_constants(factors)


@settings(max_examples=120)
@given(algebras(unital=True), st.sampled_from(["left", "right"]))
def test_basis_generators_are_primitive_int_rows(algebra, order):
    # the adjoined residual is scaled to coprime ints with a positive first
    # nonzero entry, so its orbit has one representative however it was found
    for g in representation_basis(algebra, order):
        nums, den = g.ints
        assert den == 1
        assert gcd(*nums) == 1
        assert next(filter(None, nums)) > 0
