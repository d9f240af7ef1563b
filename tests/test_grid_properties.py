"""Property tests of the grid work that matrices of maps, the component
matrix and tensor products hand to ``exact``.

Each law is checked against a reference written here, on random
structure-constant algebras of dimension 1 to 4 drawn with the strategy
of ``test_kernel_properties.py``:

- ``cr_product`` against its definition, entry (a, d) = sum_s
  b[s][d] after c[a][s], not against ``rc_product`` on transposes;
- ``transpose`` moves entry (r, c) to (c, r), and a matrix of maps
  reads back the grid it was built from;
- ``orthogonal_residual`` is orthogonal to the basis and differs from
  v by a vector of its row span;
- the constants of a tensor product are the factorwise products of
  the factors' constants at row-major flat indices.

The runs use the derandomized profile of ``conftest.py``.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from freealg import (LinearMap, MapMatrix, compose, cr_product, exact, rc_product,
                     tensor_product)
from test_kernel_properties import SMALL, VALUES, algebras

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
    # a product keeps only its flattening, so its entries are cut from it
    flat = rc_product(m, MapMatrix.identity(algebra, cols))
    for mm in (m, flat):
        assert mm.entries == tuple(tuple(row) for row in grid)
        t = mm.transpose()
        assert (t.rows, t.cols) == (cols, rows)
        assert all(t.entries[c][r] == grid[r][c] for r in range(rows) for c in range(cols))
        assert t.transpose() == m


@settings(max_examples=25)
@given(st.data())
def test_orthogonal_residual_is_orthogonal_and_differs_by_the_span(data):
    n = data.draw(st.integers(1, 4))
    vectors = st.lists(st.one_of(st.just(ZERO), SMALL), min_size=n * n, max_size=n * n)
    basis = []
    for row in data.draw(st.lists(vectors, max_size=n * n)):
        if reference_rank(basis + [row]) > len(basis):
            basis.append(row)
    v = data.draw(vectors)
    residual = exact.orthogonal_residual(basis, v)
    assert all(sum(x * y for x, y in zip(row, residual)) == 0 for row in basis)
    difference = [x - y for x, y in zip(v, residual)]
    assert reference_rank(basis + [difference]) == len(basis)


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
