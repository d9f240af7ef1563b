"""The component matrix B, stored as its connected blocks.

``standard_from_coords`` solves B block by block and
``coords_from_standard`` applies it block by block.  The first tests
check both against an in-test plain-``Fraction`` oracle on algebras
whose B has zero rows and zero columns: the dual numbers, a
zero-product algebra, and random algebras from the
``test_kernel_properties.py`` strategy.  A zero row is a block without
columns, which makes a nonzero coordinate there unrepresentable; a zero
column is a block without rows, whose component is free.  The last test
checks the block layout on C, H, O and H (x) H, and that a round trip
and ``repr`` never build the dense view of B and no solve takes more
than n rows.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freealg import (BMatrix, FreeAlgebra, LinearMap, NotRepresentable, Tensor2, b_matrix,
                     complex_algebra, coords_from_standard, exact, octonion_algebra,
                     quaternion_algebra, standard_from_coords, tensor_product)
from test_kernel_properties import algebras, grids, reference_b

ZERO = Fraction(0)


def reference_solve(a, b):
    """(rank, particular, null space) of a x = b by plain Fraction
    Gauss-Jordan, or None when the system is inconsistent.  Free
    variables are 0 in the particular solution; the null space has one
    vector per free column, in column order, with 1 at that column."""
    cols = len(a[0])
    rows = [[*row, v] for row, v in zip(a, b)]
    pivots = []
    for c in range(cols + 1):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    if cols in pivots:
        return None
    particular = [ZERO] * cols
    for row, c in zip(rows, pivots):
        particular[c] = row[cols]
    nullspace = []
    for free in (c for c in range(cols) if c not in pivots):
        v = [ZERO] * cols
        v[free] = Fraction(1)
        for row, c in zip(rows, pivots):
            v[c] = -row[free]
        nullspace.append(v)
    return len(pivots), particular, nullspace


def check_against_oracle(algebra, grid, order):
    n = algebra.dim
    g = LinearMap(algebra, algebra, grid)
    expected = reference_solve(reference_b(algebra, order), [v for row in grid for v in row])
    if expected is None:
        with pytest.raises(NotRepresentable):
            standard_from_coords(g, order)
        return None
    rank, particular, nullspace = expected
    solution = standard_from_coords(g, order)
    assert solution.rank == rank == n * n - len(solution.nullspace)
    assert exact.vec(solution.particular.components) == particular
    assert [exact.vec(t.components) for t in solution.nullspace] == nullspace
    return solution


def dual_numbers():
    """Q[e]/(e^2): B has zero rows and zero columns in both orders."""
    return FreeAlgebra(2, ["1", "e"], [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)],
                       unit_index=0)


@pytest.mark.parametrize("order", ["left", "right"])
def test_dual_numbers_keep_the_zero_rows_and_columns(order):
    algebra = dual_numbers()
    identity = [[Fraction(int(r == c)) for c in range(2)] for r in range(2)]
    solution = check_against_oracle(algebra, identity, order)
    assert (len(solution.nullspace), solution.rank) == (2, 2)
    # row (0, 1) of B is zero: no sandwich sends e to a multiple of 1
    assert check_against_oracle(algebra, [[0, 1], [0, 0]], order) is None


@pytest.mark.parametrize("order", ["left", "right"])
def test_zero_product_algebra_has_every_component_free(order):
    algebra = FreeAlgebra(3, ["a", "b", "c"], [])
    assert b_matrix(algebra, order).rank() == 0
    zero = [[ZERO] * 3 for _ in range(3)]
    solution = check_against_oracle(algebra, zero, order)
    assert (len(solution.nullspace), solution.rank) == (9, 0)
    assert check_against_oracle(algebra, [[0, 0, 0], [0, 0, 1], [0, 0, 0]], order) is None
    t = Tensor2(algebra, [[Fraction(i + j + 1) for j in range(3)] for i in range(3)])
    assert coords_from_standard(t, LinearMap.identity(algebra), order) == LinearMap.zero(algebra)


@settings(max_examples=40)
@given(st.data(), st.sampled_from(["left", "right"]), st.booleans())
def test_blockwise_solve_and_apply_match_the_oracle(data, order, image):
    algebra = data.draw(algebras())
    n = algebra.dim
    b = reference_b(algebra, order)
    t = data.draw(grids(n))
    flat = [sum(x * y for x, y in zip(row, exact.vec(t))) for row in b]
    applied = coords_from_standard(Tensor2(algebra, t), LinearMap.identity(algebra), order)
    assert exact.vec(applied.coords) == flat
    # the image of a tensor is representable even when B is singular
    grid = exact.blocks(flat, n) if image else data.draw(grids(n))
    solution = check_against_oracle(algebra, grid, order)
    assert solution is not None or not image
    assert b_matrix(algebra, order).rank() == reference_solve(b, [ZERO] * (n * n))[0]


def hh():
    H = quaternion_algebra()
    return tensor_product([H, H])


@pytest.mark.parametrize("make", [complex_algebra, quaternion_algebra, octonion_algebra, hh],
                         ids=["C", "H", "O", "HH"])
@pytest.mark.parametrize("order", ["left", "right"])
def test_blocks_partition_b_and_the_round_trip_stays_on_them(make, order, monkeypatch):
    algebra = make()
    n = algebra.dim
    bm = b_matrix(algebra, order)
    assert sorted(r for rows, _, _ in bm.blocks for r in rows) == list(range(n * n))
    assert sorted(c for _, cols, _ in bm.blocks for c in cols) == list(range(n * n))
    assert [(len(rows), len(cols)) for rows, cols, _ in bm.blocks] == [(n, n)] * n
    held = {(r, c): v for rows, cols, grid in bm.blocks
            for r, values in zip(rows, grid) for c, v in zip(cols, values) if v}
    assert held == {(r, c): v for r, row in enumerate(bm.entries) for c, v in enumerate(row) if v}
    if n < 8:
        return

    def no_dense_view(self):
        raise AssertionError("the dense view of B was built")

    sizes = []
    solve = exact.solve

    def recording_solve(a, b):
        sizes.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(BMatrix, "entries", property(no_dense_view))
    monkeypatch.setattr(exact, "solve", recording_solve)
    fresh = make()
    values = [Fraction(k % 7 - 3, k % 5 + 1) for k in range(n * n)]
    g = LinearMap(fresh, fresh, exact.blocks(values, n))
    solution = standard_from_coords(g, order)
    assert coords_from_standard(solution.particular, LinearMap.identity(fresh), order) == g
    assert sizes and max(sizes) <= n
    assert repr(b_matrix(fresh, order)).endswith(f"size={n * n})")
