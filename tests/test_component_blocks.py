"""The component matrix B, stored as its connected blocks.

``standard_from_coords`` solves B block by block and
``coords_from_standard`` applies it block by block.  The first tests
check both against the plain-``Fraction`` oracle of ``oracle.py``, and
its contraction B, on algebras
whose B has zero rows and zero columns: the dual numbers, a
zero-product algebra, and random algebras from the
``test_kernel_properties.py`` strategy.  A zero row is a block without
columns, which makes a nonzero coordinate there unrepresentable; a zero
column is a block without rows, whose component is free.  The next test
checks the block layout on C, H, O and H (x) H, and that a round trip
and ``repr`` never build the dense view of B and no factorisation or
solve takes more than n rows.  The next ones check that generator
discovery and orbit membership, on algebras whose B is singular, read B
only through its blocks and agree with orbits built from the oracle's
contraction, and that membership holds for a map from C into H.

B's blocks are int grids over ``BMatrix.den``.  A guard refuses the
``Fraction`` grid helpers while B is built and ranked, applied, and while
a tensor is inverted.  The complex numbers in the basis (1, i/2) and the
quaternions in the basis (1, i/2, j/2, k/4) put B over den = 16 and 256:
the first checks orbits and membership on a singular B, the second the
block inverses that ``verify tables`` reads.  B is factored once per
sign class of its blocks, when it is built, however often ``rank`` is
asked.

The last tests check the sign classes: every block is its class grid F
under its row and column signs, equal to the oracle's contraction at its
rows and columns, F being the grid its class's factor reduces, with the
class counts of the built-in algebras and O (x) C pinned; a basis
re-signed by +-1 keeps the class grids; the blocks' rows and columns are
the connected components of the contraction's nonzero cells, as an
in-test breadth-first search finds them, in its order, and the dual
numbers pin a zero row's block at its row and a zero column's last,
with their signs and classes; B holds each
class grid once and no block holds one; and each block, rank-deficient,
inconsistent or with a free column of sign -1, solves as the oracle's
``solve`` of that block does.
"""

import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freealg import (BMatrix, FreeAlgebra, LinearMap, NotRepresentable, QuaternionParams,
                     Tensor2, b_matrix,
                     complex_algebra, compose, coords_from_standard, exact, octonion_algebra,
                     orbit_contains, quaternion_algebra, representation_basis,
                     standard_from_coords, tensor_inverse, tensor_product, twisted_mul)
from conftest import block_grids
from test_kernel_properties import algebras, grids
import oracle

ZERO = Fraction(0)


def reference_b(algebra, order):
    """B by the oracle's contraction of the structure constants."""
    return oracle.component_matrix(oracle.table(algebra.constants, algebra.dim), order)


def check_against_oracle(algebra, grid, order):
    n = algebra.dim
    g = LinearMap(algebra, algebra, grid)
    expected = oracle.solve(reference_b(algebra, order), [v for row in grid for v in row])
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
    assert b_matrix(algebra, order).rank() == oracle.rank(b)


def no_dense_view(self):
    raise AssertionError("the dense view of B was built")


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
    assert sorted(r for rows, *_ in bm.blocks for r in rows) == list(range(n * n))
    assert sorted(c for _, cols, *_ in bm.blocks for c in cols) == list(range(n * n))
    assert [(len(rows), len(cols)) for rows, cols, *_ in bm.blocks] == [(n, n)] * n
    held = {(r, c): v for rows, cols, grid in block_grids(bm)
            for r, values in zip(rows, grid) for c, v in zip(cols, values) if v}
    assert held == {(r, c): v for r, row in enumerate(bm.entries) for c, v in enumerate(row) if v}
    if n < 8:
        return
    factored, solved = [], []
    factor, solve = exact.factor, exact.solve_ints
    monkeypatch.setattr(BMatrix, "entries", property(no_dense_view))
    monkeypatch.setattr(exact, "factor", lambda a: factored.append(len(a)) or factor(a))
    monkeypatch.setattr(exact, "solve_ints", lambda a, b: solved.append(len(a)) or solve(a, b))
    fresh = make()
    values = [Fraction(k % 7 - 3, k % 5 + 1) for k in range(n * n)]
    g = LinearMap(fresh, fresh, exact.blocks(values, n))
    solution = standard_from_coords(g, order)
    assert coords_from_standard(solution.particular, LinearMap.identity(fresh), order) == g
    assert factored and max(factored) <= n
    assert not [size for size in solved if size > n]
    assert repr(b_matrix(fresh, order)).endswith(f"size={n * n})")


def truncated_polynomials():
    """Q[x]/(x^4): commutative and associative, B of rank 4 in both orders."""
    return FreeAlgebra(4, ["1", "x", "x^2", "x^3"],
                       [(i, j, i + j, 1) for i in range(4) for j in range(4 - i)], unit_index=0)


def rescaled(algebra, scales):
    """The algebra in the basis e'_i = scales[i] e_i: e'_i e'_j = sum_k
    (s_i s_j / s_k) c_{ij}^k e'_k."""
    return FreeAlgebra(algebra.dim, algebra.labels,
                       [(i, j, k, v * scales[i] * scales[j] / scales[k])
                        for i, j, k, v in algebra.constants], unit_index=algebra.unit_index)


def half_i_complex():
    """C in the basis (1, i/2): e_1^2 = -1/4, so B is held over den = 16; B is singular."""
    return rescaled(complex_algebra(), [1, Fraction(1, 2)])


def reference_orbit(b, g):
    """Column (i, j) is vec(e_i (x) e_j acting on g): row (k, m) is
    sum_p g[p][m] b[(k, p)][(i, j)], b the oracle's contraction."""
    n = g.source.dim
    return [[sum(g.coords[p][m] * b[k * n + p][c] for p in range(n)) for c in range(n * n)]
            for k in range(n) for m in range(n)]


@pytest.mark.parametrize("make, order, count", [
    (complex_algebra, "left", 2), (half_i_complex, "left", 2), (half_i_complex, "right", 2),
    (dual_numbers, "left", 3), (dual_numbers, "right", 3), (truncated_polynomials, "right", 5)],
    ids=["C", "C-half-i-left", "C-half-i-right", "dual-left", "dual-right", "x4-right"])
def test_generator_discovery_reads_b_only_through_its_blocks(make, order, count, monkeypatch):
    monkeypatch.setattr(BMatrix, "entries", property(no_dense_view))
    algebra = make()
    n = algebra.dim
    gens = representation_basis(algebra, order)
    assert len(gens) == count and gens[0] == LinearMap.identity(algebra)
    # each generator widens the span of the orbits before it, and all of
    # them together span every coordinate matrix
    b = reference_b(algebra, order)
    orbits = [reference_orbit(b, g) for g in gens]
    ranks = [oracle.rank([sum(rows, []) for rows in zip(*orbits[:s])])
             for s in range(1, count + 1)]
    assert ranks == sorted(set(ranks)) and ranks[-1] == n * n
    for g in gens:
        t = orbit_contains(g, g, order)
        assert coords_from_standard(t, g, order) == g


def test_orbit_membership_reads_b_only_through_its_blocks(monkeypatch):
    monkeypatch.setattr(BMatrix, "entries", property(no_dense_view))
    H = quaternion_algebra()
    g = LinearMap(H, H, [[Fraction(r * 4 + c - 7, c + 1) for c in range(4)] for r in range(4)])
    for order in ("left", "right"):
        t = orbit_contains(g, LinearMap.identity(H), order)
        assert coords_from_standard(t, LinearMap.identity(H), order) == g
    dual = dual_numbers()
    flip = LinearMap(dual, dual, [[1, 0], [0, -1]])
    for order in ("left", "right"):
        assert orbit_contains(flip, LinearMap.identity(dual), order) is None
        t = orbit_contains(flip.scaled(3), flip, order)
        assert coords_from_standard(t, flip, order) == flip.scaled(3)


@pytest.mark.parametrize("order", ["left", "right"])
def test_orbit_membership_of_a_map_between_algebras(order):
    # f maps C into H: its rows are C.dim long, its orbit columns H.dim * C.dim
    C, H = complex_algebra(), quaternion_algebra()
    f = LinearMap(C, H, [[1, Fraction(1, 2)], [0, 1], [-3, 0], [Fraction(2, 5), 7]])
    t = Tensor2.pure(H.element([1, Fraction(2, 3), -5, 7]), H.element([Fraction(-1, 2), 4, 0, 3]))
    g = coords_from_standard(t + Tensor2.unit(H), f, order)
    found = orbit_contains(g, f, order)
    assert found is not None and coords_from_standard(found, f, order) == g


def refuse_fractions(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Fraction grid was built or multiplied")
    monkeypatch.setattr(exact, "as_fractions", refuse)


@pytest.mark.parametrize("make", [octonion_algebra, hh], ids=["O", "HH"])
@pytest.mark.parametrize("order", ["left", "right"])
def test_conversion_and_tensor_inverse_stay_on_ints(make, order, monkeypatch):
    algebra = make()
    n = algebra.dim
    a = algebra.element([Fraction(k - 2, k + 1) for k in range(n)])
    b = algebra.element([Fraction(3 - k, 2) for k in range(n)])
    t = Tensor2.pure(a, b) + Tensor2.unit(algebra).scaled(Fraction(5, 7))
    f = LinearMap.identity(algebra) + LinearMap.identity(algebra).scaled(Fraction(1, 3))
    H = quaternion_algebra()
    s = Tensor2.pure(H.element([1, Fraction(2, 3), -5, 7]), H.element([Fraction(-1, 2), 4, 0, 3]))
    with monkeypatch.context() as refused:
        refuse_fractions(refused)
        assert b_matrix(algebra, order).rank() == n * n
        g = coords_from_standard(t, f, order)
        u = tensor_inverse(s + Tensor2.unit(H))
    bm = b_matrix(algebra, order)
    assert all(type(v) is int for _, _, grid in block_grids(bm) for row in grid for v in row)
    image = oracle.matmul(bm.entries, [[x] for x in exact.vec(t.components)])
    assert g == compose(LinearMap(algebra, algebra, exact.blocks(exact.vec(image), n)), f)
    assert twisted_mul(u, s + Tensor2.unit(H)) == Tensor2.unit(H)


@pytest.mark.parametrize("order", ["left", "right"])
def test_orbit_membership_over_a_denominator_matches_the_contraction(order, monkeypatch):
    monkeypatch.setattr(BMatrix, "entries", property(no_dense_view))
    algebra = half_i_complex()
    assert b_matrix(algebra, order).den == 16
    b = reference_b(algebra, order)
    # z -> (1 + i) z is in the identity's orbit, conjugation in its own; a
    # map with the wrong ratio of its off-diagonal entries is in neither
    maps = [LinearMap(algebra, algebra, grid) for grid in (
        [[1, Fraction(-1, 2)], [2, 1]], [[1, 0], [0, -1]], [[1, 2], [Fraction(-1, 2), 1]])]
    for f in representation_basis(algebra, order):
        orbit = reference_orbit(b, f)
        for g in maps:
            expected = oracle.solve(orbit, exact.vec(g.coords))
            t = orbit_contains(g, f, order)
            assert (t is None) == (expected is None)
            if t is not None:
                assert exact.vec(t.components) == expected[1]
                assert coords_from_standard(t, f, order) == g


def test_block_inverses_over_a_denominator_invert_b():
    # B of C in the basis (1, i/2) is singular, so the quaternions in the
    # basis (1, i/2, j/2, k/4) stand in: den = 256, B invertible
    algebra = rescaled(quaternion_algebra(), [1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 4)])
    n = algebra.dim
    bm = b_matrix(algebra)
    assert bm.den == 256
    # the block inverses as `verify tables` reads them
    inverse = bm.inverse_relations()
    b = reference_b(algebra, "left")
    for i in range(n * n):
        row = inverse[divmod(i, n)]
        product = [sum(v * b[k * n + m][c] for (k, m), v in row.items()) for c in range(n * n)]
        assert product == [int(c == i) for c in range(n * n)]
    assert (bm.relations()
            == {divmod(r, n): {divmod(c, n): v for c, v in enumerate(values) if v}
                for r, values in enumerate(b)})


def test_b_is_ranked_once_and_a_singular_b_has_no_inverse_relations(monkeypatch):
    factored = []
    factor = exact.factor
    monkeypatch.setattr(exact, "factor", lambda grid: factored.append(grid) or factor(grid))
    bm = b_matrix(octonion_algebra())  # a fresh algebra: its build factors the classes
    assert len(factored) == 1  # one class for O's 8 blocks in the left order
    assert bm.rank() == 64
    assert bm.rank() == 64
    assert len(factored) == 1  # none on either call
    with pytest.raises(ValueError):
        b_matrix(complex_algebra()).inverse_relations()  # rank 2 of 4


def e_half_minus_3():
    """The quaternion algebra E(1/2, -3): B has full rank, its 4 blocks 4 classes."""
    return quaternion_algebra(QuaternionParams(Fraction(1, 2), -3))


def check_block_views(bm):
    """Each block's int grid, D_r F D_c, is ``den`` times the oracle's
    contraction at its rows and columns."""
    b = reference_b(bm.algebra, bm.order)
    for rows, cols, grid in block_grids(bm):
        assert grid == [[b[r][col] * bm.den for col in cols] for r in rows]


def check_sign_classes(bm):
    """Each block of B is D_r F D_c with signs +-1, rs[0] = 1, and F the one
    grid that its class's factor reduces: left invertible, left F the reduced
    rows then zero rows.  Each class has its own F and holds at least one
    block.  Returns the number of classes."""
    check_block_views(bm)
    used = set()
    for rows, cols, rs, cs, k in bm.blocks:
        assert len(rs) == len(rows) and len(cs) == len(cols)
        assert set(rs) | set(cs) <= {1, -1} and rs[:1] in ([], [1])
        f, (pivots, reduced, left, _) = bm.classes[k]
        assert len(f) == len(rows) and all(len(row) == len(cols) for row in f)
        assert oracle.rank(left) == len(rows)
        assert ([[sum(e * row[c] for e, row in zip(line, f)) for c in range(len(cols))]
                 for line in left] == reduced + [[0] * len(cols)] * (len(rows) - len(pivots)))
        used.add(k)
    keys = [f for f, _ in bm.classes]
    assert all(keys.count(key) == 1 for key in keys) and used == set(range(len(keys)))
    return len(keys)


def oc():
    """O (x) C: 16 blocks of rank 8, split over 8 classes in the right order."""
    return tensor_product([octonion_algebra(), complex_algebra()])


def oh():
    return tensor_product([octonion_algebra(), quaternion_algebra()])


@pytest.mark.parametrize("make, counts", [
    (complex_algebra, (1, 1)), (quaternion_algebra, (1, 1)), (hh, (1, 1)),
    (octonion_algebra, (1, 1)), (e_half_minus_3, (4, 4)),
    (dual_numbers, (4, 4)), (truncated_polynomials, (6, 6)), (half_i_complex, (2, 2)),
    (oc, (1, 8))],
    ids=["C", "H", "HH", "O", "E", "dual", "x4", "C-half-i", "OC"])
def test_every_block_is_its_class_grid_under_its_signs(make, counts):
    algebra = make()
    assert tuple(check_sign_classes(b_matrix(algebra, order))
                 for order in ("left", "right")) == counts


@pytest.mark.parametrize("make, signs", [
    (quaternion_algebra, [1, -1, 1, 1]), (octonion_algebra, [1, -1, 1, 1, -1, -1, 1, -1]),
    (e_half_minus_3, [1, 1, -1, -1])], ids=["H-minus-i", "O", "E"])
@pytest.mark.parametrize("order", ["left", "right"])
def test_a_resigned_basis_keeps_the_classes(make, signs, order):
    # e'_i = s_i e_i with s_i = +-1 multiplies entry ((k, m), (i, j)) of B
    # by s_k s_m s_i s_j: the same blocks under other signs, so the same
    # class grids, each block in the same class
    bm, resigned = b_matrix(make(), order), b_matrix(rescaled(make(), signs), order)
    assert check_sign_classes(resigned) == check_sign_classes(bm)
    assert [f for f, _ in resigned.classes] == [f for f, _ in bm.classes]
    assert ([(rows, cols, k) for rows, cols, _, _, k in resigned.blocks]
            == [(rows, cols, k) for rows, cols, _, _, k in bm.blocks])


def grid_cells(obj):
    """The cells of the distinct grids reachable from obj through lists and
    tuples, a grid being a nonempty list or tuple of lists or tuples of ints."""
    seen, stack, cells = set(), [obj], 0
    while stack:
        x = stack.pop()
        if type(x) not in (list, tuple) or id(x) in seen:
            continue
        seen.add(id(x))
        if x and all(type(row) in (list, tuple) and all(type(v) is int for v in row)
                     for row in x):
            cells += sum(map(len, x))
        else:
            stack.extend(x)
    return cells


@pytest.mark.parametrize("make", [oh, oc], ids=["OH", "OC"])
@pytest.mark.parametrize("order", ["left", "right"])
def test_b_holds_each_grid_once(make, order):
    bm = b_matrix(make(), order)
    # a block record is its rows, columns, their signs and its class index
    assert all(type(k) is int and all(type(v) is int for part in parts for v in part)
               for *parts, k in bm.blocks)
    assert grid_cells(bm.blocks) == 0
    # one grid per class, of its blocks' shape: fewer cells than the blocks
    shapes = {k: (len(rows), len(cols)) for rows, cols, _, _, k in bm.blocks}
    assert all(shapes[k] == (len(rows), len(cols)) for rows, cols, _, _, k in bm.blocks)
    assert sorted(shapes) == list(range(len(bm.classes)))
    assert [(len(f), len(f[0])) for f, _ in bm.classes] == [shapes[k] for k in sorted(shapes)]
    cells = sum(rows * cols for rows, cols in shapes.values())
    assert grid_cells([f for f, _ in bm.classes]) == cells
    assert cells < sum(len(rows) * len(cols) for rows, cols, *_ in bm.blocks)
    check_block_views(bm)


@settings(max_examples=40)
@given(algebras(), st.sampled_from(["left", "right"]))
def test_random_blocks_are_their_class_grids_under_their_signs(algebra, order):
    bm = b_matrix(algebra, order)
    assert 1 <= check_sign_classes(bm) <= len(bm.blocks)


def bfs_components(n_rows, n_cols, cells):
    """Components by breadth-first search from each unvisited node, rows
    before columns, so each component comes at its first node."""
    neighbours = {("r", r): set() for r in range(n_rows)}
    neighbours.update({("c", c): set() for c in range(n_cols)})
    for r, c in cells:
        neighbours["r", r].add(("c", c))
        neighbours["c", c].add(("r", r))
    seen, out = set(), []
    for start in [("r", r) for r in range(n_rows)] + [("c", c) for c in range(n_cols)]:
        if start in seen:
            continue
        seen.add(start)
        queue, members = deque([start]), [start]
        while queue:
            for node in neighbours[queue.popleft()]:
                if node not in seen:
                    seen.add(node)
                    queue.append(node)
                    members.append(node)
        out.append((sorted(i for kind, i in members if kind == "r"),
                    sorted(i for kind, i in members if kind == "c")))
    return out


@given(algebras(), st.sampled_from(["left", "right"]))
def test_blocks_are_the_components_of_the_nonzero_cells(algebra, order):
    size = algebra.dim ** 2
    b = reference_b(algebra, order)
    cells = [(r, c) for r in range(size) for c in range(size) if b[r][c]]
    bm = b_matrix(algebra, order)
    assert ([(rows, sorted(cols)) for rows, cols, *_ in bm.blocks]
            == bfs_components(size, size, cells))
    # columns come in the walk's order: over A, ascending; over A^op, whose
    # column (i, j) is B's (j, i), ascending in (j, i), unless the block's
    # class has a free column, when they ascend
    n = algebra.dim
    for rows, cols, *_, k in bm.blocks:
        free = len(bm.classes[k][1][0]) < len(cols)
        walk = sorted(cols, key=lambda c: c if order == "left" else c % n * n + c // n)
        assert cols == (sorted(cols) if free else walk)


@pytest.mark.parametrize("order", ["left", "right"])
def test_a_zero_row_comes_at_its_row_and_a_zero_column_last(order):
    # in the dual numbers row (0, 1) and column (1, 1) of B are zero
    bm = b_matrix(dual_numbers(), order)
    assert bm.blocks == [([0, 3], [0], [1, 1], [1], 0), ([1], [], [1], [], 1),
                         ([2], [1, 2], [1], [1, 1], 2), ([], [3], [], [1], 3)]
    assert [f for f, _ in bm.classes] == [((1,), (1,)), ((),), ((1, 1),), ()]


def check_blocks_against_solve(algebra, order, rng):
    """Solve, through ``standard_from_coords``, maps nonzero on one block's
    rows, and compare with the oracle's ``solve`` of that block: the same
    particular solution and null basis on its columns, or NotRepresentable
    where the block is inconsistent.  Returns (rank-deficient blocks,
    inconsistent solves, blocks with a free column of sign -1 that a pivot
    row reads)."""
    n = algebra.dim
    bm = b_matrix(algebra, order)
    deficient = inconsistent = negative = 0
    for (rows, cols, grid), (*_, cs, k) in zip(block_grids(bm), bm.blocks):
        pivots, reduced, _, _ = bm.classes[k][1]
        free = [c for c in range(len(cols)) if c not in pivots]
        deficient += bool(free)
        negative += any(cs[c] < 0 and any(row[c] for row in reduced) for c in free)
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in cols]
        image = [sum((v * y for v, y in zip(row, x)), ZERO) / bm.den for row in grid]
        for b in ([ZERO] * len(rows), image, [Fraction(rng.randint(-5, 5)) for _ in rows]):
            coords = [ZERO] * (n * n)
            for r, v in zip(rows, b):
                coords[r] = v
            g = LinearMap(algebra, algebra, exact.blocks(coords, n))
            solved = (oracle.solve(grid, [v * bm.den for v in b]) if rows
                      else (0, [ZERO], [[Fraction(1)]]))  # a free component
            if solved is None:
                inconsistent += 1
                with pytest.raises(NotRepresentable):
                    standard_from_coords(g, order)
                continue
            _, particular, basis = solved
            solution = standard_from_coords(g, order)
            found = exact.vec(solution.particular.components)
            assert [found[c] for c in cols] == particular
            assert not any(v for c, v in enumerate(found) if c not in cols)
            here = [exact.vec(t.components) for t in solution.nullspace
                    if not any(v for c, v in enumerate(exact.vec(t.components)) if c not in cols)]
            assert [[v[c] for c in cols] for v in here] == basis
    return deficient, inconsistent, negative


@pytest.mark.parametrize("make", [complex_algebra, dual_numbers, truncated_polynomials,
                                  half_i_complex, e_half_minus_3, oc],
                         ids=["C", "dual", "x4", "C-half-i", "E", "OC"])
@pytest.mark.parametrize("order", ["left", "right"])
def test_each_block_solves_as_exact_solve_does(make, order):
    deficient, inconsistent, negative = check_blocks_against_solve(
        make(), order, random.Random(2101))
    # C's and O (x) C's blocks are singular, with a free column of sign -1
    # that changes the null vector
    assert (deficient > 0 and inconsistent > 0) == (make is not e_half_minus_3)
    assert (negative > 0) == (make in (complex_algebra, half_i_complex, oc))


@settings(max_examples=40)
@given(algebras(), st.sampled_from(["left", "right"]), st.integers(0, 2**32))
def test_random_blocks_solve_as_exact_solve_does(algebra, order, seed):
    check_blocks_against_solve(algebra, order, random.Random(seed))
