"""The merged classes of the component matrix and the conversions' kernels.

The right order's B(A) is the left order's B(A^op) with column (i, j)
relabelled (j, i), entry for entry.  Its build walks A^op's table, and
``BMatrix.merged`` keeps the walk's classes: a block of full column rank
keeps its columns in the walk's order, so O and O (x) O hold one merged
class in each order, and a block with a free column ascends, so that its
null vectors are those of column order.  ``blocks`` and ``classes`` stay
in ascending columns, as the walk of B itself signs and classes them, each
factor read off the merged one without a second elimination.

The conversions apply each merged class's grid F (``tensor_map``) and its
factor's left matrix (``standard_from_coords``) by the row loop on their
first use and, from the second, by code that ``core.compile_matvec`` makes
once for every class serving two or more blocks.  The kernels must give the
row loop's ints on every grid, a row of more than 256 terms included; a B
whose classes each serve one block compiles nothing; and concurrent first
conversions on a fresh algebra agree, no build calling ``cached`` within
another.
"""

import random
import threading
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from freealg import (LinearMap, NotRepresentable, Tensor2, b_matrix, complex_algebra, exact,
                     octonion_algebra, quaternion_algebra, standard_from_coords, tensor_product)
from freealg import linmap
from freealg.core import FreeAlgebra, compile_matvec, opposite
from freealg.linmap import check_conversion, table_map
from conftest import square_zero
from test_component_blocks import dual_numbers, e_half_minus_3, hh, oc
from test_kernel_properties import algebras, reference_b

ORDERS = ("left", "right")


def some_algebras():
    return algebras() | st.integers(1, 6).map(square_zero)


def row_loop(grid, v):
    return [sum(map(mul, row, v)) for row in grid]


def relabel(c, n):
    return c % n * n + c // n


def check_factor(grid, factor):
    """``exact.factor``'s contract: left invertible, left F the reduced rows
    (den in each pivot column) and then zero rows."""
    pivots, reduced, left, den = factor
    width = len(grid[0]) if grid else 0
    assert exact.rank(left) == len(grid)
    assert ([[sum(e * row[c] for e, row in zip(line, grid)) for c in range(width)]
             for line in left] == [*reduced, *[[0] * width] * (len(grid) - len(pivots))])
    assert all(row[c] == den and all(row[p] == 0 for p in pivots if p != c)
               for row, c in zip(reduced, pivots))


@settings(max_examples=60)
@given(some_algebras())
def test_right_order_b_is_left_order_b_of_the_opposite_relabelled(algebra):
    n = algebra.dim
    right, op_left = b_matrix(algebra, "right"), b_matrix(opposite(algebra), "left")
    assert right.relations() == {key: {(j, i): v for (i, j), v in row.items()}
                                 for key, row in op_left.relations().items()}
    # each merged block of full column rank is A^op's left-order block with its
    # columns relabelled in A^op's order and the same class grid; a block with
    # a free column ascends, its grid's columns and their signs moved with it
    classes = right.merged[0]
    merged = [block for block in linmap._merged_blocks(right) if block[0]]
    assert len(merged) == sum(1 for rows, *_ in op_left.blocks if rows)
    for (rows, cols, rs, cs, m), (rows_op, cols_op, rs_op, cs_op, k) in zip(merged,
                                                                             op_left.blocks):
        f, factor = op_left.classes[k]
        cols_op = [relabel(c, n) for c in cols_op]
        q = sorted(range(len(cols_op)), key=cols_op.__getitem__)
        if len(factor[0]) < len(cols_op):
            cols_op, cs_op = [cols_op[p] for p in q], [cs_op[p] for p in q]
            f = tuple(tuple(row[p] for p in q) for row in f)
        assert (rows, cols, rs, cs, classes[m][0]) == (rows_op, cols_op, rs_op, cs_op, f)
    for f, factor in classes:
        check_factor(f, factor)
    if all(len(factor[0]) == len(f[0]) for f, factor in op_left.classes if f):
        assert len(classes) == len(op_left.classes)


@settings(max_examples=40)
@given(some_algebras(), st.sampled_from(ORDERS))
def test_merged_blocks_are_the_blocks_of_b(algebra, order):
    # the blocks as the conversions read them hold B's entries, each merged
    # class serving blocks of its own shape
    bm = b_matrix(algebra, order)
    classes = bm.merged[0]
    held = {(r, c): s * t * v for rows, cols, rs, cs, m in linmap._merged_blocks(bm)
            for r, s, values in zip(rows, rs, classes[m][0])
            for c, t, v in zip(cols, cs, values) if v}
    assert held == {(r, c): s * t * v for rows, cols, rs, cs, k in bm.blocks
                    for r, s, values in zip(rows, rs, bm.classes[k][0])
                    for c, t, v in zip(cols, cs, values) if v}
    assert all(len(classes[m][0]) == len(rows) for rows, _, _, _, m in linmap._merged_blocks(bm))


def walk_signs(b):
    """Row and column signs of B's blocks as a breadth-first walk of the
    nonzero cells of the dense matrix b signs them: from each row not yet
    reached, ascending, over ascending columns and rows, each new row or
    column signed so that the cell that reaches it is positive."""
    size = len(b)
    rs, cs = [0] * size, [0] * size
    for first in range(size):
        if rs[first]:
            continue
        rs[first], reached = 1, [first]
        for r in reached:
            for c in range(size):
                if b[r][c] and not cs[c]:
                    cs[c] = rs[r] if b[r][c] > 0 else -rs[r]
                    for r2 in range(size):
                        if b[r2][c] and not rs[r2]:
                            rs[r2] = cs[c] if b[r2][c] > 0 else -cs[c]
                            reached.append(r2)
    return rs, [s or 1 for s in cs]


@settings(max_examples=60)
@given(some_algebras(), st.sampled_from(ORDERS))
def test_blocks_are_signed_by_the_walk_of_b(algebra, order):
    # the right order's blocks, read off the walk over A^op, carry the signs
    # the walk of B itself gives, so its classes are those of that walk
    rs, cs = walk_signs(reference_b(algebra, order))
    for rows, cols, block_rs, block_cs, _ in b_matrix(algebra, order).blocks:
        assert block_rs == [rs[r] for r in rows] and block_cs == [cs[c] for c in cols]


def oo():
    return tensor_product([octonion_algebra(), octonion_algebra()])


@pytest.mark.parametrize("make, merged, classes", [
    (complex_algebra, (1, 1), (1, 1)), (quaternion_algebra, (1, 1), (1, 1)),
    (octonion_algebra, (1, 1), (1, 8)), (hh, (1, 1), (1, 1)), (oc, (1, 8), (1, 8)),
    (e_half_minus_3, (4, 4), (4, 4)), (oo, (1, 1), (1, 64))],
    ids=["C", "H", "O", "HH", "OC", "E", "OO"])
def test_merged_class_counts(make, merged, classes, monkeypatch):
    factored = []
    factor = exact.factor
    monkeypatch.setattr(exact, "factor", lambda grid: factored.append(1) or factor(grid))
    algebra = make()
    counts = [b_matrix(algebra, order) for order in ORDERS]
    assert tuple(len(bm.merged[0]) for bm in counts) == merged
    assert tuple(len(bm.classes) for bm in counts) == classes
    # one elimination per merged class: the classes of ascending columns read
    # their factors off the merged ones
    assert len(factored) == sum(merged)
    for bm in counts:  # O (x) O's right order: 8 of its 64 classes, for time
        for f, factor in bm.classes[:8] + bm.merged[0]:
            check_factor(f, factor)


def moved_and_flipped():
    """A unital algebra of dimension 3 whose right-order B is invertible and
    has a block whose columns leave the walk's order with a pivot column
    re-signed -1: a = e_1 and b = e_2 with a a = 1 - a, a b = a / 2 and
    b b = a / 2."""
    half = Fraction(1, 2)
    return FreeAlgebra(3, ["1", "a", "b"],
                       [(0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (1, 0, 1, 1), (1, 1, 0, 1),
                        (1, 1, 1, -1), (1, 2, 1, half), (2, 0, 2, 1), (2, 2, 1, half)],
                       unit_index=0)


def test_a_moved_class_with_a_flipped_pivot_keeps_its_factor():
    algebra = moved_and_flipped()
    bm = b_matrix(algebra, "right")
    assert any(q is not None and q != sorted(q) and -1 in d for _, q, _, d in bm.merged[1])
    for f, factor in bm.classes:
        check_factor(f, factor)
    # the block inverses, read off the factors of ascending columns, invert B
    b, inverse = reference_b(algebra, "right"), bm.inverse_relations()
    for i in range(9):
        row = inverse[divmod(i, 3)]
        assert ([sum(v * b[k * 3 + m][c] for (k, m), v in row.items()) for c in range(9)]
                == [int(c == i) for c in range(9)])
    # the conversions, run on the merged class, substitute back before and
    # after compiling
    rng = random.Random(8)
    for _ in range(3):
        g, t = dense_map(algebra, rng), Tensor2(algebra, dense_map(algebra, rng).coords)
        check_conversion(g, standard_from_coords(g, "right"), "right")
        assert linmap.tensor_map(t, "right") == table_map(t, "right")


def test_a_returned_null_space_is_the_caller_s_own():
    # the null space is built once and cached: a caller that changes the list
    # it was given changes no later answer
    algebra = dual_numbers()
    g = LinearMap.identity(algebra)
    first = standard_from_coords(g)
    first.nullspace.append(first.particular)
    first.nullspace[0] = first.particular
    assert len(standard_from_coords(g).nullspace) == 2
    assert standard_from_coords(g).nullspace[0] != first.particular


@pytest.mark.parametrize("make", [complex_algebra, dual_numbers, oc, octonion_algebra,
                                  e_half_minus_3], ids=["C", "dual", "OC", "O", "E"])
@pytest.mark.parametrize("order", ORDERS)
def test_compiled_kernels_give_the_row_loop(make, order):
    rng = random.Random(35)
    bm = b_matrix(make(), order)
    for f, (_, _, left, _) in bm.merged[0]:
        for grid in (f, left):
            width = len(grid[0]) if grid else 0
            kernel = compile_matvec(grid, "test grid")
            for bits in (3, 80):
                v = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(width)]
                assert kernel(v) == row_loop(grid, v)


@settings(max_examples=40)
@given(some_algebras(), st.sampled_from(ORDERS), st.integers(0, 2 ** 32))
def test_random_kernels_give_the_row_loop(algebra, order, seed):
    rng = random.Random(seed)
    for f, (_, _, left, _) in b_matrix(algebra, order).merged[0]:
        for grid in (f, left):
            v = [rng.randint(-10 ** 15, 10 ** 15) for _ in range(len(grid[0]) if grid else 0)]
            assert compile_matvec(grid, "test grid")(v) == row_loop(grid, v)


def test_a_row_past_256_terms_and_a_long_coefficient_compile():
    # a row of 3000 terms nests its sum in halves, as the compiler fails on a
    # flat chain that long; a coefficient of 5000 digits is bound to a name,
    # as digits past the int-to-str limit would not compile
    rng = random.Random(7)
    big = 10 ** 5000 + 3
    grid = [[rng.choice([1, -1, 2, -7, big, -big]) for _ in range(3000)],
            [0] * 2999 + [-1], [0] * 3000, [int(j % 3 == 0) for j in range(3000)]]
    v = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(3000)]
    assert compile_matvec(grid, "long rows")(v) == row_loop(grid, v)
    assert compile_matvec([(), ()], "no columns")([]) == [0, 0]
    assert compile_matvec([], "no rows")([]) == []


def dense_map(algebra, rng):
    n = algebra.dim
    return LinearMap(algebra, algebra, [[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                         for _ in range(n)] for _ in range(n)])


def results(algebra, order, rng, rounds=3):
    """The int forms of ``rounds`` conversions each way of the same maps."""
    g = dense_map(algebra, rng)
    t = Tensor2(algebra, dense_map(algebra, rng).coords)
    out = []
    for _ in range(rounds):
        try:
            solution = standard_from_coords(g, order)
            out.append((solution.particular.ints, [v.ints for v in solution.nullspace]))
        except NotRepresentable:
            out.append(None)
        out.append(linmap.tensor_map(t, order).ints)
    return out


@pytest.mark.parametrize("make", [complex_algebra, oc, hh], ids=["C", "OC", "HH"])
@pytest.mark.parametrize("order", ORDERS)
def test_conversions_agree_before_and_after_compiling(make, order, monkeypatch):
    compiled = []
    monkeypatch.setattr(linmap, "compile_matvec",
                        lambda grid, label: compiled.append(label) or compile_matvec(grid, label))
    algebra = make()
    first, *later = results(algebra, order, random.Random(3))[0::2]
    assert all(x == first for x in later)
    assert compiled  # the second solve ran compiled kernels
    maps = results(make(), order, random.Random(3))[1::2]
    assert maps == [maps[0]] * 3


def test_shared_classes_compile_from_their_second_use(monkeypatch):
    compiled = []
    monkeypatch.setattr(linmap, "compile_matvec",
                        lambda grid, label: compiled.append(grid) or compile_matvec(grid, label))
    O = octonion_algebra()
    f, (_, _, left, _) = b_matrix(O).merged[0][0]
    g, t = dense_map(O, random.Random(1)), Tensor2.unit(O)
    standard_from_coords(g)
    linmap.tensor_map(t)
    assert compiled == []
    standard_from_coords(g)
    assert compiled == [left]
    linmap.tensor_map(t)
    linmap.tensor_map(t)
    standard_from_coords(g)
    assert compiled == [left, f]


@pytest.mark.parametrize("order", ORDERS)
def test_one_block_classes_compile_nothing(order, monkeypatch):
    def refuse(grid, label):
        raise AssertionError("a class serving one block was compiled")
    monkeypatch.setattr(linmap, "compile_matvec", refuse)
    algebra = e_half_minus_3()  # 4 blocks in 4 classes
    assert len(b_matrix(algebra, order).merged[0]) == 4
    first, *later = results(algebra, order, random.Random(5))
    assert first is not None and all(x == first for x in later[1::2])


def test_concurrent_first_conversions_agree(monkeypatch):
    # each build reads a B already built: none calls ``cached`` while it runs
    nested, inside = [], threading.local()
    cached = FreeAlgebra.cached

    def guarded(self, key, build):
        if getattr(inside, "depth", 0):
            nested.append(key)

        def run():
            inside.depth = getattr(inside, "depth", 0) + 1
            try:
                return build()
            finally:
                inside.depth -= 1
        return cached(self, key, run)

    monkeypatch.setattr(FreeAlgebra, "cached", guarded)
    expected = {order: results(octonion_algebra(), order, random.Random(9)) for order in ORDERS}
    algebra = octonion_algebra()
    start = threading.Barrier(6)
    got = []

    def convert(order):
        start.wait(timeout=60)
        got.append((order, results(algebra, order, random.Random(9))))

    threads = [threading.Thread(target=convert, args=(ORDERS[i % 2],)) for i in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert len(got) == 6 and all(out == expected[order] for order, out in got)
    assert nested == []
