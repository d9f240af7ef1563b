"""The classes of the component matrix and the conversions' kernels.

The right order's B(A) is the left order's B(A^op) with column (i, j)
relabelled (j, i), entry for entry.  Its build walks A^op's table and keeps
that walk's classes: a block of full column rank keeps its columns in the
walk's order, so O and O (x) O hold one class in each order, and a block
with a free column ascends, so that its null vectors are those of column
order.  Each block carries the signs that a walk of the dense B over the
build's column order gives, and each class grid is eliminated once per
build, the one factor serving both the choice of a block's column order
and the class.

The conversions apply each class's grid F (``tensor_map``) and its
factor's left matrix (``standard_from_coords``) by code that
``core.compile_matvec`` makes on a side's first use for every class serving
two or more blocks, and any other class by the row loop.  That code is made
once per distinct grid of the algebra and shared by both orders and both
sides.  The kernels must give the row loop's ints on every grid, a row of
more than 256 terms included; a B whose classes each serve one block
compiles nothing; and concurrent first conversions on a fresh algebra agree
and compile each distinct shared grid once, no build calling ``cached``
within another.
"""

import random
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from functools import partial
from math import isqrt
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from freealg import (LinearMap, NotRepresentable, Tensor2, b_matrix, complex_algebra, exact,
                     octonion_algebra, quaternion_algebra, standard_from_coords, tensor_inverse,
                     tensor_product, twisted_mul)
from freealg import core, linmap
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
    # each block of full column rank is A^op's left-order block with its
    # columns relabelled in A^op's order and the same class grid; a block with
    # a free column ascends, its grid's columns and their signs moved with it
    classes = right.classes
    blocks = [block for block in right.blocks if block[0]]
    assert len(blocks) == sum(1 for rows, *_ in op_left.blocks if rows)
    for (rows, cols, rs, cs, m), (rows_op, cols_op, rs_op, cs_op, k) in zip(blocks,
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


def walk_signs(b, order):
    """Row and column signs of B's blocks as a breadth-first walk of the
    nonzero cells of the dense matrix b signs them: from each row not yet
    reached, ascending, over ascending rows and over the columns in the
    build's order, each new row or column signed so that the cell that
    reaches it is positive.  The left order's walk takes column (i, j) at
    i n + j and the right order's, over A^op, at j n + i."""
    size = len(b)
    n = isqrt(size)
    columns = sorted(range(size), key=lambda c: c if order == "left" else relabel(c, n))
    rs, cs = [0] * size, [0] * size
    for first in range(size):
        if rs[first]:
            continue
        rs[first], reached = 1, [first]
        for r in reached:
            for c in columns:
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
    # that walk gives, so its classes are those of that walk
    rs, cs = walk_signs(reference_b(algebra, order), order)
    for rows, cols, block_rs, block_cs, _ in b_matrix(algebra, order).blocks:
        assert block_rs == [rs[r] for r in rows] and block_cs == [cs[c] for c in cols]


def oo():
    return tensor_product([octonion_algebra(), octonion_algebra()])


@pytest.mark.parametrize("make, classes", [
    (complex_algebra, (1, 1)), (quaternion_algebra, (1, 1)), (octonion_algebra, (1, 1)),
    (hh, (1, 1)), (oc, (1, 8)), (e_half_minus_3, (4, 4)), (oo, (1, 1))],
    ids=["C", "H", "O", "HH", "OC", "E", "OO"])
def test_merged_class_counts(make, classes, monkeypatch):
    # blocks equal up to signs and the walk's column order share one class
    factored = []
    factor = exact.factor
    monkeypatch.setattr(exact, "factor", lambda grid: factored.append(1) or factor(grid))
    algebra = make()
    counts = [b_matrix(algebra, order) for order in ORDERS]
    assert tuple(len(bm.classes) for bm in counts) == classes
    assert len(factored) == sum(classes)  # one elimination per class
    for bm in counts:
        for f, factor in bm.classes:
            check_factor(f, factor)


@settings(max_examples=100)
@given(algebras(), st.sampled_from(ORDERS))
def test_each_class_grid_is_factored_once_per_build(algebra, order):
    # the walk factors a grid to decide a block's column order, and the
    # classes are factored at the end: a grid met twice, a kept walk class
    # or a moved grid equal to another block's, reuses the one factor
    factored = []
    factor = exact.factor
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact, "factor", lambda grid: factored.append(grid) or factor(grid))
        bm = b_matrix(algebra, order)
    assert len(factored) == len(set(factored))
    assert all(f in factored and kept == factor(f) for f, kept in bm.classes)
    for _, cols, _, _, k in bm.blocks:
        if len(bm.classes[k][1][0]) < len(cols):  # a free column: ascending columns
            assert cols == sorted(cols)


def moved_and_flipped():
    """A unital algebra of dimension 3 whose right-order B is invertible and
    has a block whose columns do not ascend, one of them signed -1: a = e_1
    and b = e_2 with a a = 1 - a, a b = a / 2 and b b = a / 2."""
    half = Fraction(1, 2)
    return FreeAlgebra(3, ["1", "a", "b"],
                       [(0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (1, 0, 1, 1), (1, 1, 0, 1),
                        (1, 1, 1, -1), (1, 2, 1, half), (2, 0, 2, 1), (2, 2, 1, half)],
                       unit_index=0)


def test_a_moved_class_with_a_flipped_pivot_keeps_its_factor():
    algebra = moved_and_flipped()
    bm = b_matrix(algebra, "right")
    assert any(cols != sorted(cols) and -1 in cs for _, cols, _, cs, _ in bm.blocks)
    for f, factor in bm.classes:
        check_factor(f, factor)
    # the block inverses, read off the factors of the walk's columns, invert B
    b, inverse = reference_b(algebra, "right"), bm.inverse_relations()
    for i in range(9):
        row = inverse[divmod(i, 3)]
        assert ([sum(v * b[k * 3 + m][c] for (k, m), v in row.items()) for c in range(9)]
                == [int(c == i) for c in range(9)])
    # the conversions, run on the moved class, substitute back before and
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
    for f, (_, _, left, _) in bm.classes:
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
    for f, (_, _, left, _) in b_matrix(algebra, order).classes:
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


def record_compiles(monkeypatch, pause=0.0):
    """The (label, grid) of each kernel that ``linmap`` compiles from now on,
    each compile held open for ``pause`` seconds."""
    compiled = []

    def record(grid, label):
        compiled.append((label, grid))
        time.sleep(pause)
        return compile_matvec(grid, label)
    monkeypatch.setattr(linmap, "compile_matvec", record)
    return compiled


@pytest.mark.parametrize("make", [complex_algebra, oc, hh], ids=["C", "OC", "HH"])
@pytest.mark.parametrize("order", ORDERS)
def test_conversions_agree_before_and_after_compiling(make, order, monkeypatch):
    # each conversion on compiled kernels gives the ints of the same
    # conversion on a fresh algebra whose every class runs the row loop
    compiled = record_compiles(monkeypatch)
    got = results(make(), order, random.Random(3))
    assert compiled
    monkeypatch.setattr(linmap, "compile_matvec", lambda grid, label: partial(row_loop, grid))
    assert results(make(), order, random.Random(3)) == got


def key(grid):
    return tuple(map(tuple, grid))


def compiled_grids(compiled):
    return [key(grid) for _, grid in compiled]


def shared_grids(algebra):
    """The distinct grids, F and left in both orders, of the classes of B that
    serve two or more blocks, in the order first met."""
    out = []
    for order in ORDERS:
        bm = b_matrix(algebra, order)
        served = Counter(k for *_, k in bm.blocks)
        for k, (f, (_, _, left, _)) in enumerate(bm.classes):
            for grid in (f, left):
                if served[k] > 1 and key(grid) not in out:
                    out.append(key(grid))
    return out


def test_shared_classes_compile_on_their_first_use(monkeypatch):
    # one compile per distinct grid of the algebra: O's F and left are each
    # the same in both orders, so the right order compiles nothing more
    compiled = record_compiles(monkeypatch)
    O = octonion_algebra()
    (f, (_, _, left, _)), = b_matrix(O).classes
    g, t = dense_map(O, random.Random(1)), Tensor2.unit(O)
    standard_from_coords(g)
    assert compiled_grids(compiled) == [key(left)]
    linmap.tensor_map(t)
    assert compiled_grids(compiled) == [key(left), key(f)]
    (f_right, (_, _, left_right, _)), = b_matrix(O, "right").classes
    assert (key(f_right), key(left_right)) == (key(f), key(left)) and key(f) != key(left)
    for _ in range(2):
        for order in ORDERS:
            standard_from_coords(g, order)
            linmap.tensor_map(t, order)
    assert len(compiled) == 2


@pytest.mark.parametrize("make", [quaternion_algebra, hh], ids=["H", "HH"])
def test_h_and_hh_compile_one_class_kernel_in_all(make, monkeypatch):
    # their F is their factor's left, in both orders
    compiled = record_compiles(monkeypatch)
    algebra = make()
    assert len(shared_grids(algebra)) == 1
    for order in ORDERS:
        results(algebra, order, random.Random(4), rounds=2)
    assert compiled_grids(compiled) == shared_grids(algebra)


def test_a_first_tensor_inverse_compiles_one_class_and_one_product_kernel(monkeypatch):
    # the map side's F and the solve side's left are one grid on H, and the
    # twisted products that check the inverse compile H (x) H^op's product
    compiled = record_compiles(monkeypatch)
    products = []
    compile_product = core._compile_product
    monkeypatch.setattr(core, "_compile_product",
                        lambda algebra: products.append(algebra) or compile_product(algebra))
    H = quaternion_algebra()
    t = Tensor2(H, [[Fraction(i * i - 3 * j, j + 1) for j in range(4)] for i in range(4)])
    u = tensor_inverse(t)
    assert len(compiled) == 1 and len(products) == 1
    assert twisted_mul(t, u) == Tensor2.unit(H)


@pytest.mark.parametrize("make", [octonion_algebra, quaternion_algebra, oc],
                         ids=["O", "H", "OC"])
def test_plans_with_equal_grids_hold_one_kernel(make):
    algebra = make()
    kernels = {}  # grid -> the kernel objects that run it, over both orders and sides
    for order in ORDERS:
        bm = b_matrix(algebra, order)
        served = Counter(k for *_, k in bm.blocks)
        for side in ("map", "solve"):
            for k, kernel in enumerate(linmap._plan(bm, side)[1]):
                f, (_, _, left, _) = bm.classes[k]
                if served[k] > 1:
                    kernels.setdefault(key(left if side == "solve" else f), set()).add(kernel)
    assert kernels and all(len(runs) == 1 for runs in kernels.values())
    assert len(kernels) == len(shared_grids(algebra))


@pytest.mark.parametrize("order", ORDERS)
def test_one_block_classes_compile_nothing(order, monkeypatch):
    def refuse(grid, label):
        raise AssertionError("a class serving one block was compiled")
    monkeypatch.setattr(linmap, "compile_matvec", refuse)
    algebra = e_half_minus_3()  # 4 blocks in 4 classes
    assert len(b_matrix(algebra, order).classes) == 4
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
    got = convert_in_threads(octonion_algebra(), 9)
    assert all(out == expected[order] for order, out in got)
    assert nested == []


def test_concurrent_first_conversions_compile_each_shared_class_once(monkeypatch):
    # a side's kernels are built under the algebra's lock, so the threads
    # that wait for the build take its kernels and compile nothing, and a
    # grid compiled for one order or side is not compiled again for the
    # other; each compile is held open while the other threads reach the
    # build, and threads switch often, so that a write to the shared table
    # outside the lock would show as a second compile
    compiled = record_compiles(monkeypatch, pause=0.02)
    algebra = octonion_algebra()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        convert_in_threads(algebra, 4)
    finally:
        sys.setswitchinterval(interval)
    assert len(shared_grids(algebra)) == 2
    assert sorted(compiled_grids(compiled)) == sorted(shared_grids(algebra))


def convert_in_threads(algebra, seed):
    """(order, ``results``) of six threads that start their conversions on
    ``algebra`` together, three in each order."""
    start = threading.Barrier(6)
    got = []

    def convert(order):
        start.wait(timeout=60)
        got.append((order, results(algebra, order, random.Random(seed))))

    threads = [threading.Thread(target=convert, args=(ORDERS[i % 2],)) for i in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert len(got) == 6
    return got
