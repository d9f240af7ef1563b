"""Linear mappings of free algebras as exact coordinate matrices.

A map f is stored as its target.dim x source.dim matrix f[i][j] with
(f x)^i = sum_j f[i][j] x^j, row by row in the int form of ``exact.IntForm``,
so ``compose``, ``apply``, ``+`` and the shifts run on ints alone and
``LinearMap.coords``, the grid of Fractions, is built on first read.  The
n^2 x n^2 component matrix links a map's coordinates to its standard
components f^{ij} in the sandwich expansion

    f(x) = sum_{i,j} f^{ij} (e_i x) e_j        (order="left")
    f(x) = sum_{i,j} f^{ij} e_i (x e_j)        (order="right")

and is built in one walk of the graph of its nonzero cells, which finds
its connected blocks and signs each block's rows and columns as it goes:
each block is its class grid F, an int grid over one denominator, under
those signs; each class is held and eliminated once, when B is built.
The two nesting orders coincide in associative algebras; "left" is the
default everywhere.  The right order is the left order over A^op with i
and j swapped, as e_i (x e_j) = (e_j . x) . e_i when x . y = y x, so one
walk builds both: over A's row table of constants, or over A^op's, which
is A's column table, whose column (i, j) is B's column (j, i).  The walk
sets each right-order block's column order as it finds the block: kept in
the walk's order, the blocks fall into the classes of B(A^op), one on O
and O (x) O; only a block whose walk grid has a free column ascends.
B is read, solved and applied only through the blocks, on ints up to the
values returned: B vec(t) gathers a block's signed entries ts of vec(t)
once and takes F ts, and the solve takes left b with its class's factor.
A class that serves two or more blocks runs its mat-vec as straight-line
code compiled on first use, once per distinct grid of the algebra for both
orders and both sides, any other the row loop ``sum(map(mul, row, ts))``.

Coordinate matrices and component grids are vectorized row by row by
``exact.vec``: target coordinate or i outer, source coordinate or j inner.

Tensor2, the standard components, lives here with the conversions that
build and read it; imports run one way, exact <- core <- linmap <- tensor.
``table_map`` sums a tensor's map off the tables of constants, never B, in
one walk over the tensor's nonzero lines, so that ``check_conversion`` and
``orbit_contains`` can substitute B's answers back.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, partial
from math import lcm
from operator import itemgetter, mul
from typing import NamedTuple, Optional

from . import exact
from .core import AlgElement, FreeAlgebra, compile_matvec, product_ints, shared_algebra
from .errors import (AlgebraMismatch, InvalidAlgebra, NoUnit, NotRepresentable,
                     SubstitutionCheckFailed)
from .exact import IntForm, frac

_ORDERS = ("left", "right")


def _check_order(order: str) -> str:
    if order not in _ORDERS:
        raise ValueError(f"nesting order must be one of {_ORDERS}, got {order!r}")
    return order


class LinearMap(IntForm):
    """A linear map between free algebras, as a rational matrix."""

    __slots__ = ()
    _GRID = True
    _MISMATCH = "maps act on different algebras"

    def __init__(self, source: FreeAlgebra, target: FreeAlgebra, coords):
        if len(coords) != target.dim or any(len(row) != source.dim for row in coords):
            raise ValueError(
                f"coordinate matrix must be {target.dim}x{source.dim}")
        super().__init__((source, target), tuple(tuple(frac(v) for v in row) for row in coords))

    @classmethod
    def identity(cls, algebra: FreeAlgebra) -> "LinearMap":
        ones = tuple(int(i == j) for i in range(algebra.dim) for j in range(algebra.dim))
        return cls._of((algebra, algebra), (ones, 1))

    @classmethod
    def zero(cls, algebra: FreeAlgebra) -> "LinearMap":
        return cls._of((algebra, algebra), ((0,) * algebra.dim ** 2, 1))

    source = property(lambda self: self._space[0])
    target = property(lambda self: self._space[1])
    coords = property(IntForm._fractions)

    def is_endomorphism(self) -> bool:
        return self.source is self.target

    def inverse(self) -> "LinearMap":
        """The inverse map, on ints: that of nums / den is den nums^-1; ValueError
        as ``exact.invert_ints`` raises."""
        nums, den = self.ints
        inv, inv_den = exact.invert_ints(exact.blocks(nums, self.source.dim))
        return LinearMap._of(self._space[::-1], ([x * den for x in inv], inv_den))

    def __repr__(self) -> str:
        return f"LinearMap({self.target.dim}x{self.source.dim})"


def apply(f: LinearMap, x: AlgElement) -> AlgElement:
    """Matrix-vector action of f on x."""
    if x.algebra is not f.source:
        raise AlgebraMismatch("element is not in the map's source algebra")
    (fs, f_den), (xs, x_den) = f._form, x._form
    out = [sum(map(mul, row, xs)) for row in exact.blocks(fs, len(xs))]
    return AlgElement._of((f.target,), (out, f_den * x_den))


def compose(g: LinearMap, f: LinearMap) -> LinearMap:
    """g after f; coordinates multiply as matrices."""
    if f.target is not g.source:
        raise AlgebraMismatch("compose needs f.target == g.source")
    (gs, g_den), (fs, f_den) = g._form, f._form
    n = f.source.dim
    product = exact.int_mat_mul(exact.blocks(gs, g.source.dim), exact.blocks(fs, n), n)
    return LinearMap._of((f.source, g.target), (exact.vec(product), g_den * f_den))


def _shift_columns(algebra: FreeAlgebra, xs, right: bool = False) -> list[list[int]]:
    """The columns a e_j, or e_j a with ``right``, over a's denominator times D, not
    reduced: one walk of A's table, or its column table, over a's numerators ``xs``."""
    cols, terms = [[0] * len(xs) for _ in xs], algebra.terms(opposite=right)
    for i, x in enumerate(xs):
        if x:
            for j, k, v in terms[i]:
                cols[j][k] += x * v
    return cols


def _from_columns(algebra: FreeAlgebra, cols, den: int, factors: int = 1) -> LinearMap:
    return LinearMap._of((algebra, algebra), (exact.vec(zip(*cols)),
                                              den * algebra.denominator ** factors))


def left_shift(a: AlgElement) -> LinearMap:
    """The map x -> a x."""
    nums, den = a._form  # read once: a first ``ints`` read elsewhere may replace it
    return _from_columns(a.algebra, _shift_columns(a.algebra, nums), den)


def right_shift(a: AlgElement) -> LinearMap:
    """The map x -> x a."""
    nums, den = a._form
    return _from_columns(a.algebra, _shift_columns(a.algebra, nums, True), den)


def left_associator_map(a: AlgElement, b: AlgElement) -> LinearMap:
    """The map x -> (a, b, x) = (ab) x - a (b x); measures the failure of l(a)l(b) = l(ab)."""
    algebra, (xs, a_den), (ys, b_den) = shared_algebra(a, b), a._form, b._form
    ab = product_ints(algebra, xs, ys, a_den, b_den)
    cols = [[p - q for p, q in zip(ab_e, product_ints(algebra, xs, b_e, a_den, b_den))]
            for ab_e, b_e in zip(_shift_columns(algebra, ab), _shift_columns(algebra, ys))]
    return _from_columns(algebra, cols, a_den * b_den, 2)


def right_associator_map(b: AlgElement, a: AlgElement) -> LinearMap:
    """The map x -> (x, b, a) = (x b) a - x (ba); measures the failure of r(a)r(b) = r(ba)."""
    algebra, (ys, b_den), (zs, a_den) = shared_algebra(b, a), b._form, a._form
    ba = product_ints(algebra, ys, zs, b_den, a_den)
    cols = [[p - q for p, q in zip(product_ints(algebra, e_b, zs, b_den, a_den), e_ba)]
            for e_b, e_ba in zip(_shift_columns(algebra, ys, True),
                                 _shift_columns(algebra, ba, True))]
    return _from_columns(algebra, cols, a_den * b_den, 2)


def sandwich(a: AlgElement, f: LinearMap, b: AlgElement, order: str = "left") -> LinearMap:
    """The map x -> (a f(x)) b for order="left", x -> a (f(x) b) for "right".

    The two coincide when the target algebra is associative.
    """
    _check_order(order)
    if a.algebra is not f.target or b.algebra is not f.target:
        raise AlgebraMismatch("sandwich factors must live in the map's target algebra")
    if order == "left":
        return compose(right_shift(b), compose(left_shift(a), f))
    return compose(left_shift(a), compose(right_shift(b), f))


class Tensor2(IntForm):
    """An element of A (x) A in standard components, carrying the twisted
    product: it is this object that acts on linear maps."""

    __slots__ = ()
    _GRID = True
    _MISMATCH = "tensors over different algebras"

    def __init__(self, algebra: FreeAlgebra, components):
        n = algebra.dim
        if len(components) != n or any(len(row) != n for row in components):
            raise ValueError(f"components must form an {n}x{n} grid")
        super().__init__((algebra,), tuple(tuple(frac(v) for v in row) for row in components))

    @classmethod
    def basis_tensor(cls, algebra: FreeAlgebra, i: int, j: int) -> "Tensor2":
        n = algebra.dim
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidAlgebra(f"basis tensor index ({i},{j}) out of range for dim {n}")
        return cls._of((algebra,), (tuple(int(k == i * n + j) for k in range(n * n)), 1))

    @classmethod
    def pure(cls, a: AlgElement, b: AlgElement) -> "Tensor2":
        if a.algebra is not b.algebra:
            raise AlgebraMismatch("both parts must share one algebra")
        (an, ad), (bn, bd) = a._form, b._form
        return cls._of((a.algebra,), ([x * y for x in an for y in bn], ad * bd))

    @classmethod
    def unit(cls, algebra: FreeAlgebra) -> "Tensor2":
        if algebra.unit_index is None:
            raise NoUnit("unit tensor needs a unital algebra")
        return cls.basis_tensor(algebra, algebra.unit_index, algebra.unit_index)

    algebra = property(lambda self: self._space[0])
    components = property(IntForm._fractions)

    def __repr__(self) -> str:
        return f"Tensor2(dim={self.algebra.dim})"


class BMatrix(NamedTuple):
    """The n^2 x n^2 matrix linking coordinates to standard components.

    Row (k, m) and column (i, j) hold the coefficient of f^{ij} in the
    (k, m) coordinate entry of x -> sum f^{ij} (e_i x) e_j (left order)
    or x -> sum f^{ij} e_i (x e_j) (right order).

    It is held only as the connected blocks of its nonzero graph, each
    D_r F D_c with F its class grid and D_r, D_c diagonal signs.  One walk
    finds them: breadth first from each row not yet reached, in ascending
    order, over ascending columns and rows, setting signs that make the
    walk's spanning tree positive (rs[0] = 1), so blocks equal up to signs
    share F; the zero columns come last.  ``blocks`` lists (rows, cols,
    rs, cs, k), the block's rows and columns, their signs and the index
    of its class, and ``classes`` lists (F, factor), F the int grid
    holding ``den`` times the entries up to signs, den the square of the
    algebra's denominator, and factor a reduction of F as ``exact.factor``
    gives it, made once per build for each grid; every entry outside the
    blocks is zero.  A zero row is a block without columns and a zero column
    one without rows.

    The right order's walk runs over A^op and sets each block's column order
    as it finds the block: B's columns (j, i) in that walk's order (i, j),
    unless the walk's grid has a free column, when they ascend and the grid's
    columns move with them, so that its free columns, particular solution
    and null vectors are those of column order.  Only
    this module reads the blocks: other modules read B and B^-1 as
    ``relations`` and ``inverse_relations``.  ``entries``, a dense view
    rebuilt on each read, is for callers outside the library.
    """

    algebra: FreeAlgebra
    order: str
    blocks: list
    classes: list

    den = property(lambda self: self.algebra.denominator ** 2)

    @property
    def entries(self) -> list[list[Fraction]]:
        n, relations = self.algebra.dim, self.relations()
        return [[relations[divmod(r, n)].get(divmod(c, n), exact.ZERO) for c in range(n * n)]
                for r in range(n * n)]

    def relations(self, only=None) -> dict:
        """Row (k, m) of B -> {(i, j): its nonzero entry in column (i, j)}, for every
        row, or with ``only``, a set of indices k n + m, for its rows and columns."""
        return _relations([(rows, cols, rs, cs, self.classes[k][0], 1, self.den)
                           for rows, cols, rs, cs, k in self.blocks], self.algebra.dim, only)

    def inverse_relations(self) -> dict:
        """The rows of B^-1 as ``relations`` gives B's; ValueError when a block is singular."""
        parts = []
        for rows, cols, rs, cs, k in self.blocks:
            pivots, _, left, den = self.classes[k][1]
            if not len(rows) == len(cols) == len(pivots):
                raise ValueError("the component matrix is singular")
            # D_r F D_c over self.den inverts to self.den D_c F^-1 D_r, F^-1 = left / den
            parts.append((cols, rows, cs, rs, left, self.den, den))
        return _relations(parts, self.algebra.dim)

    def rank(self) -> int:
        return sum(len(self.classes[k][1][0]) for *_, k in self.blocks)

    def __repr__(self) -> str:
        return f"BMatrix({self.algebra!r}, order={self.order}, size={self.algebra.dim ** 2})"


def _relations(parts, n: int, only=None) -> dict:
    """Row (k, m) -> {(i, j): nonzero entry} of an n^2 x n^2 matrix of blocks
    (rows, cols, rs, cs, grid, num, den), the entries D_r grid D_c * num / den;
    with ``only``, a set of indices k n + m, only its rows and columns."""
    out, only = {}, range(n * n) if only is None else only
    for rows, cols, rs, cs, grid, num, den in parts:
        at = [j for j, c in enumerate(cols) if c in only]
        keys = [divmod(cols[j], n) for j in at]
        scales = [cs[j] * num for j in at]
        for r, s, values in zip(rows, rs, grid):
            if r in only:
                nums = [s * t * values[j] for t, j in zip(scales, at)]
                out[divmod(r, n)] = {key: v for key, x, v in
                                     zip(keys, nums, exact.as_fractions(nums, den)) if x}
    return out


def b_matrix(algebra: FreeAlgebra, order: str = "left") -> BMatrix:
    """Build (and cache on the algebra, per order) the component matrix."""
    _check_order(order)
    return algebra.cached(("b_matrix", order), lambda: _build_b_matrix(algebra, order))


def _build_b_matrix(algebra: FreeAlgebra, order: str) -> BMatrix:
    n = algebra.dim
    # the left order over A, or over A^op for the right order, whose walk
    # column (i, j) at i n + j is B's column (j, i), at to_b[i n + j]
    left = order == "left"
    table = algebra.terms(opposite=not left)
    to_b = range(n * n) if left else [c % n * n + c // n for c in range(n * n)]
    factor = cache(exact.factor)  # each class grid is eliminated once per build
    # coefficient of f^{ij} in coordinate (k, m): sum_p B[i][m][p] B[p][j][k], over den^2
    cells: list[dict[int, int]] = [{} for _ in range(n * n)]  # row -> {column: sum}
    for i, row in enumerate(table):
        for m, p, v1 in row:
            for j, k, v2 in table[p]:
                line, c = cells[k * n + m], i * n + j
                line[c] = line.get(c, 0) + v1 * v2
    col_rows: list[list[int]] = [[] for _ in range(n * n)]  # column -> its rows, ascending
    for r, line in enumerate(cells):
        cells[r] = line = {c: line[c] for c in sorted(line) if line[c]}  # sums can cancel to 0
        for c in line:
            col_rows[c].append(r)
    rs, cs = [0] * (n * n), [0] * (n * n)  # row and column signs, 0 until walked
    index: dict[tuple, int] = {}  # class grid -> its index, in the order first met
    blocks = []
    for first in range(n * n):  # each block from its first row; zero columns come last
        if rs[first]:
            continue
        rs[first], rows, cols = 1, [first], []
        # breadth first in ascending order; the signs make a spanning tree positive,
        # so blocks equal up to row and column signs get one class grid F
        for r in rows:
            for c, v in cells[r].items():
                if not cs[c]:
                    cs[c] = rs[r] if v > 0 else -rs[r]
                    cols.append(c)
                    for r2 in col_rows[c]:
                        if not rs[r2]:
                            rs[r2] = cs[c] if cells[r2][c] > 0 else -cs[c]
                            rows.append(r2)
        rows.sort()
        cols.sort()
        f = tuple(tuple(rs[r] * cs[c] * cells[r].get(c, 0) for c in cols) for r in rows)
        signs, cols = [cs[c] for c in cols], [to_b[c] for c in cols]
        # B's columns in the walk's order keep the walk's class, unless it has a
        # free column: then they ascend, so that its free columns, particular
        # solution and null vectors are those of column order
        if cols != sorted(cols) and len(factor(f)[0]) < len(cols):
            q = sorted(range(len(cols)), key=cols.__getitem__)
            cols, signs = [cols[p] for p in q], [signs[p] for p in q]
            f = tuple(map(itemgetter(*q), f))
        blocks.append((rows, cols, [rs[r] for r in rows], signs, index.setdefault(f, len(index))))
    del cells, col_rows  # not held while the classes left are factored
    zero = sorted(to_b[c] for c in range(n * n) if not cs[c])
    if zero:  # last, in B's column order
        k = index.setdefault((), len(index))
        blocks += [([], [c], [], [1], k) for c in zero]
    return BMatrix(algebra, order, blocks, [(f, factor(f)) for f in index])


class StandardSolution:
    """Solution set of the components-from-coordinates system.

    ``particular`` is one tensor of standard components reproducing the
    requested map; ``nullspace`` spans the homogeneous solutions (every
    particular + combination reproduces the same map).  ``rank``, the
    rank of the component matrix, is read off the null space: n^2 minus
    its size.  The solution is unique iff nullspace is empty.
    """

    __slots__ = ("particular", "nullspace")

    def __init__(self, particular: Tensor2, nullspace: list[Tensor2]):
        self.particular = particular
        self.nullspace = nullspace

    rank = property(lambda self: self.particular.algebra.dim ** 2 - len(self.nullspace))

    def is_unique(self) -> bool:
        return not self.nullspace

    def __repr__(self) -> str:
        return f"StandardSolution(rank={self.rank}, nullity={len(self.nullspace)})"


def tensor_map(t: Tensor2, order: str = "left") -> LinearMap:
    """t's map x -> sum t^{ij} e_i x e_j with the chosen nesting: B vec(t),
    reshaped, skipping the blocks whose entries of vec(t) are all 0."""
    algebra = t.algebra
    bm = b_matrix(algebra, order)
    steps, kernels = _plan(bm, "map")
    tvec, t_den = t._form
    gvec = [0] * len(tvec)
    for rows, cols, rs, cs, k in steps:
        ts = [t * tvec[c] for t, c in zip(cs, cols)]
        if any(ts):  # else the block's rows stay 0
            for r, s, v in zip(rows, rs, kernels[k](ts)):
                gvec[r] = s * v
    return LinearMap._of((algebra, algebra), (gvec, bm.den * t_den))


def _plan(bm: BMatrix, side: str) -> tuple:
    """(plan, kernels) of one side of the conversions, "map" or "solve": the
    plan, B's blocks or ``_solve_plan`` of B, and per class k the mat-vec of
    its grid F or of its factor's left, built from B alone on the side's
    first use, without calling ``cached``, and cached beside B.  A class
    serving two or more blocks runs ``core.compile_matvec``'s code: on 2
    CPUs it takes 0.15-0.5x the row loop's time and pays back after 40-100
    applications (4-12 ms for O (x) O's 64 x 64 grids, about what their 64
    blocks save in one conversion), and a one-block class, as each of a
    generic E(a, b)'s four, would run its code once per conversion.  Code is
    made once per distinct grid of the algebra, in one table that both orders
    and both sides share: O compiles F and left, H and H (x) H one grid."""
    codes = bm.algebra.cached("class kernels", dict)  # grid -> its code, read before the build

    def build():  # under the algebra's lock, as every write to ``codes`` is
        served, kernels = Counter(k for *_, k in bm.blocks), []
        for k, (f, factor) in enumerate(bm.classes):
            grid = factor[2] if side == "solve" else f
            if served[k] < 2:
                kernels.append(partial(_row_loop, grid))
            else:  # the code of an equal grid, of either order or side, or new code
                key = tuple(map(tuple, grid))
                kernels.append(codes.get(key) or codes.setdefault(key, compile_matvec(
                    grid, f"a class grid of {bm.algebra!r}")))
        return _solve_plan(bm) if side == "solve" else bm.blocks, kernels
    return bm.algebra.cached(("b_matrix", bm.order, side), build)


def _row_loop(grid, v) -> list[int]:
    return [sum(map(mul, row, v)) for row in grid]


def table_map(t: Tensor2, order: str = "left") -> LinearMap:
    """t's map, as ``tensor_map`` gives it, summed straight off the
    algebra's tables of constants without reading B: the check that the
    conversions substitute back.  Left order, for each nonzero t^{ab},
    e_a e_m = v1 e_p and e_p e_b = v2 e_k add t^{ab} v1 v2 at (k, m); the
    right order is the same walk over A^op's table, A's column table, with
    t^{ba} in place of t^{ab}.  One walk over t's lines, rows in the left
    order and columns in the right, skipping a line that is all 0."""
    _check_order(order)
    algebra, n = t.algebra, t.algebra.dim
    left = order == "left"
    table = algebra.terms(opposite=not left)
    tvec, t_den = t._form
    out = [0] * (n * n)
    for a, line in enumerate(table):
        ts = tvec[a * n:(a + 1) * n] if left else tvec[a::n]
        if any(ts):
            for m, p, v1 in line:
                for b, k, v2 in table[p]:
                    if ts[b]:
                        out[k * n + m] += ts[b] * v1 * v2
    return LinearMap._of((algebra, algebra), (out, algebra.denominator ** 2 * t_den))


def check_conversion(g: LinearMap, solution: StandardSolution, order: str = "left") -> None:
    """SubstitutionCheckFailed unless ``table_map`` takes the particular
    tensor of ``standard_from_coords(g, order)`` to g and every null vector
    to the zero map: one walk of the tables per tensor, a null vector's
    map read by ``is_zero``, without reducing it."""
    if table_map(solution.particular, order) != g:
        raise SubstitutionCheckFailed("standard components fail substitution: "
                                      "the particular tensor does not give the map")
    for idx, t in enumerate(solution.nullspace):
        if not table_map(t, order).is_zero():
            raise SubstitutionCheckFailed(f"standard components fail substitution: "
                                          f"null vector {idx} does not give the zero map")


def coords_from_standard(t: Tensor2, f: LinearMap, order: str = "left") -> LinearMap:
    """Coordinate matrix of g = t acting on f, g(x) = sum t^{ij} e_i f(x) e_j
    with the chosen nesting: t's map, ``tensor_map``, composed with f."""
    _check_order(order)
    if t.algebra is not f.target:
        raise AlgebraMismatch("tensor and map must share the target algebra")
    return compose(tensor_map(t, order), f)


def standard_from_coords(g: LinearMap, order: str = "left") -> StandardSolution:
    """Solve for all standard components reproducing the endomorphism g.

    Raises NotRepresentable when g lies outside the image of the
    component matrix (for the complex numbers this rejects conjugation:
    only genuinely complex-linear maps are representable).

    Each block D_r F D_c is solved on ints by signed mat-vecs with its
    class's factor (pivots, reduced, left, den).  With b' = D_r b,
    the block is consistent iff left[i] b' = 0 past the rank; its particular
    solution is D_c y, y = left[i] b' / den at pivot i and 0 at the free
    columns, and free column fc has the null vector that is 1 at fc and
    -s_fc s_c reduced[i][fc] / den at pivot c.  Column signs keep the pivot
    columns, a block whose columns do not ascend has no free column, so a
    unique solution, and the reduced row echelon form of a
    block-diagonal matrix is its blockwise form, so this is one
    ``exact.solve_ints`` of the whole matrix; null-space vectors come
    sorted by their free column, their last nonzero.  What B alone gives,
    lead, each block's signed scales and the null space, is built once, on
    the first conversion, and cached beside B.
    """
    _check_order(order)
    if not g.is_endomorphism():
        raise AlgebraMismatch("standard components are defined for endomorphisms")
    algebra = g.source
    bm = b_matrix(algebra, order)
    (lead, steps, nullspace), kernels = _plan(bm, "solve")
    gvec, g_den = g.ints
    particular = [0] * len(gvec)
    for rows, rs, k, rank, pivots, scales in steps:
        b = [s * gvec[r] for s, r in zip(rs, rows)]
        if any(b):  # else the block's components stay 0
            y = kernels[k](b)
            if any(y[rank:]):
                raise NotRepresentable(
                    "coordinate matrix is not in the image of the component matrix")
            for c, scale, v in zip(pivots, scales, y):
                particular[c] = scale * v
    return StandardSolution(Tensor2._of((algebra,), (particular, lead * g_den)),
                            list(nullspace))


def _solve_plan(bm: BMatrix) -> tuple[int, list, list]:
    """What ``standard_from_coords`` reads of B: lead, the lcm of the class
    denominators; per block (rows, their signs, its class, its rank, its
    pivot columns, their signs times the block's scale); and the null
    space, sorted by the free column of each vector."""
    n, classes = bm.algebra.dim, bm.classes
    lead = lcm(*(den for _, (*_, den) in classes))
    steps, nullspace = [], []
    for rows, cols, rs, cs, k in bm.blocks:
        pivots, reduced, _, den = classes[k][1]
        # the blocks solve B y = g den on ints; x = y / g_den solves (B / den) x = g / g_den
        scale = bm.den * (lead // den)
        steps.append((rows, rs, k, len(pivots), [cols[c] for c in pivots],
                      [cs[c] * scale for c in pivots]))
        for fc in sorted(set(range(len(cols))).difference(pivots)):
            v = [0] * (n * n)
            v[cols[fc]] = den
            for c, row in zip(pivots, reduced):
                v[cols[c]] = -cs[fc] * cs[c] * row[fc]
            nullspace.append(Tensor2._of((bm.algebra,), (v, den)))
    nullspace.sort(key=lambda t: max(c for c, value in enumerate(t._form[0]) if value))
    return lead, steps, nullspace


def _orbit_columns(f: LinearMap, order: str, pairs) -> list[tuple[tuple[int, ...], int]]:
    """The int forms of the columns vec(e_i (x) e_j acting on f), (i, j) in ``pairs``:
    the map of e_i (x) e_j, column (i, j) of B, composed with f."""
    algebra, n = f.target, f.target.dim
    bm = b_matrix(algebra, order)
    where = {c: (rows, rs, t, bm.classes[k][0], p)
             for rows, cols, rs, cs, k in bm.blocks for p, (c, t) in enumerate(zip(cols, cs))}
    out = []
    for i, j in pairs:
        rows, rs, t, grid, p = where[i * n + j]
        gvec = [0] * (n * n)
        for r, s, values in zip(rows, rs, grid):
            gvec[r] = s * t * values[p]
        out.append(compose(LinearMap._of((algebra, algebra), (gvec, bm.den)), f).ints)
    return out


def orbit_contains(g: LinearMap, f: LinearMap, order: str = "left") -> Optional[Tensor2]:
    """A tensor t with t acting on f equal to g, or None when g is not
    in the orbit of f.  Absence is a valid answer, not an error."""
    _check_order(order)
    if g.source is not f.source or g.target is not f.target:
        raise AlgebraMismatch("maps act on different algebras")
    n = f.target.dim
    columns, den = exact.over_lcm(_orbit_columns(f, order, [divmod(c, n) for c in range(n * n)]))
    g_nums, g_den = g.ints
    try:
        (particular, t_den), _ = exact.solve_ints(list(zip(*columns)), [v * den for v in g_nums])
    except ValueError:
        return None
    # the columns over den give g_nums / g_den: t is the particular over g_den
    t = Tensor2._of((f.target,), (particular, t_den * g_den))
    if compose(table_map(t, order), f) != g:
        raise SubstitutionCheckFailed("orbit tensor fails substitution: t acting on f is not g")
    return t


def representation_basis(algebra: FreeAlgebra, order: str = "left") -> list[LinearMap]:
    """Generators whose orbits span all linear maps of the algebra.

    Starts from the identity map, whose orbit columns are the component
    matrix B itself, so it alone suffices when B has full rank.  As t ->
    (t acting on g) is linear, g's orbit is spanned by its columns at B's
    pivot columns, rank(B) of them.  Each pass adds those to the rows
    found so far and reduces them on ints, keeping the nonzero rows,
    positive multiples of those of the span's reduced row echelon form.
    While they do not span the whole coordinate space, the first
    standard-basis coordinate matrix (row-major) outside the span is
    located: e_c lies in the span iff c is a pivot column whose reduced
    row has exactly one nonzero entry.  Its component orthogonal to the
    span of the rows R, den e_c - R^T y with R R^T y = den R e_c, is
    scaled to a primitive integer vector, and that map is adjoined; both
    depend on the span alone.  The orthogonalization makes the adjoined
    generator a canonical representative of its own orbit; for the
    complex numbers it yields exactly the conjugation map.
    """
    _check_order(order)
    if algebra.unit_index is None:
        raise NoUnit("generator discovery needs a unital algebra")
    n = algebra.dim
    g = LinearMap.identity(algebra)
    generators = [g]
    bm = b_matrix(algebra, order)
    if bm.rank() == n * n:
        return generators
    pairs = [divmod(cols[c], n) for _, cols, _, _, k in bm.blocks
             for c in bm.classes[k][1][0]]  # signs do not move a class's pivots
    rows = []
    while True:
        rows.extend(exact.primitive(nums) for nums, _ in _orbit_columns(g, order, pairs))
        pivots = exact._reduce(rows, n * n)
        if len(pivots) == n * n:
            return generators
        del rows[len(pivots):]
        inside = {c for row, c in zip(rows, pivots) if sum(1 for x in row if x) == 1}
        pivot = next(c for c in range(n * n) if c not in inside)
        columns = list(zip(*rows))
        # R R^T is nonsingular, so [R R^T | -R e_c] has one null vector, (y, den)
        gram = exact.int_mat_mul(rows, columns, len(rows))
        (*y, den), _ = exact.null_vector([[*g, -v] for g, v in zip(gram, columns[pivot])])
        residual = [-sum(map(mul, column, y)) for column in columns]
        residual[pivot] += den
        g = LinearMap._of((algebra, algebra), (tuple(exact.primitive(residual)), 1))
        generators.append(g)
