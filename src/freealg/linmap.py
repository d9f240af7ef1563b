"""Linear mappings of free algebras as exact coordinate matrices.

A map f is stored as its target.dim x source.dim matrix f[i][j] with
(f x)^i = sum_j f[i][j] x^j, row by row in the int form of ``exact.IntForm``,
so ``compose``, ``apply``, ``+`` and the shifts run on ints alone and
``LinearMap.coords``, the grid of Fractions, is built on first read.
The module also builds the n^2 x n^2
component matrix that links a map's coordinates to its standard
components f^{ij} in the sandwich expansion

    f(x) = sum_{i,j} f^{ij} (e_i x) e_j        (order="left")
    f(x) = sum_{i,j} f^{ij} e_i (x e_j)        (order="right")

builds it from its nonzero cells as their connected blocks, and reads,
solves and applies it only through those blocks.  The two nesting orders
coincide in associative algebras; "left" is the default everywhere.  The
right order is the left order over A^op with i and j swapped, as
e_i (x e_j) = (e_j . x) . e_i when x . y = y x, so one contraction, with
e_j e_i read for e_i . e_j, builds both.

Coordinate matrices and component grids are vectorized row by row by
``exact.vec``: target coordinate or i outer, source coordinate or j inner.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional

from . import exact
from .core import AlgElement, FreeAlgebra, associator, multiply
from .errors import AlgebraMismatch, NoUnit, NotRepresentable
from .exact import IntForm, frac
from .tensor import Tensor2

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

    def matrix(self) -> list[list[Fraction]]:
        return [list(row) for row in self.coords]

    def __repr__(self) -> str:
        return f"LinearMap({self.target.dim}x{self.source.dim})"


def apply(f: LinearMap, x: AlgElement) -> AlgElement:
    """Matrix-vector action of f on x."""
    if x.algebra is not f.source:
        raise AlgebraMismatch("element is not in the map's source algebra")
    (fs, f_den), (xs, x_den) = f.ints, x.ints
    out = [sum(a * b for a, b in zip(row, xs)) for row in exact.blocks(fs, len(xs))]
    return AlgElement._of((f.target,), exact.canonical(out, f_den * x_den))


def compose(g: LinearMap, f: LinearMap) -> LinearMap:
    """g after f; coordinates multiply as matrices."""
    if f.target is not g.source:
        raise AlgebraMismatch("compose needs f.target == g.source")
    (gs, g_den), (fs, f_den) = g.ints, f.ints
    n = f.source.dim
    product = exact.int_mat_mul(exact.blocks(gs, g.source.dim), exact.blocks(fs, n), n)
    return LinearMap._of((f.source, g.target), exact.canonical(exact.vec(product), g_den * f_den))


def _map_from_columns(algebra: FreeAlgebra, column) -> LinearMap:
    """The endomorphism whose column j is column(e_j)."""
    cols = [column(e).ints for e in algebra.basis()]
    den = lcm(*(d for _, d in cols))
    scaled = [[x * (den // d) for x in nums] for nums, d in cols]
    return LinearMap._of((algebra, algebra), exact.canonical(exact.vec(zip(*scaled)), den))


def left_shift(a: AlgElement) -> LinearMap:
    """The map x -> a x."""
    return _map_from_columns(a.algebra, lambda x: multiply(a, x))


def right_shift(a: AlgElement) -> LinearMap:
    """The map x -> x a."""
    return _map_from_columns(a.algebra, lambda x: multiply(x, a))


def left_associator_map(a: AlgElement, b: AlgElement) -> LinearMap:
    """The map x -> (a, b, x); measures the failure of l(a)l(b) = l(ab)."""
    return _map_from_columns(a.algebra, lambda x: associator(a, b, x))


def right_associator_map(b: AlgElement, a: AlgElement) -> LinearMap:
    """The map x -> (x, b, a); measures the failure of r(a)r(b) = r(ba)."""
    return _map_from_columns(a.algebra, lambda x: associator(x, b, a))


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


class BMatrix:
    """The n^2 x n^2 matrix linking coordinates to standard components.

    Row (k, m) and column (i, j) hold the coefficient of f^{ij} in the
    (k, m) coordinate entry of x -> sum f^{ij} (e_i x) e_j (left order)
    or x -> sum f^{ij} e_i (x e_j) (right order).

    The matrix is held only as the connected components of its nonzero
    graph (``exact.components``): ``blocks`` lists (rows, cols, grid), the
    grid holding the entries at those rows and columns; every entry
    outside the blocks is zero.  A zero row is a block without columns
    and a zero column one without rows.  ``rank`` is the sum of the block
    ranks; ``entries``, a dense view rebuilt on each read, is for callers
    outside the library.
    """

    __slots__ = ("algebra", "order", "blocks")

    def __init__(self, algebra: FreeAlgebra, order: str, blocks):
        self.algebra = algebra
        self.order = order
        self.blocks = blocks

    @property
    def entries(self) -> list[list[Fraction]]:
        size = self.algebra.dim ** 2
        entries = exact.zeros(size, size)
        for rows, cols, grid in self.blocks:
            for r, values in zip(rows, grid):
                for c, v in zip(cols, values):
                    entries[r][c] = v
        return entries

    def rank(self) -> int:
        return sum(exact.rank(grid) for _, _, grid in self.blocks)

    def __repr__(self) -> str:
        return f"BMatrix({self.algebra!r}, order={self.order}, size={self.algebra.dim ** 2})"


def b_matrix(algebra: FreeAlgebra, order: str = "left") -> BMatrix:
    """Build (and cache on the algebra, per order) the component matrix."""
    _check_order(order)
    return algebra.cached(("b_matrix", order), lambda: _build_b_matrix(algebra, order))


def _build_b_matrix(algebra: FreeAlgebra, order: str) -> BMatrix:
    n = algebra.dim
    # right order: the left order over A^op, whose e_i . e_j is e_j e_i, i and j swapped
    product = algebra.basis_product if order == "left" else lambda i, j: algebra.basis_product(j, i)
    i_stride, j_stride = (n, 1) if order == "left" else (1, n)
    # coefficient of f^{ij} in coordinate (k, m): sum_p B[i][m][p] B[p][j][k], over den^2
    sums: dict[tuple[int, int], int] = {}  # by (row, column); terms can cancel to 0
    for i in range(n):
        for m in range(n):
            for p, v1 in product(i, m):
                for j in range(n):
                    col = i * i_stride + j * j_stride
                    for k, v2 in product(p, j):
                        cell = (k * n + m, col)
                        sums[cell] = sums.get(cell, 0) + v1 * v2
    den = algebra.denominator ** 2
    return BMatrix(algebra, order, [
        (rows, cols, [exact.as_fractions([sums.get((r, c), 0) for c in cols], den) for r in rows])
        for rows, cols in exact.components(n * n, n * n, (c for c, v in sums.items() if v))])


class StandardSolution:
    """Solution set of the components-from-coordinates system.

    ``particular`` is one tensor of standard components reproducing the
    requested map; ``nullspace`` spans the homogeneous solutions (every
    particular + combination reproduces the same map); ``rank`` is the
    rank of the component matrix.  The solution is unique iff nullspace
    is empty.
    """

    __slots__ = ("particular", "nullspace", "rank")

    def __init__(self, particular: Tensor2, nullspace: list[Tensor2], rank: int):
        self.particular = particular
        self.nullspace = nullspace
        self.rank = rank

    def is_unique(self) -> bool:
        return not self.nullspace

    def __repr__(self) -> str:
        return f"StandardSolution(rank={self.rank}, nullity={len(self.nullspace)})"


def coords_from_standard(t: Tensor2, f: LinearMap, order: str = "left") -> LinearMap:
    """Coordinate matrix of g = t acting on f, g(x) = sum t^{ij} e_i f(x) e_j
    with the chosen nesting.  For f = identity this is the component
    matrix applied to vec(t), reshaped; it is applied block by block."""
    _check_order(order)
    if t.algebra is not f.target:
        raise AlgebraMismatch("tensor and map must share the target algebra")
    n = t.algebra.dim
    tvec = exact.vec(t.components)
    gvec = [exact.ZERO] * (n * n)
    for rows, cols, grid in b_matrix(t.algebra, order).blocks:
        if rows and cols:
            for r, (v,) in zip(rows, exact.mat_mul(grid, [[tvec[c]] for c in cols])):
                gvec[r] = v
    return compose(LinearMap(f.target, f.target, exact.blocks(gvec, n)), f)


def standard_from_coords(g: LinearMap, order: str = "left") -> StandardSolution:
    """Solve for all standard components reproducing the endomorphism g.

    Raises NotRepresentable when g lies outside the image of the
    component matrix (for the complex numbers this rejects conjugation:
    only genuinely complex-linear maps are representable).

    The component matrix is solved block by block.  The reduced row
    echelon form of a block-diagonal matrix is its blockwise form, so the
    particular solution and null space are those of one solve of the
    whole matrix; null-space vectors come sorted by their free column,
    which is their last nonzero entry.
    """
    _check_order(order)
    if not g.is_endomorphism():
        raise AlgebraMismatch("standard components are defined for endomorphisms")
    algebra = g.source
    n = algebra.dim
    gvec = exact.vec(g.coords)
    particular = [exact.ZERO] * (n * n)
    nullspace = []
    for rows, cols, grid in b_matrix(algebra, order).blocks:
        if not rows:  # a zero column: its component is free
            x, basis = [exact.ZERO], [[exact.ONE]]
        else:
            try:
                x, basis = exact.solve(grid, [gvec[r] for r in rows])
            except ValueError:
                raise NotRepresentable(
                    "coordinate matrix is not in the image of the component matrix") from None
        for c, v in zip(cols, x):
            particular[c] = v
        for local in basis:
            v = [exact.ZERO] * (n * n)
            for c, value in zip(cols, local):
                v[c] = value
            nullspace.append(v)
    nullspace.sort(key=lambda v: max(c for c, value in enumerate(v) if value))
    return StandardSolution(
        Tensor2(algebra, exact.blocks(particular, n)),
        [Tensor2(algebra, exact.blocks(v, n)) for v in nullspace],
        n * n - len(nullspace))


def _orbit_columns(f: LinearMap, order: str) -> list[list[Fraction]]:
    """The n^2 x n^2 matrix whose column (i, j) is vec(e_i (x) e_j acting on f).

    Column (i, j) of the component matrix B is vec(S), S the map of
    e_i (x) e_j acting on the identity; acting on f gives S f.  So row
    (k, m) of the result is sum_p f[p][m] B[(k, p)]: f's transpose times
    the n rows (k, p) of B, read from its blocks, for each k.
    """
    n = f.target.dim
    b_rows = {r: dict(zip(cols, values)) for rows, cols, grid in b_matrix(f.target, order).blocks
              for r, values in zip(rows, grid)}
    f_t = list(zip(*f.coords))
    out = []
    for k in range(n):
        band = [[b_rows[k * n + p].get(c, exact.ZERO) for c in range(n * n)] for p in range(n)]
        out.extend(exact.mat_mul(f_t, band))
    return out


def orbit_contains(g: LinearMap, f: LinearMap, order: str = "left") -> Optional[Tensor2]:
    """A tensor t with t acting on f equal to g, or None when g is not
    in the orbit of f.  Absence is a valid answer, not an error."""
    _check_order(order)
    if g.source is not f.source or g.target is not f.target:
        raise AlgebraMismatch("maps act on different algebras")
    try:
        particular, _ = exact.solve(_orbit_columns(f, order), exact.vec(g.coords))
    except ValueError:
        return None
    return Tensor2(f.target, exact.blocks(particular, f.target.dim))


def representation_basis(algebra: FreeAlgebra, order: str = "left") -> list[LinearMap]:
    """Generators whose orbits span all linear maps of the algebra.

    Starts from the identity map, whose orbit columns are the component
    matrix B itself, so it alone suffices when B has full rank.  Each
    pass reduces the orbit columns found so far to reduced row echelon
    form and keeps only its nonzero rows.  While they do not span the
    whole coordinate space, the first standard-basis coordinate matrix
    (row-major) outside the span is located: e_c lies in the span iff c
    is a pivot column whose reduced row has exactly one nonzero entry.
    Its component orthogonal to the span is taken and scaled to a
    primitive integer vector, and that map is adjoined with its orbit
    columns.  The orthogonalization makes the adjoined generator a
    canonical representative of its own orbit; for the complex numbers
    it yields exactly the conjugation map.
    """
    _check_order(order)
    if algebra.unit_index is None:
        raise NoUnit("generator discovery needs a unital algebra")
    n = algebra.dim
    g = LinearMap.identity(algebra)
    generators = [g]
    if b_matrix(algebra, order).rank() == n * n:
        return generators
    rows = []
    while True:
        rows.extend(zip(*_orbit_columns(g, order)))
        reduced, pivots = exact.rref(rows)
        if len(pivots) == n * n:
            return generators
        rows = reduced[:len(pivots)]
        inside = {c for row, c in zip(rows, pivots) if sum(1 for x in row if x) == 1}
        pivot = next(c for c in range(n * n) if c not in inside)
        e = [Fraction(r == pivot) for r in range(n * n)]
        candidate = exact.primitive(exact.orthogonal_residual(rows, e))
        g = LinearMap(algebra, algebra, exact.blocks(candidate, n))
        generators.append(g)
