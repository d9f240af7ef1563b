"""Linear mappings of free algebras as exact coordinate matrices.

A map f is stored as its target.dim x source.dim matrix f[i][j] with
(f x)^i = sum_j f[i][j] x^j.  The module also builds the n^2 x n^2
component matrix that links a map's coordinates to its standard
components f^{ij} in the sandwich expansion

    f(x) = sum_{i,j} f^{ij} (e_i x) e_j        (order="left")
    f(x) = sum_{i,j} f^{ij} e_i (x e_j)        (order="right")

and solves it in both directions.  The two nesting orders coincide in
associative algebras; "left" is the default everywhere.  The right order
is the left order over A^op with i and j swapped, as e_i (x e_j) =
(e_j . x) . e_i when x . y = y x, so one contraction builds both.

Coordinate matrices and component grids are vectorized row by row by
``exact.vec``: target coordinate or i outer, source coordinate or j inner.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from . import exact
from .core import AlgElement, FreeAlgebra, associator, multiply, opposite
from .errors import AlgebraMismatch, NoUnit, NotRepresentable
from .exact import frac
from .tensor import Tensor2

_ORDERS = ("left", "right")


def _check_order(order: str) -> str:
    if order not in _ORDERS:
        raise ValueError(f"nesting order must be one of {_ORDERS}, got {order!r}")
    return order


class LinearMap:
    """A linear map between free algebras, as a rational matrix."""

    __slots__ = ("source", "target", "coords")

    def __init__(self, source: FreeAlgebra, target: FreeAlgebra, coords):
        if len(coords) != target.dim or any(len(row) != source.dim for row in coords):
            raise ValueError(
                f"coordinate matrix must be {target.dim}x{source.dim}")
        self.source = source
        self.target = target
        self.coords = tuple(tuple(frac(v) for v in row) for row in coords)

    @classmethod
    def identity(cls, algebra: FreeAlgebra) -> "LinearMap":
        return cls(algebra, algebra, exact.identity(algebra.dim))

    @classmethod
    def zero(cls, algebra: FreeAlgebra) -> "LinearMap":
        return cls(algebra, algebra, exact.zeros(algebra.dim, algebra.dim))

    def is_endomorphism(self) -> bool:
        return self.source is self.target

    def matrix(self) -> list[list[Fraction]]:
        return [list(row) for row in self.coords]

    def __eq__(self, other) -> bool:
        return (isinstance(other, LinearMap)
                and self.source is other.source
                and self.target is other.target
                and self.coords == other.coords)

    def __hash__(self):
        return hash((id(self.source), id(self.target), self.coords))

    def __add__(self, other: "LinearMap") -> "LinearMap":
        if self.source is not other.source or self.target is not other.target:
            raise AlgebraMismatch("maps act on different algebras")
        return LinearMap(self.source, self.target,
                         exact.mat_add(self.coords, other.coords))

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return self + (-other)

    def __neg__(self) -> "LinearMap":
        return LinearMap(self.source, self.target,
                         [[-v for v in row] for row in self.coords])

    def scaled(self, scalar) -> "LinearMap":
        s = frac(scalar)
        return LinearMap(self.source, self.target,
                         [[s * v for v in row] for row in self.coords])

    def __repr__(self) -> str:
        return f"LinearMap({self.target.dim}x{self.source.dim})"


def apply(f: LinearMap, x: AlgElement) -> AlgElement:
    """Matrix-vector action of f on x."""
    if x.algebra is not f.source:
        raise AlgebraMismatch("element is not in the map's source algebra")
    return AlgElement(f.target, tuple(exact.mat_vec(f.coords, x.coords)))


def compose(g: LinearMap, f: LinearMap) -> LinearMap:
    """g after f; coordinates multiply as matrices."""
    if f.target is not g.source:
        raise AlgebraMismatch("compose needs f.target == g.source")
    return LinearMap(f.source, g.target, exact.mat_mul(g.coords, f.coords))


def _map_from_columns(algebra: FreeAlgebra, column) -> LinearMap:
    """The endomorphism whose column j is column(e_j)."""
    cols = [column(e).coords for e in algebra.basis()]
    return LinearMap(algebra, algebra, list(zip(*cols)))


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
    """

    __slots__ = ("algebra", "order", "entries")

    def __init__(self, algebra: FreeAlgebra, order: str, entries):
        self.algebra = algebra
        self.order = order
        self.entries = entries

    def rank(self) -> int:
        return exact.rank(self.entries)

    def __repr__(self) -> str:
        return f"BMatrix({self.algebra!r}, order={self.order}, size={len(self.entries)})"


def b_matrix(algebra: FreeAlgebra, order: str = "left") -> BMatrix:
    """Build (and cache on the algebra, per order) the component matrix."""
    _check_order(order)
    return algebra.cached(("b_matrix", order), lambda: _build_b_matrix(algebra, order))


def _build_b_matrix(algebra: FreeAlgebra, order: str) -> BMatrix:
    n = algebra.dim
    entries = [[0] * (n * n) for _ in range(n * n)]
    # right order: left order over A^op, i and j swapped; A^op is built uncached (no nested builds)
    product = (algebra if order == "left" else opposite(algebra)).basis_product
    i_stride, j_stride = (n, 1) if order == "left" else (1, n)
    # coefficient of f^{ij} in coordinate (k, m): sum_p B[i][m][p] B[p][j][k], over den^2
    for i in range(n):
        for m in range(n):
            for p, v1 in product(i, m):
                for j in range(n):
                    col = i * i_stride + j * j_stride
                    for k, v2 in product(p, j):
                        entries[k * n + m][col] += v1 * v2
    den = algebra.denominator ** 2
    return BMatrix(algebra, order, [exact.as_fractions(row, den) for row in entries])


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
    matrix applied to vec(t), reshaped."""
    _check_order(order)
    if t.algebra is not f.target:
        raise AlgebraMismatch("tensor and map must share the target algebra")
    gvec = exact.mat_vec(b_matrix(t.algebra, order).entries, exact.vec(t.components))
    sandwich_coords = exact.blocks(gvec, t.algebra.dim)
    return LinearMap(f.source, f.target, exact.mat_mul(sandwich_coords, f.coords))


def standard_from_coords(g: LinearMap, order: str = "left") -> StandardSolution:
    """Solve for all standard components reproducing the endomorphism g.

    Raises NotRepresentable when g lies outside the image of the
    component matrix (for the complex numbers this rejects conjugation:
    only genuinely complex-linear maps are representable).
    """
    _check_order(order)
    if not g.is_endomorphism():
        raise AlgebraMismatch("standard components are defined for endomorphisms")
    algebra = g.source
    bm = b_matrix(algebra, order)
    try:
        particular, basis = exact.solve(bm.entries, exact.vec(g.coords))
    except ValueError:
        raise NotRepresentable(
            "coordinate matrix is not in the image of the component matrix") from None
    n = algebra.dim
    return StandardSolution(
        Tensor2(algebra, exact.blocks(particular, n)),
        [Tensor2(algebra, exact.blocks(v, n)) for v in basis],
        n * n - len(basis))


def _orbit_columns(f: LinearMap, order: str) -> list[list[Fraction]]:
    """The n^2 x n^2 matrix whose column (i, j) is vec(e_i (x) e_j acting on f).

    Column (i, j) of the component matrix B is vec(S), S the map of
    e_i (x) e_j acting on the identity; acting on f gives S f.  So row
    (k, m) of the result is sum_p f[p][m] B[(k, p)], a block product of
    f's transpose with the n-row blocks of B.
    """
    entries = b_matrix(f.target, order).entries
    f_t = list(zip(*f.coords))
    out = []
    for block in exact.blocks(entries, f.target.dim):
        out.extend(exact.mat_mul(f_t, block))
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

    Starts from the identity map.  Each pass reduces the orbit columns
    found so far to reduced row echelon form and keeps only its nonzero
    rows.  While they do not span the whole coordinate space, the first
    standard-basis coordinate matrix (row-major) outside the span is
    located: e_c lies in the span iff c is a pivot column whose reduced
    row has exactly one nonzero entry.  Its component orthogonal to the
    span is taken and scaled to a primitive integer vector, and that map
    is adjoined with its orbit columns.  The orthogonalization makes the
    adjoined generator a canonical representative of its own orbit; for
    the complex numbers it yields exactly the conjugation map.
    """
    _check_order(order)
    if algebra.unit_index is None:
        raise NoUnit("generator discovery needs a unital algebra")
    n = algebra.dim
    g = LinearMap.identity(algebra)
    generators = [g]
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
