"""Matrices of additive mappings and systems of additive equations.

A MapMatrix is a grid of linear maps, all endomorphisms of one algebra.
As in the paper, its sum is the sum of maps and its row-by-column
product composes entries.  ``flatten`` builds the rational block matrix
of a MapMatrix; inversion inverts it and cuts the inverse back into
maps.  A system is solved by eliminating the int rows of that matrix
with the right side appended, which ``_augmented`` builds from the maps'
int forms, once, never inverting M, by exact division up to its first
column without a pivot, and reading off one null vector there
(``exact.null_vector``).  The answer is then substituted back through
the maps, not through the eliminated matrix, by ``apply`` and ``+`` alone,
and a singular system is refused with a witness x != 0 checked the same way.
The quasideterminant recursion composes the entries too and inverts
each quasideterminant by ``exact.factor``'s gcd loop, so it shares no
elimination with the inverse it cross-validates.

The complex field gets a closed form: every additive map of C is
z -> a z + b conj(z), composed and inverted directly in (a, b) form by
one formula that holds for every invertible map, b = 0 included.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from . import exact
from .algebras import COMPLEX_TAG, conjugate
from .core import AlgElement, FreeAlgebra, format_element, multiply
from .errors import (AlgebraMismatch, MinorSingular, ShapeMismatch, SingularMap,
                     SingularSystem, SubstitutionCheckFailed, UnsupportedAlgebra)
from .linmap import LinearMap, apply, compose


class MapMatrix:
    """A rows x cols matrix of linear maps over one algebra, all read off its grid ``entries``."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence[LinearMap]]):
        if not entries or not entries[0]:
            raise ShapeMismatch("a matrix of mappings needs at least one entry")
        cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise ShapeMismatch("rows have differing lengths")
        algebra = entries[0][0].source
        for row in entries:
            for f in row:
                if not f.is_endomorphism() or f.source is not algebra:
                    raise AlgebraMismatch(
                        "all entries must be endomorphisms of one algebra")
        self.entries = tuple(tuple(row) for row in entries)

    algebra = property(lambda self: self.entries[0][0].source)
    rows = property(lambda self: len(self.entries))
    cols = property(lambda self: len(self.entries[0]))

    @classmethod
    def identity(cls, algebra: FreeAlgebra, n: int) -> "MapMatrix":
        one = LinearMap.identity(algebra)
        zero = LinearMap.zero(algebra)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "MapMatrix":
        """Entry (r, c) moves to (c, r); the entries themselves stay."""
        return MapMatrix(list(zip(*self.entries)))

    def __eq__(self, other) -> bool:
        return (isinstance(other, MapMatrix)
                and self.algebra is other.algebra
                and self.entries == other.entries)

    def __repr__(self) -> str:
        return f"MapMatrix({self.rows}x{self.cols} over {self.algebra!r})"


def rc_product(b: MapMatrix, c: MapMatrix) -> MapMatrix:
    """Row-by-column product: entry (a, d) = sum_s b[a][s] after c[s][d]."""
    if b.algebra is not c.algebra:
        raise AlgebraMismatch("matrices over different algebras")
    if b.cols != c.rows:
        raise ShapeMismatch(f"cannot multiply {b.rows}x{b.cols} by {c.rows}x{c.cols}")
    zero = LinearMap.zero(b.algebra)
    return MapMatrix([[sum(map(compose, row, col), zero) for col in zip(*c.entries)]
                      for row in b.entries])


def cr_product(b: MapMatrix, c: MapMatrix) -> MapMatrix:
    """Column-by-row product: entry (a, d) = sum_s b[s][d] after c[a][s].

    Equals the transpose of rc_product of the transposes; coincides with
    rc_product on 1x1 and on diagonal matrices.
    """
    if b.algebra is not c.algebra:
        raise AlgebraMismatch("matrices over different algebras")
    if c.cols != b.rows:
        raise ShapeMismatch(f"cannot multiply {b.rows}x{b.cols} by {c.rows}x{c.cols}")
    return rc_product(b.transpose(), c.transpose()).transpose()


def flatten(m: MapMatrix) -> list[list[Fraction]]:
    """The (rows*n) x (cols*n) block matrix of all entry coordinates; the
    flattening of an rc_product is the product of the flattenings."""
    return [[v for f in row for v in f.coords[i]]
            for row in m.entries for i in range(m.algebra.dim)]


def inverse_map_matrix(m: MapMatrix) -> MapMatrix:
    """The two-sided inverse under the row-by-column product.

    Computed by exact inversion of the flattening, cut back into maps;
    SingularSystem when that matrix (equivalently the matrix of
    mappings) is singular.
    """
    if not m.is_square():
        raise ShapeMismatch("only square matrices of mappings have inverses")
    try:
        inverse, den = exact.invert_ints(flatten(m))
    except ValueError as err:
        raise SingularSystem(f"matrix of mappings is singular ({err})") from None
    n, space = m.algebra.dim, (m.algebra, m.algebra)
    return MapMatrix([[LinearMap._of(space, (exact.vec(coords), den))
                       for coords in zip(*(exact.blocks(row, n) for row in band))]
                      for band in exact.blocks(exact.blocks(inverse, m.cols * n), n)])


def _recursive_inverse(grid) -> list[list[LinearMap]]:
    """Inverse of a square grid of maps via quasideterminants: entry
    (i, j) is the inverse of the (j, i) quasideterminant nums / den, that
    is den left / left_den with left nums = left_den I from the gcd loop of
    ``exact.factor``, never the exact division that ``inverse_map_matrix``
    runs.  Demands every involved minor invertible."""
    algebra = grid[0][0].source
    out = []
    for i in range(len(grid)):
        row = []
        for j in range(len(grid)):
            nums, den = _quasidet(grid, j, i).ints
            pivots, _, left, left_den = exact.factor(exact.blocks(nums, algebra.dim))
            if len(pivots) < algebra.dim:
                raise MinorSingular(f"quasideterminant at row {j}, col {i} is a singular map")
            row.append(LinearMap._of((algebra, algebra),
                                     ([den * x for x in exact.vec(left)], left_den)))
        out.append(row)
    return out


def _quasidet(grid, row: int, col: int) -> LinearMap:
    if len(grid) == 1:
        return grid[0][0]
    rest_rows = [r for r in range(len(grid)) if r != row]
    rest_cols = [c for c in range(len(grid)) if c != col]
    minor_inv = _recursive_inverse([[grid[r][c] for c in rest_cols] for r in rest_rows])
    correction = LinearMap.zero(grid[0][0].source)
    for s, c in enumerate(rest_cols):
        for t, r in enumerate(rest_rows):
            correction = correction + compose(
                grid[row][c], compose(minor_inv[s][t], grid[r][col]))
    return grid[row][col] - correction


def quasideterminant(m: MapMatrix, row: int, col: int) -> LinearMap:
    """The (row, col) quasideterminant by the minor recursion:

        entry(row, col) - row-rest o minor^{-1} o col-rest

    where the minor drops ``row`` and ``col`` and is inverted through
    its own quasideterminants.  MinorSingular, naming the row and column
    of the quasideterminant that failed to invert, signals a singular
    minor.  Where both exist, the (col, row) entry of inverse_map_matrix
    inverts to this map.
    """
    if not m.is_square():
        raise ShapeMismatch("quasideterminants need a square matrix")
    if not (0 <= row < m.rows and 0 <= col < m.cols):
        raise ShapeMismatch("quasideterminant index out of range")
    return _quasidet(m.entries, row, col)


def _left_sides(m: MapMatrix, x: list[AlgElement]) -> list[AlgElement]:
    """sum_j m[i][j](x_j) for every row i, through the maps: ``apply`` and ``+``."""
    return [sum(map(apply, row, x), m.algebra.zero()) for row in m.entries]


def _augmented(m: MapMatrix, rhs: Sequence[AlgElement]) -> list[list[int]]:
    """The int rows of [M | -L b], L the lcm of b's denominators: each band of n rows
    (a row of maps and its right side) over the lcm of its maps' denominators alone."""
    n, scale = m.algebra.dim, lcm(*(y.ints[1] for y in rhs))
    rows = []
    for band, (ys, y_den) in zip(m.entries, (y.ints for y in rhs)):
        maps, den = exact.over_lcm([f.ints for f in band])
        for r, y_r in enumerate(ys):
            rows.append([x for nums in maps for x in nums[r * n:r * n + n]]
                        + [-y_r * den * (scale // y_den)])
    return rows


def solve_additive(m: MapMatrix, rhs: Sequence[AlgElement]) -> list[AlgElement]:
    """Solve the system  sum_j m[i][j](x_j) = rhs_i  for x.

    With b the right side stacked into one vector and L the lcm of its
    denominators, eliminates the int rows of [M | -L b] once, never inverting
    M, and back-substitutes only its first null vector, ``exact.null_vector``:
    (L x, 1) when M is nonsingular, and (w, 0) with M w = 0, w != 0, when M is
    singular, consistent or not.  x is substituted back through the maps, so
    the check does not read the matrix it checks; a singular M raises
    SingularSystem with ``witness`` w, checked the same way.
    """
    if not m.is_square():
        raise ShapeMismatch("system matrix must be square")
    if len(rhs) != m.rows:
        raise ShapeMismatch(f"expected {m.rows} right-hand elements, got {len(rhs)}")
    for y in rhs:
        if y.algebra is not m.algebra:
            raise AlgebraMismatch("right side must live in the system's algebra")
    n = m.algebra.dim
    rows = _augmented(m, rhs)
    kernel, den = exact.null_vector(rows)
    *x, last = kernel  # (L x, 1), or (w, 0) for a singular M

    def elements(v) -> list[AlgElement]:
        return [AlgElement._of((m.algebra,), (vi, den)) for vi in exact.blocks(v, n)]

    if not last:  # w's last nonzero is its free column, the one exact.invert_ints names
        witness = elements(x)
        if not any(x) or not all(v.is_zero() for v in _left_sides(m, witness)):
            raise SubstitutionCheckFailed("singular-system witness fails M w = 0")
        free = max(c for c, v in enumerate(x) if v)
        raise SingularSystem(
            f"matrix of mappings is singular (matrix is singular: no pivot in column {free})",
            witness)
    den *= lcm(*(y.ints[1] for y in rhs))  # L x over den is x over den L
    solution = elements(x)
    for i, (got, want) in enumerate(zip(_left_sides(m, solution), rhs)):
        if got != want:
            raise SubstitutionCheckFailed(
                f"solution fails substitution in equation {i}")
    return solution


class ComplexAdditiveMap:
    """An additive map of the complex field, z -> a z + b conj(z).

    Round-trips with its 2x2 real coordinate matrix: multiplication by
    a = a0 + a1 i contributes ((a0, -a1), (a1, a0)) and b-conjugation
    contributes ((b0, b1), (b1, -b0)).
    """

    __slots__ = ("a", "b")

    def __init__(self, a: AlgElement, b: AlgElement):
        if a.algebra is not b.algebra:
            raise AlgebraMismatch("a and b must share one complex algebra")
        if a.algebra.tag != COMPLEX_TAG:
            raise UnsupportedAlgebra("defined over the built-in complex algebra")
        self.a = a
        self.b = b

    @property
    def algebra(self) -> FreeAlgebra:
        return self.a.algebra

    @classmethod
    def multiplication(cls, a: AlgElement) -> "ComplexAdditiveMap":
        return cls(a, a.algebra.zero())

    @classmethod
    def conjugation(cls, algebra: FreeAlgebra) -> "ComplexAdditiveMap":
        return cls(algebra.zero(), algebra.unit())

    @classmethod
    def identity(cls, algebra: FreeAlgebra) -> "ComplexAdditiveMap":
        return cls(algebra.unit(), algebra.zero())

    @classmethod
    def from_linear_map(cls, f: LinearMap) -> "ComplexAdditiveMap":
        if f.source.tag != COMPLEX_TAG or not f.is_endomorphism():
            raise UnsupportedAlgebra("expected an endomorphism of the complex algebra")
        m = f.coords
        half = Fraction(1, 2)
        a = f.source.element([(m[0][0] + m[1][1]) * half, (m[1][0] - m[0][1]) * half])
        b = f.source.element([(m[0][0] - m[1][1]) * half, (m[1][0] + m[0][1]) * half])
        return cls(a, b)

    def to_linear_map(self) -> LinearMap:
        a0, a1 = self.a.coords
        b0, b1 = self.b.coords
        return LinearMap(self.algebra, self.algebra,
                         [[a0 + b0, -a1 + b1], [a1 + b1, a0 - b0]])

    def __call__(self, z: AlgElement) -> AlgElement:
        return multiply(self.a, z) + multiply(self.b, conjugate(z))

    def __eq__(self, other) -> bool:
        return (isinstance(other, ComplexAdditiveMap)
                and self.a == other.a and self.b == other.b)

    def __repr__(self) -> str:
        return f"({format_element(self.a)}) + ({format_element(self.b)})*conj"


def cadd_product(f: ComplexAdditiveMap, g: ComplexAdditiveMap) -> ComplexAdditiveMap:
    """Composition f after g in (a, b) form:
    h0 = f0 g0 + f1 conj(g1),  h1 = f0 g1 + f1 conj(g0)."""
    if f.algebra is not g.algebra:
        raise AlgebraMismatch("maps over different complex algebras")
    h0 = multiply(f.a, g.a) + multiply(f.b, conjugate(g.b))
    h1 = multiply(f.a, g.b) + multiply(f.b, conjugate(g.a))
    return ComplexAdditiveMap(h0, h1)


def cadd_inverse(f: ComplexAdditiveMap) -> ComplexAdditiveMap:
    """Two-sided inverse of z -> a z + b conj(z).

    With the real denominator d = b conj(b) - a conj(a), minus the
    determinant of the 2x2 coordinate matrix,

        g0 = -conj(a) / d,        g1 = b / d.

    (Solving f o g = 1 gives conj(g1) = conj(b)/d, so g1 itself is b/d;
    published statements of this inverse sometimes leave the bar on the
    right side, which only coincides when b is real.)  The formula holds
    for every invertible map; at b = 0 it gives g0 = 1/a and g1 = 0.
    The result is checked to compose to the identity on both sides
    before returning; SingularMap when d = 0.
    """
    a0, a1 = f.a.coords
    b0, b1 = f.b.coords
    d = (b0 * b0 + b1 * b1) - (a0 * a0 + a1 * a1)
    if d == 0:
        raise SingularMap("additive map has singular coordinate matrix")
    scale = Fraction(1) / d
    g = ComplexAdditiveMap(conjugate(f.a).scaled(-scale), f.b.scaled(scale))
    ident = ComplexAdditiveMap.identity(f.algebra)
    if cadd_product(f, g) != ident or cadd_product(g, f) != ident:
        raise SubstitutionCheckFailed("computed inverse fails to compose to identity")
    return g
