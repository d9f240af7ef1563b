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
B is read, solved and applied only through the blocks, on ints up to the values
returned: B vec(t) gathers a block's signed entries ts of vec(t) once and
takes each row of F as ``sum(map(mul, row, ts))``, as the solve and
``apply`` take theirs.  The two nesting orders coincide in associative
algebras; "left" is the default everywhere.  The right order is the left
order over A^op with i and j swapped, as e_i (x e_j) = (e_j . x) . e_i
when x . y = y x, so one walk builds both: over A's row table of
constants, or over A^op's, which is A's column table, writing f^{ij} to
column (j, i).

Coordinate matrices and component grids are vectorized row by row by
``exact.vec``: target coordinate or i outer, source coordinate or j inner.

Tensor2, the standard components, lives here with the conversions that
build and read it; imports run one way, exact <- core <- linmap <- tensor.
``table_map`` sums a tensor's map off the tables of constants, never B, so
that ``check_conversion`` and ``orbit_contains`` can substitute B's answers
back.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import lcm, prod
from operator import mul
from typing import NamedTuple, Optional

from . import exact
from .core import AlgElement, FreeAlgebra, associator_ints, product_ints, shared_algebra
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
        return LinearMap._of(self._space[::-1], exact.canonical([x * den for x in inv], inv_den))

    def __repr__(self) -> str:
        return f"LinearMap({self.target.dim}x{self.source.dim})"


def apply(f: LinearMap, x: AlgElement) -> AlgElement:
    """Matrix-vector action of f on x."""
    if x.algebra is not f.source:
        raise AlgebraMismatch("element is not in the map's source algebra")
    (fs, f_den), (xs, x_den) = f.ints, x.ints
    out = [sum(map(mul, row, xs)) for row in exact.blocks(fs, len(xs))]
    return AlgElement._of((f.target,), exact.canonical(out, f_den * x_den))


def compose(g: LinearMap, f: LinearMap) -> LinearMap:
    """g after f; coordinates multiply as matrices."""
    if f.target is not g.source:
        raise AlgebraMismatch("compose needs f.target == g.source")
    (gs, g_den), (fs, f_den) = g.ints, f.ints
    n = f.source.dim
    product = exact.int_mat_mul(exact.blocks(gs, g.source.dim), exact.blocks(fs, n), n)
    return LinearMap._of((f.source, g.target), exact.canonical(exact.vec(product), g_den * f_den))


def _map_from_columns(column, *factors: AlgElement) -> LinearMap:
    """The endomorphism whose column j is column(e_j), the numerators of a product of
    e_j and each of ``factors`` once, over their denominators times one D per factor."""
    algebra = shared_algebra(*factors)
    den = algebra.denominator ** len(factors) * prod(x.ints[1] for x in factors)
    cols = [column(e.ints[0]) for e in algebra.basis()]
    return LinearMap._of((algebra, algebra), exact.canonical(exact.vec(zip(*cols)), den))


def left_shift(a: AlgElement) -> LinearMap:
    """The map x -> a x."""
    return _map_from_columns(lambda e: product_ints(a.algebra, a.ints[0], e), a)


def right_shift(a: AlgElement) -> LinearMap:
    """The map x -> x a."""
    return _map_from_columns(lambda e: product_ints(a.algebra, e, a.ints[0]), a)


def left_associator_map(a: AlgElement, b: AlgElement) -> LinearMap:
    """The map x -> (a, b, x); measures the failure of l(a)l(b) = l(ab)."""
    algebra, xs, ys = shared_algebra(a, b), a.ints[0], b.ints[0]
    ab = product_ints(algebra, xs, ys)
    return _map_from_columns(
        lambda e: associator_ints(algebra, xs, e, ab, product_ints(algebra, ys, e)), a, b)


def right_associator_map(b: AlgElement, a: AlgElement) -> LinearMap:
    """The map x -> (x, b, a); measures the failure of r(a)r(b) = r(ba)."""
    algebra, ys, zs = shared_algebra(b, a), b.ints[0], a.ints[0]
    ba = product_ints(algebra, ys, zs)
    return _map_from_columns(
        lambda e: associator_ints(algebra, e, zs, product_ints(algebra, e, ys), ba), b, a)


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
        (an, ad), (bn, bd) = a.ints, b.ints
        return cls._of((a.algebra,), exact.canonical([x * y for x in an for y in bn], ad * bd))

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
    of its class, and ``classes`` lists (F, ``exact.factor(F)``), F the
    int grid holding ``den`` times the entries up to signs, den the square
    of the algebra's denominator; every entry outside the blocks is zero.
    A zero row is a block without columns and a zero column one without
    rows.  Only this module reads the blocks: other modules read B and
    B^-1 as ``relations`` and ``inverse_relations``.  ``entries``, a dense
    view rebuilt on each read, is for callers outside the library.
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

    def relations(self) -> dict:
        """Row (k, m) of B -> {(i, j): its nonzero entry in column (i, j)}, for every row."""
        return _relations([(rows, cols, rs, cs, self.classes[k][0], 1, self.den)
                           for rows, cols, rs, cs, k in self.blocks], self.algebra.dim)

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


def _relations(parts, n: int) -> dict:
    """Row (k, m) -> {(i, j): nonzero entry} of an n^2 x n^2 matrix of blocks
    (rows, cols, rs, cs, grid, num, den), the entries D_r grid D_c * num / den."""
    return {divmod(r, n): {divmod(c, n): Fraction(s * t * v * num, den)
                           for c, t, v in zip(cols, cs, values) if v}
            for rows, cols, rs, cs, grid, num, den in parts
            for r, s, values in zip(rows, rs, grid)}


def b_matrix(algebra: FreeAlgebra, order: str = "left") -> BMatrix:
    """Build (and cache on the algebra, per order) the component matrix."""
    _check_order(order)
    return algebra.cached(("b_matrix", order), lambda: _build_b_matrix(algebra, order))


def _build_b_matrix(algebra: FreeAlgebra, order: str) -> BMatrix:
    n = algebra.dim
    # right order: the left order over A^op, with f^{ij} at column (j, i)
    left = order == "left"
    table = algebra.terms(opposite=not left)
    # coefficient of f^{ij} in coordinate (k, m): sum_p B[i][m][p] B[p][j][k], over den^2
    cells: list[dict[int, int]] = [{} for _ in range(n * n)]  # row -> {column: sum}
    for i, row in enumerate(table):
        for m, p, v1 in row:
            for j, k, v2 in table[p]:
                line, c = cells[k * n + m], i * n + j if left else j * n + i
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
        blocks.append((rows, cols, [rs[r] for r in rows], [cs[c] for c in cols],
                       index.setdefault(f, len(index))))
    del cells, col_rows  # not held while the classes are factored
    blocks += [([], [c], [], [1], index.setdefault((), len(index)))
               for c in range(n * n) if not cs[c]]
    return BMatrix(algebra, order, blocks, [(f, exact.factor(f)) for f in index])


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
    bm = b_matrix(t.algebra, order)
    tvec, t_den = t.ints
    gvec = [0] * len(tvec)
    for rows, cols, rs, cs, k in bm.blocks:
        ts = [t * tvec[c] for t, c in zip(cs, cols)]
        if any(ts):  # else the block's rows stay 0
            for r, s, values in zip(rows, rs, bm.classes[k][0]):
                gvec[r] = s * sum(map(mul, values, ts))
    return LinearMap._of((t.algebra, t.algebra), exact.canonical(gvec, bm.den * t_den))


def _table_sums(algebra: FreeAlgebra, tensors, order: str):
    """Per tensor t of ``tensors``, on ``algebra``, t's map as ``table_map``
    sums it, unreduced over den^2 t's denominator: its ints, entry (k, m) at
    k n + m.  Only the lines of t with a nonzero entry are walked: a line
    less than three quarters 0 takes each e_p e_b off the table and skips b
    off its support; a sparser one walks e_p e_b only for b on its support,
    joined on p with its e_a e_m = v1 e_p, so a null vector that is nonzero
    in two components costs two short walks.  The join of line a is built
    once for all t.  The join's inner loop costs more per step, so it wins
    only from about three quarters 0 on: on H (x) H, O (x) C and O (x) O it
    took 1.4-1.5x the table walk's time on a line with no 0 and 0.5-0.8x
    on one seven eighths 0."""
    n = algebra.dim
    left = order == "left"
    table, other = algebra.terms(opposite=not left), algebra.terms(opposite=left)
    joins: dict[int, list[list[tuple[int, int]]]] = {}
    for t in tensors:
        tvec = t.ints[0]
        out = [0] * (n * n)
        for a in range(n):
            ts = tvec[a * n:(a + 1) * n] if left else tvec[a::n]
            zeros = ts.count(0)
            if zeros == n:
                continue
            if 4 * zeros < 3 * n:
                for m, p, v1 in table[a]:
                    for b, k, v2 in table[p]:
                        if ts[b]:
                            out[k * n + m] += ts[b] * v1 * v2
                continue
            by_p = joins.get(a)
            if by_p is None:
                by_p = joins[a] = [[] for _ in range(n)]
                for m, p, v1 in table[a]:
                    by_p[p].append((m, v1))
            for b in compress(range(n), ts):  # other[b] lists e_p e_b = v2 e_k by p
                for p, k, v2 in other[b]:
                    for m, v1 in by_p[p]:
                        out[k * n + m] += ts[b] * v1 * v2
        yield out


def table_map(t: Tensor2, order: str = "left") -> LinearMap:
    """t's map, as ``tensor_map`` gives it, summed straight off the
    algebra's tables of constants without reading B: the check that the
    conversions substitute back.  Left order, for each nonzero t^{ab},
    e_a e_m = v1 e_p and e_p e_b = v2 e_k add t^{ab} v1 v2 at (k, m); the
    right order is the same walk over A^op's table, A's column table, with
    t^{ba} in place of t^{ab}."""
    _check_order(order)
    algebra = t.algebra
    out, = _table_sums(algebra, [t], order)
    return LinearMap._of((algebra, algebra),
                         exact.canonical(out, algebra.denominator ** 2 * t.ints[1]))


def check_conversion(g: LinearMap, solution: StandardSolution, order: str = "left") -> None:
    """SubstitutionCheckFailed unless ``table_map`` takes the particular
    tensor of ``standard_from_coords(g, order)`` to g and every null vector
    to the zero map, whose sums are read without reducing them."""
    if table_map(solution.particular, order) != g:
        raise SubstitutionCheckFailed("standard components fail substitution: "
                                      "the particular tensor does not give the map")
    for idx, out in enumerate(_table_sums(g.source, solution.nullspace, order)):
        if any(out):
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
    class's ``exact.factor`` (pivots, reduced, left, den).  With b' = D_r b,
    the block is consistent iff left[i] b' = 0 past the rank; its particular
    solution is D_c y, y = left[i] b' / den at pivot i and 0 at the free
    columns, and free column fc has the null vector that is 1 at fc and
    -s_fc s_c reduced[i][fc] / den at pivot c.  Column signs keep the pivot
    columns and the reduced row echelon form of a block-diagonal matrix is
    its blockwise form, so this is one ``exact.solve`` of the whole matrix;
    null-space vectors come sorted by their free column, their last nonzero.
    """
    _check_order(order)
    if not g.is_endomorphism():
        raise AlgebraMismatch("standard components are defined for endomorphisms")
    algebra = g.source
    n = algebra.dim
    bm = b_matrix(algebra, order)
    lead = lcm(*(den for _, (*_, den) in bm.classes))
    gvec, g_den = g.ints
    particular = [0] * (n * n)
    nullspace = []
    for rows, cols, rs, cs, k in bm.blocks:
        pivots, reduced, left, den = bm.classes[k][1]
        b = [s * gvec[r] for s, r in zip(rs, rows)]
        if any(sum(map(mul, row, b)) for row in left[len(pivots):]):
            raise NotRepresentable(
                "coordinate matrix is not in the image of the component matrix")
        # the blocks solve B y = g den on ints; x = y / g_den solves (B / den) x = g / g_den
        scale = bm.den * (lead // den)
        for c, row in zip(pivots, left):
            particular[cols[c]] = cs[c] * scale * sum(map(mul, row, b))
        for fc in sorted(set(range(len(cols))).difference(pivots)):
            v = [0] * (n * n)
            v[cols[fc]] = den
            for c, row in zip(pivots, reduced):
                v[cols[c]] = -cs[fc] * cs[c] * row[fc]
            nullspace.append(Tensor2._of((algebra,), exact.canonical(v, den)))
    nullspace.sort(key=lambda t: max(c for c, value in enumerate(t.ints[0]) if value))
    return StandardSolution(Tensor2._of((algebra,), exact.canonical(particular, lead * g_den)),
                            nullspace)


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
        out.append(compose(LinearMap._of((algebra, algebra), exact.canonical(gvec, bm.den)),
                           f).ints)
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
    t = Tensor2._of((f.target,), exact.canonical(particular, t_den * g_den))
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
        (y, den), _ = exact.solve_ints(exact.int_mat_mul(rows, columns, len(rows)), columns[pivot])
        residual = [-sum(map(mul, column, y)) for column in columns]
        residual[pivot] += den
        g = LinearMap._of((algebra, algebra), (tuple(exact.primitive(residual)), 1))
        generators.append(g)
