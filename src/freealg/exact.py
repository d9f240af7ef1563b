"""Exact linear algebra over the rationals, and the integer form of values.

Matrices are lists or tuples of rows of Fraction; results are lists.
Nothing in this module ever rounds; every function either returns exact
rationals or raises.

All elimination (rank, rref, invert, solve) runs through one driver,
``_reduce``, a fraction-free Gauss-Jordan over Python ints (Bareiss,
Math. Comp. 22, 1968).  A row enters scaled by the lcm of its
denominators, which changes neither its row space nor the reduced row
echelon form; each row step divides out the gcd of the row's entries.
Fractions appear only on the way out: a reduced row is the integer row
over its pivot.

``mat_mul`` sums over ints too (``int_mat_mul``), with one lcm of
denominators per row of a and one per column of b; one lcm for all of b
would lengthen every product.  A vector is multiplied as one column.

``IntForm``, the base of elements, maps and tensors, holds int numerators
over one denominator (``canonical``) and builds its Fractions on first read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import AlgebraMismatch

Vec = list[Fraction]
Mat = list[list[Fraction]]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(value) -> Fraction:
    """Coerce ints, strings like '-3/5', and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass a Fraction, int, or 'p/q' string")
    return Fraction(value)


def zeros(rows: int, cols: int) -> Mat:
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int) -> Mat:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def vec(grid) -> Vec:
    """The grid flattened row by row; ``blocks`` cuts it back into rows."""
    return [v for row in grid for v in row]


def blocks(seq, size: int) -> list:
    """``seq`` cut into consecutive pieces of length ``size``."""
    return [seq[i:i + size] for i in range(0, len(seq), size)]


def components(n_rows: int, n_cols: int, cells) -> list[tuple[list[int], list[int]]]:
    """The connected components of the graph on n_rows rows and n_cols
    columns that joins row r to column c for each (r, c) in ``cells``, the
    nonzero positions of a matrix, as (row indices, column indices), both
    ascending.  A zero row is a component without columns and a zero
    column one without rows.  Components come in the order of their first
    row, then those without rows in column order.  This is the first step
    of block triangular form (Pothen and Fan, ACM TOMS 16, 1990)."""
    parent = list(range(n_rows + n_cols))  # rows, then columns offset by n_rows

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for r, c in cells:
        a, b = root(r), root(n_rows + c)
        if a != b:
            parent[max(a, b)] = min(a, b)  # a root is its component's first node
    found: dict[int, tuple[list[int], list[int]]] = {}
    for x in range(n_rows + n_cols):
        rs, cs = found.setdefault(root(x), ([], []))
        if x < n_rows:
            rs.append(x)
        else:
            cs.append(x - n_rows)
    return list(found.values())


def int_mat_mul(a, b, cols: int) -> list[list[int]]:
    """The product of int matrices given by rows, b having ``cols`` columns."""
    b_rows = [[(j, v) for j, v in enumerate(row) if v] for row in b]
    out = []
    for row in a:
        acc = [0] * cols
        for aik, bk in zip(row, b_rows):
            if aik:
                for j, v in bk:
                    acc[j] += aik * v
        out.append(acc)
    return out


def mat_mul(a: Mat, b: Mat) -> Mat:
    cols = [as_ints(col) for col in zip(*b)]
    rows = [as_ints(row) for row in a]
    product = int_mat_mul([ints for ints, _ in rows], zip(*(ints for ints, _ in cols)), len(cols))
    return [[Fraction(v, den * col_den) if v else ZERO for v, (_, col_den) in zip(acc, cols)]
            for acc, (_, den) in zip(product, rows)]


def as_ints(values) -> tuple[list[int], int]:
    """(ints, den) with values[i] = ints[i] / den, den the lcm of their denominators; that
    is canonical, as a prime's full power in den divides a denominator but not its int."""
    pairs = [x.as_integer_ratio() for x in values]
    den = lcm(*[d for _, d in pairs])
    return [n * (den // d) for n, d in pairs], den


def as_fractions(ints, den: int) -> Vec:
    """The Fractions ints[i] / den; ``as_ints`` undone."""
    return [Fraction(x, den) if x else ZERO for x in ints]


def canonical(ints, den: int) -> tuple[tuple[int, ...], int]:
    """ints / den, den > 0, as a primitive tuple over a positive denominator:
    the gcd of the numerators and the denominator is 1, the zero vector is over 1."""
    g = gcd(den, *ints)
    if g == 1:
        return tuple(ints), den
    return tuple([x // g for x in ints]), den // g


class IntForm:
    """Base of the value types: rationals on the algebras in ``_space``, held
    as int numerators over one denominator in the form of ``canonical``.

    A value built from Fractions keeps that tuple, its view, and computes the
    int form when an int operation first needs it; one built by ``_of`` builds
    its view on first read.  Both are kept.  The view is flat, or with ``_GRID``
    rows as long as the first algebra's dimension; the int form is row by row.
    Equality compares the int form, the hash is that of the algebras' ids and
    the view, and operands on other algebras raise ``AlgebraMismatch(_MISMATCH)``."""

    __slots__ = ("_space", "_view", "_nums", "_den")
    _GRID = False

    def __init__(self, space: tuple, view: tuple):
        self._space, self._view, self._nums = space, view, None

    @classmethod
    def _of(cls, space: tuple, form: tuple[tuple[int, ...], int]):
        """The value whose int form, row by row, is ``form``, which must be canonical."""
        value = cls.__new__(cls)
        value._space, value._view = space, None
        value._nums, value._den = form
        return value

    @property
    def ints(self) -> tuple[tuple[int, ...], int]:
        """(numerators, denominator), canonical, a grid read row by row."""
        if self._nums is None:  # _den is stored first, so a reader seeing _nums sees its _den
            nums, self._den = as_ints(vec(self._view) if self._GRID else self._view)
            self._nums = tuple(nums)
        return self._nums, self._den

    def _fractions(self) -> tuple:
        if self._view is None:
            flat = tuple(as_fractions(self._nums, self._den))
            self._view = tuple(blocks(flat, self._space[0].dim)) if self._GRID else flat
        return self._view

    def is_zero(self) -> bool:
        return not any(self.ints[0])

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and other._space == self._space
                and other.ints == self.ints)

    def __hash__(self):
        return hash((*map(id, self._space), self._fractions()))

    def _combine(self, other, sign: int):
        if type(other) is not type(self) or other._space != self._space:
            raise AlgebraMismatch(self._MISMATCH)
        (a, a_den), (b, b_den) = self.ints, other.ints
        den = lcm(a_den, b_den)
        sa, sb = den // a_den, sign * (den // b_den)
        return self._of(self._space, canonical([x * sa + y * sb for x, y in zip(a, b)], den))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        nums, den = self.ints
        return self._of(self._space, (tuple(-x for x in nums), den))

    def scaled(self, scalar):
        p, q = frac(scalar).as_integer_ratio()
        nums, den = self.ints
        return self._of(self._space, canonical([p * x for x in nums], den * q))


def _int_row(row) -> list[int]:
    """The row scaled by the lcm of its denominators, made primitive."""
    ints, _ = as_ints(row)
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _eliminate(row: list[int], pivot_row: list[int], c: int,
               support: list[int]) -> list[int]:
    """(p/g) row - (f/g) pivot_row over the gcd of its entries, where p > 0
    and f are the column-c entries of pivot_row and row, g = gcd(p, f),
    and ``support`` lists the nonzero columns of pivot_row.  May reuse
    row's list."""
    p, f = pivot_row[c], row[c]
    g = gcd(p, f)
    p, f = p // g, f // g
    if p != 1:
        row = [p * x for x in row]
    for j in support:
        row[j] -= f * pivot_row[j]
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _reduce(rows: list[list[int]], cols: int) -> list[int]:
    """Fraction-free Gauss-Jordan, in place, over the first ``cols`` columns.

    Returns the pivot columns.  Afterwards rows[i] for i < len(pivots) is
    a positive multiple of row i of the reduced row echelon form, with a
    positive entry in column pivots[i]; the rows after them are zero in
    the first ``cols`` columns.
    """
    pivots: list[int] = []
    n = len(rows)
    for c in range(cols):
        r = len(pivots)
        if r == n:
            break
        pivot = next((i for i in range(r, n) if rows[i][c]), None)
        if pivot is None:
            continue
        prow = rows[pivot]
        if prow[c] < 0:
            prow = [-x for x in prow]
        rows[pivot], rows[r] = rows[r], prow
        support = [j for j, x in enumerate(prow) if x]
        for i in range(n):
            if i != r and rows[i][c]:
                rows[i] = _eliminate(rows[i], prow, c, support)
        pivots.append(c)
    return pivots


def rank(a: Mat) -> int:
    return len(_reduce([_int_row(row) for row in a], len(a[0]) if a else 0))


def rref(a: Mat) -> tuple[Mat, list[int]]:
    """Row-reduced echelon form; returns (reduced matrix, pivot columns)."""
    cols = len(a[0]) if a else 0
    rows = [_int_row(row) for row in a]
    pivots = _reduce(rows, cols)
    reduced = [as_fractions(row, row[c]) for row, c in zip(rows, pivots)]
    return reduced + zeros(len(rows) - len(pivots), cols), pivots


def invert(a: Mat) -> Mat:
    """Exact inverse by Gauss-Jordan; raises ValueError for a non-square
    matrix, and naming the first pivot column that could not be produced
    when singular."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError(f"cannot invert a non-square matrix with {n} rows")
    rows = [_int_row([*row, *ident_row]) for row, ident_row in zip(a, identity(n))]
    pivots = _reduce(rows, n)
    if len(pivots) < n:
        missing = next(c for c in range(n) if c not in pivots)
        raise ValueError(f"matrix is singular: no pivot in column {missing}")
    return [as_fractions(row[n:], row[i]) for i, row in enumerate(rows)]


def solve(a: Mat, b: Vec) -> tuple[Vec, list[Vec]]:
    """General exact solve of a x = b.

    Returns (particular solution with free variables set to 0, nullspace
    basis, one vector per free column).  Raises ValueError when the
    system is inconsistent or b's length is not a's row count.
    """
    if len(b) != len(a):
        raise ValueError(f"right side has {len(b)} entries for {len(a)} rows")
    cols = len(a[0]) if a else 0
    rows = [_int_row([*row, v]) for row, v in zip(a, b)]
    pivots = _reduce(rows, cols + 1)
    if cols in pivots:
        raise ValueError("inconsistent linear system")
    particular = [ZERO] * cols
    for row, c in zip(rows, pivots):
        particular[c] = Fraction(row[cols], row[c])
    pivot_set = set(pivots)
    basis: list[Vec] = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        v = [ZERO] * cols
        v[fc] = ONE
        for row, c in zip(rows, pivots):
            v[c] = Fraction(-row[fc], row[c])
        basis.append(v)
    return particular, basis


def orthogonal_residual(basis: list[Vec], v: Vec) -> Vec:
    """v minus its orthogonal projection onto span(basis), exactly.

    Uses the normal equations with the Gram matrix of the basis; the
    basis rows must be linearly independent.
    """
    if not basis:
        return v[:]
    columns = list(zip(*basis))
    coeffs, _ = solve(mat_mul(basis, columns), vec(mat_mul(basis, [[x] for x in v])))
    return [x - p for x, p in zip(v, vec(mat_mul(columns, [[c] for c in coeffs])))]


def primitive(v: Vec) -> Vec:
    """Scale a nonzero rational vector to coprime integers with a
    positive leading entry."""
    ints = _int_row(v)
    lead = next((x for x in ints if x != 0), None)
    if lead is None:
        raise ValueError("zero vector has no primitive form")
    sign = -1 if lead < 0 else 1
    return [Fraction(sign * x) for x in ints]
