"""Exact linear algebra over the rationals, and the integer form of values.

Matrices are lists or tuples of rows of Fractions or ints; results are lists.
Nothing in this module ever rounds; every function either returns exact
rationals or raises.

Elimination runs in two loops over Python ints.  ``_reduce`` serves rank,
solve_ints, null_vector, factor and the span of
``linmap.representation_basis``.  ``factor`` and the span run it as
Gauss-Jordan, each pivot clearing its column above and below; ``rank``,
``solve_ints`` and ``null_vector`` stop at echelon form, clearing below
each pivot only, about half the row steps.  One back-substitution over
the echelon rows, ``_read_off``, reads a vector off exactly and makes it
canonical, so it is the unique vector a reduced form gives:
``solve_ints`` reads its particular solution and each null vector,
``null_vector`` the first null vector alone.  A row enters scaled by the
lcm of its denominators, which keeps its row space; each row step
cross-multiplies by the pivot and divides the row by the gcd of its
entries, so primitive rows stay short on the sparse +-1 blocks of the
component matrix, whose minors grow.  ``invert_ints`` runs its own
Gauss-Jordan on [a | I], dividing each row step exactly by the previous
pivot as Bareiss does (Math. Comp. 22, 1968): the maps it inverts are
dense, their rows have no common factor to divide out, and the per-row
gcd is wasted there.  Measured against ``_reduce`` on 2 CPUs, exact
division inverts H's tensor maps in about 0.5x the time, random maps on
O, H (x) H and O (x) H in 0.64-0.73x, a basis shift of O (x) O in
0.47-0.54x and shifts of random elements in 0.74x (O (x) O) to about
1.03x (O (x) H, whose minors share a factor the gcd divides out); on
``_reduce``'s callers it was slower: 2.2-3.4x on the class grids of
H (x) H and O (x) O, 19x on ``linmap.orbit_contains``' H (x) H system,
4.7x on the Gram solve of a square-zero ``representation_basis``, and on
``null_vector`` 1.1-3.2x on systems of basis shifts with rational right
sides.  Fractions appear only on the way out: ``invert`` and ``solve``
are the Fraction views of ``invert_ints`` and ``solve_ints``.  Nothing in
the package calls them, ``rank`` or ``mat_mul``; they stay because the
benchmark's tracer wraps them by name.

``mat_mul`` sums over ints too (``int_mat_mul``), with one lcm of
denominators per row of a and one per column of b; one lcm for all of b
would lengthen every product.  A vector is multiplied as one column.

``IntForm``, the base of elements, maps and tensors, holds one int form
(``canonical``), set when it is built; its Fractions are only a cache.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, mul

from .errors import AlgebraMismatch

Vec = list[Fraction]
Mat = list[list[Fraction]]

ZERO = Fraction(0)


def frac(value) -> Fraction:
    """Coerce ints, strings like '-3/5', and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass a Fraction, int, or 'p/q' string")
    return Fraction(value)


def vec(grid) -> Vec:
    """The grid flattened row by row; ``blocks`` cuts it back into rows."""
    return [v for row in grid for v in row]


def blocks(seq, size: int) -> list:
    """``seq`` cut into consecutive pieces of length ``size``."""
    return [seq[i:i + size] for i in range(0, len(seq), size)]


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
    if any(len(row) != len(b) for row in a) or any(len(row) != len(b[0]) for row in b):
        raise ValueError(f"cannot multiply: a's rows need {len(b)} entries, b's rows one length")
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


def over_lcm(forms: list) -> tuple[list[list[int]], int]:
    """Int forms (ints, den) over the lcm of their denominators: (their ints, the lcm)."""
    den = lcm(*(d for _, d in forms))
    return [[x * (den // d) for x in ints] for ints, d in forms], den


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
    """Base of the value types: rationals on the algebras in ``_space``, held as
    one int form, ``ints``, set at construction: numerators over one denominator
    as ``canonical`` gives, a grid read row by row.  The view, flat or with
    ``_GRID`` rows as long as the first algebra's dimension, is a cache of
    Fractions: the constructors seed it, ``_of`` values build it on first read.
    Equality compares the int form, the hash is that of the algebras' ids and
    the view, and operands on other algebras raise ``AlgebraMismatch(_MISMATCH)``."""

    __slots__ = ("_space", "_view", "_ints")
    _GRID = False

    def __init__(self, space: tuple, view: tuple):
        nums, den = as_ints(vec(view) if self._GRID else view)
        self._space, self._view, self._ints = space, view, (tuple(nums), den)

    @classmethod
    def _of(cls, space: tuple, form: tuple[tuple[int, ...], int]):
        """The value whose int form, row by row, is ``form``, which must be canonical."""
        value = cls.__new__(cls)
        value._space, value._view, value._ints = space, None, form
        return value

    ints = property(attrgetter("_ints"))

    def _fractions(self) -> tuple:
        if self._view is None:
            flat = tuple(as_fractions(*self._ints))
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


def primitive(row) -> list[int]:
    """The row scaled to coprime ints with a positive first nonzero entry, in
    a new list; a zero row comes back as zeros.  A row of ints is not rescaled."""
    ints = list(row) if all(type(x) is int for x in row) else as_ints(row)[0]
    g = gcd(*ints)
    if next(filter(None, ints), 0) < 0:
        g = -g
    return [x // g for x in ints] if g not in (0, 1) else ints


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


def _reduce(rows: list[list[int]], cols: int, echelon: bool = False) -> list[int]:
    """Fraction-free elimination, in place, over the first ``cols`` columns.

    Returns the pivot columns.  Afterwards rows[i] for i < len(pivots) has a
    positive entry in column pivots[i] and zeros before it, and the rows
    after them are zero in the first ``cols`` columns.  By default each pivot
    clears its column in every other row (Gauss-Jordan), so rows[i] is a
    positive multiple of row i of the reduced row echelon form; with
    ``echelon`` it clears only the rows below it, about half the row steps.
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
        for i in range(r + 1 if echelon else 0, n):
            if i != r and rows[i][c]:
                rows[i] = _eliminate(rows[i], prow, c, support)
        pivots.append(c)
    return pivots


def _width(a: Mat) -> int:
    """The length of a's rows, 0 without rows; ValueError when they differ."""
    cols = len(a[0]) if a else 0
    if any(len(row) != cols for row in a):
        raise ValueError(f"rows have differing lengths: the first has {cols} entries")
    return cols


def rank(a: Mat) -> int:
    return len(_reduce([primitive(row) for row in a], _width(a), echelon=True))


def factor(a) -> tuple[list[int], list[list[int]], list[list[int]], int]:
    """One elimination of [a | I], for solving a x = b for many b.

    Returns (pivots, reduced, left, den), all ints.  ``left`` is an
    invertible square matrix with left[i] a = reduced[i] for i < rank, den
    times row i of a's reduced row echelon form (den, the lcm of the reduced
    pivots, in column pivots[i]), and left[i] a = 0 past the rank.  So a x = b
    is consistent iff left[i] b = 0 for every i past the rank."""
    cols, m = _width(a), len(a)
    rows = [primitive([*row, *(int(i == j) for j in range(m))]) for i, row in enumerate(a)]
    pivots = _reduce(rows, cols)
    den = lcm(*(row[c] for row, c in zip(rows, pivots)))
    rows[:len(pivots)] = [[x * (den // row[c]) for x in row] for row, c in zip(rows, pivots)]
    return pivots, [row[:cols] for row in rows[:len(pivots)]], [row[cols:] for row in rows], den


def invert_ints(a) -> tuple[list[int], int]:
    """The inverse of the square matrix a, of ints or Fractions, as canonical
    (ints, den): its entries row by row as ints over den.  ValueError when
    a is not square, and when it is singular, naming the first column
    without a pivot.

    Gauss-Jordan on [D a | D], D the diagonal of each row's lcm of
    denominators (1 on a row of ints), dividing each row step exactly by
    the previous pivot (Bareiss): row k is the first row at or below k with
    a nonzero in column k, negated to a positive pivot p, and every other
    row becomes (p row - f row_k) / prev, f its column-k entry.  Each entry
    is then a minor of [D a | D], so the division leaves no remainder, and
    the last pivot is |det D a|; the left half ends as that pivot times I,
    so the right half over it is a's inverse.  Cleared, column k is the
    pivot on row k and 0 elsewhere and is not read again, so a row a step
    rewrites keeps only the columns after it; columns are counted from the
    end of the rows, which stays in place."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError(f"cannot invert a non-square matrix with {n} rows")
    rows = []
    for i, row in enumerate(a):
        ints, den = (row, 1) if all(type(x) is int for x in row) else as_ints(row)
        rows.append([*ints, *[0] * i, den, *[0] * (n - 1 - i)])
    prev = 1
    for k in range(n):
        c = k - 2 * n  # column k, from the end
        p = next((i for i in range(k, n) if rows[i][c]), None)
        if p is None:
            raise ValueError(f"matrix is singular: no pivot in column {k}")
        prow = rows[p]
        if prow[c] < 0:
            prow = [-x for x in prow]
        rows[p], rows[k] = rows[k], prow  # in this order, p == k keeps the negated row
        pivot, tail = prow[c], prow[c + 1:]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != k:
                rows[i] = [(pivot * x - f * y) // prev for x, y in zip(row[c + 1:], tail)]
            elif not f and pivot != prev:  # (pivot row - 0) / prev; unchanged when equal
                rows[i] = [pivot * x // prev for x in row[c + 1:]]
        prev = pivot
    ints, den = canonical([x for row in rows for x in row[-n:]], prev)
    return list(ints), den


def invert(a: Mat) -> Mat:
    """Exact inverse by Gauss-Jordan, the Fractions of ``invert_ints``; raises
    as it does."""
    ints, den = invert_ints(a)
    n = len(a)
    return [as_fractions(ints[i * n:i * n + n], den) for i in range(n)]


def _read_off(rows: list[list[int]], pivots: list[int], cols: int, j: int,
              value: int) -> tuple[tuple[int, ...], int]:
    """The canonical form of the first ``cols`` entries of the y with y[j] =
    ``value``, 0 at the other free columns and rows y = 0, for rows and pivots
    in ``_reduce``'s echelon form: y as ints x over den, back-substituted up
    from the last pivot before j; y is 0 past j."""
    x, den = [0] * (j + 1), 1
    x[j] = value
    for k in reversed(range(bisect(pivots, j))):
        row, c = rows[k], pivots[k]
        s = -sum(map(mul, row[c + 1:j + 1], x[c + 1:]))
        g = gcd(s, row[c])
        if g != row[c]:
            scale = row[c] // g
            x, den = [v * scale for v in x], den * scale
        x[c] = s // g
    return canonical(x[:cols] + [0] * (cols - j - 1), den)


def solve_ints(a, b) -> tuple[tuple[tuple[int, ...], int], list[tuple[tuple[int, ...], int]]]:
    """General exact solve of a x = b, a and b of ints or Fractions, in int forms.

    Returns (particular solution with free variables set to 0, nullspace
    basis) as canonical (ints, den): one null vector per free column, in
    ascending order, with a 1 there as its last nonzero entry.  Raises
    ValueError when the system is inconsistent, b's length is not a's row
    count or a's rows differ in length.
    """
    if len(b) != len(a):
        raise ValueError(f"right side has {len(b)} entries for {len(a)} rows")
    cols = _width(a)
    rows = [primitive([*row, v]) for row, v in zip(a, b)]
    pivots = _reduce(rows, cols + 1, echelon=True)
    if cols in pivots:
        raise ValueError("inconsistent linear system")
    free = sorted(set(range(cols)).difference(pivots))
    return (_read_off(rows, pivots, cols, cols, -1),
            [_read_off(rows, pivots, cols, fc, 1) for fc in free])


def null_vector(a) -> tuple[tuple[int, ...], int]:
    """The null vector of a that ``solve_ints(a, zeros)`` lists first, canonical:
    1 at a's leftmost free column, 0 at the others.  One echelon elimination of
    a as given and one back-substitution; ValueError when every column of a has
    a pivot or a's rows differ in length."""
    cols = _width(a)
    rows = [primitive(row) for row in a]
    pivots = _reduce(rows, cols, echelon=True)
    free = next((c for c, p in enumerate(pivots) if c != p), len(pivots))
    if free == cols:
        raise ValueError(f"no null vector: each of the {cols} columns has a pivot")
    return _read_off(rows, pivots, cols, free, 1)


def solve(a: Mat, b: Vec) -> tuple[Vec, list[Vec]]:
    """The Fractions of ``solve_ints``, a zero entry as ``ZERO``; raises as it does."""
    (particular, den), basis = solve_ints(a, b)
    return as_fractions(particular, den), [as_fractions(*v) for v in basis]

