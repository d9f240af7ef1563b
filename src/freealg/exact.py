"""Exact linear algebra over the rationals, and the integer form of values.

Matrices are lists or tuples of rows of Fractions or ints; results are lists.
Nothing in this module ever rounds; every function either returns exact
rationals or raises.

Elimination runs in two loops over Python ints.  ``_reduce`` serves rank,
solve_ints, factor and the span of ``linmap.representation_basis``;
``factor`` and the span run it as Gauss-Jordan, ``rank`` and
``solve_ints`` stop at echelon form, clearing below each pivot only,
about half the row steps.  A row enters scaled by the lcm of its
denominators; each row step cross-multiplies by the pivot and divides the
row by the gcd of its entries, so rows stay short on the sparse +-1
blocks of the component matrix, whose minors grow.  ``_bareiss`` divides
each row step exactly by an earlier pivot, as Bareiss does (Math. Comp.
22, 1968), with no gcd: ``invert_ints`` runs it as Gauss-Jordan on
[a | I], ``null_vector`` in echelon form, and both stop at the first
column without a pivot.  Its rows are Bareiss's, minors of the input, up
to a deferred scale: a row with 0 in the pivot column is not rewritten
and stays over the pivot it was last divided by, and when a later step
rewrites it, p row - f pivot_row is divided by that pivot, exactly, as
the quotient is Bareiss's row.  One back-substitution over echelon rows,
``_read_off``, reads a vector off exactly and makes it canonical:
``solve_ints`` reads its particular solution and each null vector,
``null_vector`` the first null vector alone.

Measured in process on 2 CPUs (Python 3.11), exact division inverts H's
tensor maps in about 0.5x the time of ``_reduce``, random maps on O,
H (x) H and O (x) H in 0.64-0.73x, a basis shift of O (x) O in
0.47-0.54x and shifts of random elements in 0.74x (O (x) O) to about
1.06x (O (x) H, whose minors share a factor the gcd divides out);
deferring the scale takes 0.89-1.00x the time of rescaling every row at
every step.  ``null_vector`` of the [M | -b] of ``solver.solve_additive``
over C, H, O and H (x) H takes 0.63-0.79x the time of ``_reduce`` on
dense systems, singular or not, 0.59-1.00x on shifts of random elements,
0.84-0.99x on basis shifts with rational right sides and 0.62-0.89x on
singular ones.  It runs the Gram solve of ``linmap.representation_basis``
too, the one null vector of [R R^T | -R e_c], in 0.73-0.75x the time of
``solve_ints`` on square-zero algebras of dim 12-30 and 1.15x on O (x) C.
On ``_reduce``'s callers, whose rows share factors, such as B's class
grids and ``orbit_contains``' dense system, exact division was 2.2-19x
slower.

Fractions appear only on the way out, and ``as_fractions`` builds
every one the package reads off an int form: the coordinates and
components of ``IntForm`` values, B's relations, an algebra's constants,
``norm_sq`` and the views ``invert``, ``solve`` and ``mat_mul``.  It
reduces each value by one gcd, the denominator being positive already,
and sets the two slots of ``object.__new__(Fraction)`` as
``Fraction._from_coprime_ints`` does on Python 3.12, skipping the
pure-Python ``Fraction.__new__``, about 1 us a value on 3.11: 64 values
of an O conversion take 25-33 us, against 66-79 us through ``Fraction``.
Only their own tests and the benchmark's tracer read ``invert``,
``solve``, ``rank`` and ``mat_mul``; nothing in the package calls them.

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
_new = object.__new__


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
    b_den = lcm(*(d for _, d in cols))  # each row of the product over den * b_den
    scales = [b_den // d for _, d in cols]
    return [as_fractions(list(map(mul, acc, scales)), den * b_den)
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
    """The Fractions ints[i] / den, den > 0, ``ZERO`` for a 0; ``as_ints`` undone.

    The library's one builder of Fractions from ints: each value is reduced
    by one gcd and made as ``Fraction._from_coprime_ints`` does on Python
    3.12, its two slots set directly, without ``Fraction.__new__``."""
    out = []
    for x in ints:
        if x:
            g = gcd(x, den)
            value = _new(Fraction)
            if g == 1:
                value._numerator, value._denominator = x, den
            else:
                value._numerator, value._denominator = x // g, den // g
            out.append(value)
        else:
            out.append(ZERO)
    return out


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
    try:
        g = gcd(*row)  # a TypeError when the row holds a Fraction
    except TypeError:
        row = as_ints(row)[0]
        g = gcd(*row)
    if next(filter(None, row), 0) < 0:
        g = -g
    return [x // g for x in row] if g not in (0, 1) else list(row)


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


def _bareiss(rows: list[list[int]], cols: int, jordan: bool = False) -> tuple[int, list[int]]:
    """Exact-division elimination, in place, over the first ``cols`` columns,
    up to the first column without a pivot.  Returns (k, over): columns
    0..k-1 have positive pivots on rows 0..k-1, and rows k on are 0 in
    column k unless k is ``cols`` or the number of rows.  Step k negates
    the first row at or below k with a nonzero in column k to a positive
    pivot p and clears column k below row k, and above it with ``jordan``:
    a row with entry f there becomes (p row - f pivot_row) / over[row], then
    over p.  A row over d stands for rows[i] times the last pivot over d,
    Bareiss's row, so each division is exact; a stale pivot row is scaled to
    the previous pivot once, and a pivot row counts as over its own pivot.
    A rewritten row keeps only the columns after k, counted from the end."""
    n, width = len(rows), len(rows[0]) if rows else 0
    over, prev = [1] * n, 1
    for k in range(min(n, cols)):
        c = k - width  # column k, from the end
        for p in range(k, n):
            if rows[p][c]:
                break
        else:
            return k, over
        prow = rows[p]
        if over[p] != prev:
            prow = [x * prev // over[p] for x in prow]
        if prow[c] < 0:
            prow = [-x for x in prow]
        rows[p], rows[k] = rows[k], prow  # in this order, p == k keeps the new row
        pivot, tail = prow[c], prow[c + 1:]
        over[p], over[k] = over[k], pivot
        for i in range(0 if jordan else k + 1, n):
            f = rows[i][c]
            if f and i != k:
                d = over[i]
                rows[i] = [(pivot * x - f * y) // d for x, y in zip(rows[i][c + 1:], tail)]
                over[i] = pivot
        prev = pivot
    return min(n, cols), over


def invert_ints(a) -> tuple[list[int], int]:
    """The inverse of the square matrix a, of ints or Fractions, as canonical
    (ints, den): its entries row by row as ints over den.  ValueError when
    a is not square, and when it is singular, naming the first column
    without a pivot.

    ``_bareiss``' Gauss-Jordan on [D a | D], D the diagonal of each row's
    lcm of denominators (1 on a row of ints): its last pivot is |det D a|,
    the left half stands for that pivot times I, and so the right half,
    each stale row scaled to the last pivot, is a's inverse over it."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError(f"cannot invert a non-square matrix with {n} rows")
    rows = []
    for i, row in enumerate(a):
        ints, den = (row, 1) if all(type(x) is int for x in row) else as_ints(row)
        rows.append([*ints, *[0] * i, den, *[0] * (n - 1 - i)])
    k, over = _bareiss(rows, n, jordan=True)
    if k < n:
        raise ValueError(f"matrix is singular: no pivot in column {k}")
    last = over[-1] if n else 1
    if over.count(last) < n:
        rows = [row if d == last else [x * last // d for x in row] for row, d in zip(rows, over)]
    ints, den = canonical([x for row in rows for x in row[-n:]], last)
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
    1 at a's leftmost free column, 0 at the others.  ``_bareiss``' echelon
    elimination of a's primitive rows, up to that column, and one
    back-substitution; ValueError when every column of a has a pivot or a's
    rows differ in length."""
    cols = _width(a)
    rows = [primitive(row) for row in a]
    free, _ = _bareiss(rows, cols)
    if free == cols:
        raise ValueError(f"no null vector: each of the {cols} columns has a pivot")
    rows = [[0] * (cols - len(row)) + row for row in rows[:free]]
    return _read_off(rows, range(free), cols, free, 1)


def solve(a: Mat, b: Vec) -> tuple[Vec, list[Vec]]:
    """The Fractions of ``solve_ints``, a zero entry as ``ZERO``; raises as it does."""
    (particular, den), basis = solve_ints(a, b)
    return as_fractions(particular, den), [as_fractions(*v) for v in basis]

