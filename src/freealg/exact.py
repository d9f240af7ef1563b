"""Exact linear algebra over the rationals.

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

``mat_mul`` sums over ints too, with one lcm of denominators per row of a
and one per column of b; one lcm for all of b would lengthen every
product.  ``mat_vec`` stays on Fraction: its vector is used once, and the
lcm of its n denominators would make every product longer than the
Fraction terms it replaces.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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


def mat_add(a: Mat, b: Mat) -> Mat:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    cols = [as_ints(col) for col in zip(*b)]
    b_rows = [[(j, v) for j, v in enumerate(row) if v]
              for row in zip(*(ints for ints, _ in cols))]
    out = []
    for row in a:
        ints, den = as_ints(row)
        acc = [0] * len(cols)
        for aik, bk in zip(ints, b_rows):
            if aik:
                for j, v in bk:
                    acc[j] += aik * v
        out.append([Fraction(v, den * col_den) if v else ZERO
                    for v, (_, col_den) in zip(acc, cols)])
    return out


def mat_vec(a: Mat, v: Vec) -> Vec:
    support = [j for j, x in enumerate(v) if x != 0]
    return [sum((row[j] * v[j] for j in support if row[j] != 0), ZERO) for row in a]


def as_ints(values) -> tuple[list[int], int]:
    """(ints, den) with values[i] = ints[i] / den, den the lcm of their denominators."""
    pairs = [x.as_integer_ratio() for x in values]
    den = lcm(*[d for _, d in pairs])
    return [n * (den // d) for n, d in pairs], den


def as_fractions(ints, den: int) -> Vec:
    """The Fractions ints[i] / den; ``as_ints`` undone."""
    return [Fraction(x, den) if x else ZERO for x in ints]


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
    """Exact inverse by Gauss-Jordan; raises ValueError naming the first
    pivot column that could not be produced when singular."""
    n = len(a)
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
    system is inconsistent.
    """
    cols = len(a[0]) if a else 0
    rows = [_int_row([*a[i], b[i]]) for i in range(len(a))]
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
    coeffs, _ = solve(mat_mul(basis, columns), mat_vec(basis, v))
    return [x - p for x, p in zip(v, mat_vec(columns, coeffs))]


def primitive(v: Vec) -> Vec:
    """Scale a nonzero rational vector to coprime integers with a
    positive leading entry."""
    ints = _int_row(v)
    lead = next((x for x in ints if x != 0), None)
    if lead is None:
        raise ValueError("zero vector has no primitive form")
    sign = -1 if lead < 0 else 1
    return [Fraction(sign * x) for x in ints]
