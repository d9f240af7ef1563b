"""Golden conversion tables for linear functions of H and O.

Every table here was transcribed once, by hand, from the published
worked tables for the quaternion and octonion algebras; the verify
command recomputes the same quantities from the structure constants and
diffs the two.  Keeping transcription and computation separate makes a
transcription error distinguishable from a computation error.

Contents per algebra:

  * SIGN_MATRIX / SIGN_MATRIX_INVERSE: the matrix F with
    coordinate-block = F * component-block, and its inverse including
    the published scalar factor (1/4 for H, 1/12 for O).
  * BLOCK_A / BLOCK_B: the block layouts.  Entry (r, c) of A is a
    signed coordinate entry (sign, k, m) standing for sign * f^k_m;
    entry (r, c) of B is a signed standard component (sign, i, j)
    standing for sign * f^{ij}.  Column by column, A = F * B.
  * COORD_GROUPS: the fully written-out coordinate relations
    f^k_m = sum of signed standard components, grouped exactly as
    published (each group shares one list of component terms).
  * STANDARD_GROUPS: the written-out inverse relations
    den * f^{ij} = signed sum of coordinate entries.  For H all four
    groups are transcribed; for O only the diagonal group is (the
    remaining published groups carry typos in the source scan, so the
    others are derived from BLOCK_A/BLOCK_B and the inverse sign
    matrix, which is how they were produced in the first place).
"""

from __future__ import annotations

from fractions import Fraction

# ---------------------------------------------------------------------------
# helpers


def _signs(s: str) -> tuple[int, ...]:
    return tuple(1 if ch == "+" else -1 for ch in s)


def _pairs(text: str) -> tuple[tuple[int, int], ...]:
    return tuple((int(t[0]), int(t[1])) for t in text.split())


def expand_coord_relations(groups) -> dict:
    """COORD_GROUPS -> {(k, m): {(i, j): coefficient}}."""
    out = {}
    for terms, rows in groups:
        for (k, m), signstr in rows:
            out[(k, m)] = {term: Fraction(s)
                           for term, s in zip(terms, _signs(signstr))}
    return out


def expand_standard_relations(groups, den: int) -> dict:
    """STANDARD_GROUPS -> {(i, j): {(k, m): coefficient}} with the 1/den factor."""
    out = {}
    for terms, rows in groups:
        for (i, j), coeffs in rows:
            out[(i, j)] = {term: Fraction(c, den)
                           for term, c in zip(terms, coeffs) if c}
    return out


def derive_standard_relations(block_a, block_b, inverse_numerators, den: int) -> dict:
    """Unfold B = F^{-1} * A column by column into {(i, j): {(k, m): coeff}}."""
    n = len(inverse_numerators)
    out = {}
    for c in range(n):
        for s in range(n):
            sb, i, j = block_b[s][c]
            rel = {}
            for r in range(n):
                sa, k, m = block_a[r][c]
                coeff = Fraction(sb * inverse_numerators[s][r] * sa, den)
                if coeff:
                    rel[(k, m)] = rel.get((k, m), Fraction(0)) + coeff
            out[(i, j)] = {key: v for key, v in rel.items() if v}
    return out


# ---------------------------------------------------------------------------
# quaternion algebra H

QUATERNION_SIGN_MATRIX = (
    (1, -1, -1, -1),
    (1, -1, 1, 1),
    (1, 1, -1, 1),
    (1, 1, 1, -1),
)

QUATERNION_SIGN_MATRIX_INVERSE_NUM = (
    (1, 1, 1, 1),
    (-1, -1, 1, 1),
    (-1, 1, -1, 1),
    (-1, 1, 1, -1),
)
QUATERNION_SIGN_MATRIX_DEN = 4

# block layouts: entry (r, c) of A is sign * f^k_m, of B is sign * f^{ij}
QUATERNION_BLOCK_A = (
    ((+1, 0, 0), (+1, 0, 1), (+1, 0, 2), (+1, 0, 3)),
    ((+1, 1, 1), (-1, 1, 0), (+1, 1, 3), (-1, 1, 2)),
    ((+1, 2, 2), (-1, 2, 3), (-1, 2, 0), (+1, 2, 1)),
    ((+1, 3, 3), (+1, 3, 2), (-1, 3, 1), (-1, 3, 0)),
)
QUATERNION_BLOCK_B = (
    ((+1, 0, 0), (-1, 0, 1), (-1, 0, 2), (-1, 0, 3)),
    ((+1, 1, 1), (+1, 1, 0), (+1, 1, 3), (-1, 1, 2)),
    ((+1, 2, 2), (-1, 2, 3), (+1, 2, 0), (+1, 2, 1)),
    ((+1, 3, 3), (+1, 3, 2), (-1, 3, 1), (+1, 3, 0)),
)

# f^k_m as a signed sum of standard components f^{ij}
QUATERNION_COORD_GROUPS = (
    (_pairs("00 11 22 33"), (
        ((0, 0), "+---"),
        ((1, 1), "+-++"),
        ((2, 2), "++-+"),
        ((3, 3), "+++-"),
    )),
    (_pairs("01 10 23 32"), (
        ((1, 0), "+++-"),
        ((0, 1), "--+-"),
        ((3, 2), "-+--"),
        ((2, 3), "+---"),
    )),
    (_pairs("02 13 20 31"), (
        ((2, 0), "+-++"),
        ((3, 1), "+---"),
        ((0, 2), "---+"),
        ((1, 3), "--+-"),
    )),
    (_pairs("03 12 21 30"), (
        ((3, 0), "++-+"),
        ((2, 1), "---+"),
        ((1, 2), "+---"),
        ((0, 3), "-+--"),
    )),
)

# 4 f^{ij} as a signed sum of coordinate entries f^k_m
QUATERNION_STANDARD_GROUPS = (
    (_pairs("00 11 22 33"), (
        ((0, 0), (1, 1, 1, 1)),
        ((1, 1), (-1, -1, 1, 1)),
        ((2, 2), (-1, 1, -1, 1)),
        ((3, 3), (-1, 1, 1, -1)),
    )),
    (_pairs("01 10 23 32"), (
        ((1, 0), (-1, 1, -1, 1)),
        ((0, 1), (-1, 1, 1, -1)),
        ((3, 2), (-1, -1, -1, -1)),
        ((2, 3), (1, 1, -1, -1)),
    )),
    (_pairs("02 13 20 31"), (
        ((2, 0), (-1, 1, 1, -1)),
        ((3, 1), (1, -1, 1, -1)),
        ((0, 2), (-1, -1, 1, 1)),
        ((1, 3), (-1, -1, -1, -1)),
    )),
    (_pairs("03 12 21 30"), (
        ((3, 0), (-1, -1, 1, 1)),
        ((2, 1), (-1, -1, -1, -1)),
        ((1, 2), (1, -1, -1, 1)),
        ((0, 3), (-1, 1, -1, 1)),
    )),
)

# ---------------------------------------------------------------------------
# octonion algebra O


def _octonion_sign_matrix():
    rows = [[1] + [-1] * 7]
    for r in range(1, 8):
        row = [1] * 8
        row[r] = -1
        rows.append(row)
    return tuple(tuple(row) for row in rows)


def _octonion_sign_matrix_inverse_num():
    rows = [[5] + [1] * 7]
    for r in range(1, 8):
        row = [1] * 8
        row[0] = -1
        row[r] = -5
        rows.append(row)
    return tuple(tuple(row) for row in rows)


OCTONION_SIGN_MATRIX = _octonion_sign_matrix()
OCTONION_SIGN_MATRIX_INVERSE_NUM = _octonion_sign_matrix_inverse_num()
OCTONION_SIGN_MATRIX_DEN = 12

_A_INDEX_ORDERS = (
    (0, 1, 2, 3, 4, 5, 6, 7),
    (1, 0, 3, 2, 5, 4, 7, 6),
    (2, 3, 0, 1, 6, 7, 4, 5),
    (3, 2, 1, 0, 7, 6, 5, 4),
    (4, 5, 6, 7, 0, 1, 2, 3),
    (5, 4, 7, 6, 1, 0, 3, 2),
    (6, 7, 4, 5, 2, 3, 0, 1),
    (7, 6, 5, 4, 3, 2, 1, 0),
)
_A_SIGN_ROWS = (
    "++++++++",
    "+-+-+--+",
    "+--+++--",
    "++--+-+-",
    "+----+++",
    "++-+---+",
    "+++--+--",
    "+-++--+-",
)
_B_SIGN_ROWS = (
    "+-------",
    "+++-+--+",
    "+-++++--",
    "++-++-+-",
    "+---++++",
    "++-+-+-+",
    "+++--++-",
    "+-++--++",
)

OCTONION_BLOCK_A = tuple(
    tuple((s, r, m) for s, m in zip(_signs(_A_SIGN_ROWS[r]), _A_INDEX_ORDERS[r]))
    for r in range(8))
OCTONION_BLOCK_B = tuple(
    tuple((s, r, j) for s, j in zip(_signs(_B_SIGN_ROWS[r]), _A_INDEX_ORDERS[r]))
    for r in range(8))

OCTONION_COORD_GROUPS = (
    (_pairs("00 11 22 33 44 55 66 77"), (
        ((0, 0), "+-------"),
        ((1, 1), "+-++++++"),
        ((2, 2), "++-+++++"),
        ((3, 3), "+++-++++"),
        ((4, 4), "++++-+++"),
        ((5, 5), "+++++-++"),
        ((6, 6), "++++++-+"),
        ((7, 7), "+++++++-"),
    )),
    (_pairs("01 10 23 32 45 54 67 76"), (
        ((1, 0), "+++-+--+"),
        ((0, 1), "--+-+--+"),
        ((3, 2), "-+---++-"),
        ((2, 3), "+---+--+"),
        ((5, 4), "-+-+--+-"),
        ((4, 5), "+-+----+"),
        ((7, 6), "+-+-+---"),
        ((6, 7), "-+-+-+--"),
    )),
    (_pairs("02 13 20 31 46 57 64 75"), (
        ((2, 0), "+-++++--"),
        ((3, 1), "+---++--"),
        ((0, 2), "---+++--"),
        ((1, 3), "--+---++"),
        ((6, 4), "-++----+"),
        ((7, 5), "-++---+-"),
        ((4, 6), "+--+-+--"),
        ((5, 7), "+--++---"),
    )),
    (_pairs("03 12 21 30 47 56 65 74"), (
        ((3, 0), "++-++-+-"),
        ((2, 1), "---+-+-+"),
        ((1, 2), "+---+-+-"),
        ((0, 3), "-+--+-+-"),
        ((7, 4), "--++-+--"),
        ((6, 5), "++--+---"),
        ((5, 6), "--++---+"),
        ((4, 7), "++----+-"),
    )),
    (_pairs("04 15 26 37 40 51 62 73"), (
        ((4, 0), "+---++++"),
        ((5, 1), "+-----++"),
        ((6, 2), "+----+-+"),
        ((7, 3), "+----++-"),
        ((0, 4), "-----+++"),
        ((1, 5), "--+++---"),
        ((2, 6), "-+-++---"),
        ((3, 7), "-++-+---"),
    )),
    (_pairs("05 14 27 36 41 50 63 72"), (
        ((5, 0), "++-+-+-+"),
        ((4, 1), "--+--++-"),
        ((7, 2), "++-+----"),
        ((6, 3), "--+-++--"),
        ((1, 4), "+--+---+"),
        ((0, 5), "-+-+---+"),
        ((3, 6), "++-----+"),
        ((2, 7), "----+++-"),
    )),
    (_pairs("06 17 24 35 42 53 60 71"), (
        ((6, 0), "+++--++-"),
        ((7, 1), "---++-+-"),
        ((4, 2), "---+--++"),
        ((5, 3), "+++-----"),
        ((2, 4), "++---+--"),
        ((3, 5), "----+-++"),
        ((0, 6), "-++--+--"),
        ((1, 7), "+-+--+--"),
    )),
    (_pairs("07 16 25 34 43 52 61 70"), (
        ((7, 0), "+-++--++"),
        ((6, 1), "+-++----"),
        ((5, 2), "-+--+--+"),
        ((4, 3), "-+---+-+"),
        ((3, 4), "+-+---+-"),
        ((2, 5), "+--+--+-"),
        ((1, 6), "----++-+"),
        ((0, 7), "--++--+-"),
    )),
)

# 12 f^{kk}, the diagonal group (the only published inverse group whose
# source scan is clean; the rest are derived from the block layouts)
OCTONION_STANDARD_DIAGONAL_GROUP = (
    (_pairs("00 11 22 33 44 55 66 77"), (
        ((0, 0), (5, 1, 1, 1, 1, 1, 1, 1)),
        ((1, 1), (-1, -5, 1, 1, 1, 1, 1, 1)),
        ((2, 2), (-1, 1, -5, 1, 1, 1, 1, 1)),
        ((3, 3), (-1, 1, 1, -5, 1, 1, 1, 1)),
        ((4, 4), (-1, 1, 1, 1, -5, 1, 1, 1)),
        ((5, 5), (-1, 1, 1, 1, 1, -5, 1, 1)),
        ((6, 6), (-1, 1, 1, 1, 1, 1, -5, 1)),
        ((7, 7), (-1, 1, 1, 1, 1, 1, 1, -5)),
    )),
)


def quaternion_coord_relations() -> dict:
    return expand_coord_relations(QUATERNION_COORD_GROUPS)


def quaternion_standard_relations() -> dict:
    return expand_standard_relations(QUATERNION_STANDARD_GROUPS,
                                     QUATERNION_SIGN_MATRIX_DEN)


def octonion_coord_relations() -> dict:
    return expand_coord_relations(OCTONION_COORD_GROUPS)


def octonion_standard_relations() -> dict:
    """All 64 inverse relations, derived from the block layouts."""
    return derive_standard_relations(OCTONION_BLOCK_A, OCTONION_BLOCK_B,
                                     OCTONION_SIGN_MATRIX_INVERSE_NUM,
                                     OCTONION_SIGN_MATRIX_DEN)


def octonion_diagonal_standard_relations() -> dict:
    return expand_standard_relations(OCTONION_STANDARD_DIAGONAL_GROUP,
                                     OCTONION_SIGN_MATRIX_DEN)
