"""Independent exact arithmetic for checking freealg's results.

Everything here works on plain ``fractions.Fraction`` values, lists and
structure constants given as (i, j, k, value) quadruples.  Nothing calls
into freealg, so a defect in the code under test cannot also corrupt the
check that is meant to catch it.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def table(constants, dim):
    """Structure constants as t[i][j] = [(k, value), ...]."""
    t = [[[] for _ in range(dim)] for _ in range(dim)]
    for i, j, k, v in constants:
        t[i][j].append((k, Fraction(v)))
    return t


def mul(t, x, y):
    """Product of two coordinate vectors under the table t."""
    out = [ZERO] * len(x)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                if yj:
                    c = xi * yj
                    for k, v in t[i][j]:
                        out[k] += c * v
    return out


def twisted(t, s, u):
    """(s o u)^{pq} = sum s^{ij} u^{kl} B[i][k][p] B[l][j][q], the product
    with (a (x) b) o (c (x) d) = (ac) (x) (db), on n x n component grids."""
    n = len(s)
    out = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sij = s[i][j]
            if not sij:
                continue
            for k in range(n):
                for l in range(n):
                    ukl = u[k][l]
                    if not ukl:
                        continue
                    c = sij * ukl
                    for p, v1 in t[i][k]:
                        for q, v2 in t[l][j]:
                            out[p][q] += c * v1 * v2
    return out


def sandwich(t, comps, order):
    """Coordinate matrix of x -> sum f^{ij} (e_i x) e_j ("left") or
    x -> sum f^{ij} e_i (x e_j) ("right"), where comps[i][j] = f^{ij}."""
    n = len(comps)
    out = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            f = comps[i][j]
            if not f:
                continue
            for m in range(n):
                if order == "left":
                    for p, v1 in t[i][m]:
                        for k, v2 in t[p][j]:
                            out[k][m] += f * v1 * v2
                else:
                    for p, v1 in t[m][j]:
                        for k, v2 in t[i][p]:
                            out[k][m] += f * v1 * v2
    return out


def identity(n):
    return [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]


def matmul(a, b):
    return [[sum((a[r][s] * b[s][c] for s in range(len(b))), ZERO)
             for c in range(len(b[0]))] for r in range(len(a))]


def block_apply(blocks, xs):
    """y_i = sum_j blocks[i][j] x_j for a grid of square coordinate matrices."""
    out = []
    for row in blocks:
        y = [ZERO] * len(xs[0])
        for block, x in zip(row, xs):
            for r, brow in enumerate(block):
                y[r] += sum((v * xv for v, xv in zip(brow, x) if xv), ZERO)
        out.append(y)
    return out


def flatten(blocks):
    """The block grid as one rational matrix."""
    return [[v for block in row for v in block[r]]
            for row in blocks for r in range(len(row[0]))]


def rank(a):
    """Rank by Gauss elimination over Fraction."""
    m = [list(row) for row in a]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def left_action(t, s):
    """Matrix of u -> s o u on flattened n x n grids (row-major)."""
    n = len(s)
    cols = []
    for k in range(n):
        for l in range(n):
            e = [[ONE if (r, c) == (k, l) else ZERO for c in range(n)] for r in range(n)]
            cols.append([v for row in twisted(t, s, e) for v in row])
    return [[cols[c][r] for c in range(n * n)] for r in range(n * n)]


def is_zero(values):
    return all(v == 0 for v in values)


def flat(rows):
    return [v for row in rows for v in row]


def quaternion_family(a, b):
    """Constants of E(a, b) on 1, i, j, k: i^2 = a, j^2 = b, ij = k = -ji,
    ik = a j, ki = -a j, jk = -b i, kj = b i, k^2 = -ab."""
    unit = [(0, 0, 0, ONE)] + [(0, x, x, ONE) for x in (1, 2, 3)] + \
           [(x, 0, x, ONE) for x in (1, 2, 3)]
    return unit + [
        (1, 1, 0, a), (1, 2, 3, ONE), (1, 3, 2, a),
        (2, 1, 3, -ONE), (2, 2, 0, b), (2, 3, 1, -b),
        (3, 1, 2, -a), (3, 2, 1, b), (3, 3, 0, -a * b),
    ]
