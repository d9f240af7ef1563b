"""The tests' one exact oracle: plain ``Fraction`` arithmetic and the
defining formulas of the products, importing the standard library alone, so
that no test checks freealg with freealg's own kernels.  Matrices are lists
of rows; ``table`` reads (i, j, k, value) constants into t[i][j] = [(k,
value), ...], an empty cell being ().  One Gauss-Jordan, ``rref``, skipping
zero entries, serves ``rank``, ``solve`` and ``inverse``.  The names that
``perfbench/check.py`` also defines take its arguments and give its results.
"""

from fractions import Fraction
from itertools import compress
from math import lcm

ZERO, ONE = Fraction(0), Fraction(1)


def rref(a, cols=None):
    """(rows, pivots): a's reduced row echelon form over its first ``cols``
    columns (all by default), and the pivot column of each leading row."""
    m = [[Fraction(x) for x in row] for row in a]
    pivots = []
    for c in range((len(m[0]) if m else 0) if cols is None else cols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        terms = [(k, x) for k, x in enumerate(m[r]) if x]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                for k, x in terms:
                    row[k] -= f * x
        pivots.append(c)
    return m, pivots


def rank(a):
    return len(rref(a)[1])


def solve(a, b):
    """(rank, particular, null space) of a x = b, or None when it is
    inconsistent: free variables 0 in the particular solution, and one null
    vector per free column, in column order, 1 there and 0 at the others."""
    cols = len(a[0])
    rows, pivots = rref([[*row, v] for row, v in zip(a, b)])
    if cols in pivots:
        return None
    particular = [ZERO] * cols
    nullspace = {c: row for c, row in enumerate(identity(cols)) if c not in pivots}
    for row, c in zip(rows, pivots):
        particular[c] = row[cols]
        for free, v in nullspace.items():
            v[c] = -row[free]
    return len(pivots), particular, list(nullspace.values())


def inverse(a):
    """The inverse of the square matrix a, or None when a is singular."""
    n = len(a)
    rows, pivots = rref([[*row, *e] for row, e in zip(a, identity(n))], n)
    return [row[n:] for row in rows] if len(pivots) == n else None


def int_form(values):
    """(numerators, den) of the values over den, the lcm of their
    denominators: primitive, as no prime's full power in den divides the
    numerator of a value whose denominator it divides; zeros over 1."""
    values = [Fraction(v) for v in values]
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def identity(n):
    return [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]


def matmul(a, b):
    cols = range(len(b[0]))
    return [[sum((x * b[s][c] for s, x in enumerate(row) if x), ZERO) for c in cols]
            for row in a]


def flat(rows):
    return [v for row in rows for v in row]


def table(constants, dim):
    """Structure constants as t[i][j] = [(k, value), ...]."""
    t = [[()] * dim for _ in range(dim)]  # one shared () keeps a dim-3000 table small
    for i, j, k, v in constants:
        t[i][j] = [*t[i][j], (k, Fraction(v))]
    return t


def mul(t, x, y):
    """sum_{i,j} c_{ij}^k x^i y^j, the product of two coordinate vectors."""
    out = [ZERO] * len(x)
    for i, xi in enumerate(x):
        if xi:
            for j in compress(range(len(y)), t[i]):  # the nonempty cells
                if y[j]:
                    for k, v in t[i][j]:
                        out[k] += xi * y[j] * v
    return out


def twisted(t, s, u):
    """(s o u)^{pq} = sum s^{ij} u^{kl} c_{ik}^p c_{lj}^q, the product with
    (a (x) b) o (c (x) d) = (ac) (x) (db), on n x n component grids."""
    n = len(s)
    out = [[ZERO] * n for _ in range(n)]
    for i, j, k, l in ((i, j, k, l) for i in range(n) for j in range(n) if s[i][j]
                       for k in range(n) for l in range(n) if u[k][l]):
        for p, v1 in t[i][k]:
            for q, v2 in t[l][j]:
                out[p][q] += s[i][j] * u[k][l] * v1 * v2
    return out


def grid_matrix(f, n):
    """The matrix of the linear map f on n x n grids, both read row by row."""
    units = [[[ONE if (r, c) == (k, l) else ZERO for c in range(n)] for r in range(n)]
             for k in range(n) for l in range(n)]
    return [list(row) for row in zip(*(flat(f(e)) for e in units))]


def left_action(t, s):
    """Matrix of u -> s o u on flattened n x n grids (row-major)."""
    return grid_matrix(lambda u: twisted(t, s, u), len(s))


def sandwich(t, comps, order):
    """Coordinate matrix of x -> sum f^{ij} (e_i x) e_j ("left") or
    x -> sum f^{ij} e_i (x e_j) ("right"), where comps[i][j] = f^{ij}."""
    n = len(comps)
    out = [[ZERO] * n for _ in range(n)]
    for i, j, m in ((i, j, m) for i in range(n) for j in range(n) if comps[i][j]
                    for m in range(n)):
        for p, v1 in t[i][m] if order == "left" else t[m][j]:
            for k, v2 in t[p][j] if order == "left" else t[i][p]:
                out[k][m] += comps[i][j] * v1 * v2
    return out


def component_matrix(t, order):
    """The component matrix B: column i n + j is the sandwich of e_i (x) e_j."""
    return grid_matrix(lambda comps: sandwich(t, comps, order), len(t))


def tensor_constants(factors):
    """(dim, sorted constants) of the tensor product of the algebras given as
    (dim, constants): one constant of each factor multiplied, at row-major
    flat indices."""
    dim, out = 1, [(0, 0, 0, ONE)]
    for n, constants in factors:
        out = [(i * n + p, j * n + q, k * n + r, v * Fraction(w))
               for i, j, k, v in out for p, q, r, w in constants]
        dim *= n
    return dim, sorted(out)
