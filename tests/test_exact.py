"""The integer elimination kernel of freealg.exact against an oracle.

The oracle is a textbook Gauss-Jordan on Fraction, written here and
calling nothing in freealg.  The reduced row echelon form of a matrix is
unique, so rref, rank, the particular solution (free variables 0), the
null-space basis, the inverse and the first missing pivot column must
all match it exactly.
"""

import ast
import random
from collections import deque
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from freealg import exact


def oracle_rref(a, cols):
    m = [[Fraction(x) for x in row] for row in a]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def oracle_solve(a, b, cols):
    """(particular, nullspace basis), or None when inconsistent."""
    r, pivots = oracle_rref([list(row) + [rhs] for row, rhs in zip(a, b)], cols + 1)
    if cols in pivots:
        return None
    particular = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        particular[c] = r[i][cols]
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -r[i][fc]
        basis.append(v)
    return particular, basis


def times(a, x):
    return [sum((p * q for p, q in zip(row, x)), Fraction(0)) for row in a]


def entry(rng, big):
    if big:
        return Fraction(rng.randint(-2 ** 40, 2 ** 40), rng.randint(1, 2 ** 40))
    return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))


def random_matrix(rng, rows, cols, rank=None, big=False):
    """A rows x cols matrix of at most the given rank, as a product of two
    random factors, with a few zero rows and columns put in."""
    rank = min(rows, cols) if rank is None else rank
    left = [[entry(rng, big) for _ in range(rank)] for _ in range(rows)]
    right = [[entry(rng, big) for _ in range(cols)] for _ in range(rank)]
    m = [[sum((left[i][t] * right[t][j] for t in range(rank)), Fraction(0))
          for j in range(cols)] for i in range(rows)]
    for _ in range(rng.randint(0, 1)):
        m[rng.randrange(rows)] = [Fraction(0)] * cols
    for _ in range(rng.randint(0, 1)):
        j = rng.randrange(cols)
        for row in m:
            row[j] = Fraction(0)
    return m


def cases(seed, count):
    rng = random.Random(seed)
    for k in range(count):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        rank = rng.randint(0, min(rows, cols))
        yield rng, random_matrix(rng, rows, cols, rank, big=k % 3 == 0), cols


def test_rref_and_rank_match_oracle():
    for _, m, cols in cases(1, 60):
        expected = oracle_rref(m, cols)
        assert exact.rref(m) == expected
        assert exact.rank(m) == len(expected[1])


def test_rref_integer_dense_and_sparse_shapes():
    assert exact.rref([]) == ([], [])
    assert exact.rank([]) == 0
    assert exact.rank([[Fraction(0), Fraction(0)]]) == 0
    sparse = [[Fraction(v) for v in row] for row in
              ([0, -1, 0, 1], [1, 0, 0, 0], [0, 0, -1, 0], [0, 1, 0, 1])]
    assert exact.rref(sparse) == oracle_rref(sparse, 4)


def test_solve_matches_oracle_on_consistent_systems():
    for rng, m, cols in cases(2, 60):
        x = [entry(rng, False) for _ in range(cols)]
        b = times(m, x)
        particular, basis = exact.solve(m, b)
        assert (particular, basis) == oracle_solve(m, b, cols)
        assert times(m, particular) == b
        assert all(times(m, v) == [0] * len(m) for v in basis)


def test_solve_inconsistent_matches_oracle():
    rejected = 0
    for rng, m, cols in cases(3, 60):
        b = [entry(rng, rng.random() < 0.3) for _ in m]
        expected = oracle_solve(m, b, cols)
        if expected is None:
            rejected += 1
            with pytest.raises(ValueError, match="^inconsistent linear system$"):
                exact.solve(m, b)
        else:
            assert exact.solve(m, b) == expected
    assert rejected > 10
    with pytest.raises(ValueError, match="^inconsistent linear system$"):
        exact.solve([[Fraction(1), Fraction(2)], [Fraction(0), Fraction(0)]],
                    [Fraction(3), Fraction(1)])


def test_solve_refuses_a_right_side_of_another_length():
    a = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    for b in ([Fraction(1)], [Fraction(1), Fraction(2), Fraction(3)]):
        with pytest.raises(ValueError, match=f"^right side has {len(b)} entries for 2 rows$"):
            exact.solve(a, b)


def test_invert_refuses_a_non_square_matrix():
    for a in ([[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]], [[1, 0], [0]]):
        message = f"^cannot invert a non-square matrix with {len(a)} rows$"
        with pytest.raises(ValueError, match=message):
            exact.invert([[Fraction(v) for v in row] for row in a])


def test_invert_matches_oracle():
    rng = random.Random(4)
    singular = 0
    for k in range(40):
        n = rng.randint(1, 8)
        rank = n if k % 2 else rng.randint(0, n)
        m = random_matrix(rng, n, n, rank, big=k % 4 == 1)
        ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        reduced, pivots = oracle_rref([row + e for row, e in zip(m, ident)], n)
        missing = next((c for c in range(n) if c not in pivots), None)
        if missing is None:
            inverse = exact.invert(m)
            assert inverse == [row[n:] for row in reduced]
            assert times(m, [row[0] for row in inverse]) == [row[0] for row in ident]
        else:
            singular += 1
            with pytest.raises(ValueError,
                               match=f"^matrix is singular: no pivot in column {missing}$"):
                exact.invert(m)
    assert singular > 5


def test_components_split_the_nonzero_graph():
    # rows 0 and 3 share column 1; row 2 joins columns 0 and 3; row 1 and
    # column 2 are zero, so each is a component on its own
    cells = [(0, 1), (2, 0), (2, 3), (3, 1)]
    assert exact.components(4, 4, cells) == [([0, 3], [1]), ([1], []), ([2], [0, 3]), ([], [2])]
    assert exact.components(2, 2, [(0, 1), (1, 0)]) == [([0], [1]), ([1], [0])]
    assert exact.components(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)]) == [([0, 1], [0, 1])]
    assert exact.components(0, 0, []) == []


def bfs_components(n_rows, n_cols, cells):
    """Components by breadth-first search from each unvisited node, rows
    before columns, so each component comes at its first node."""
    neighbours = {("r", r): set() for r in range(n_rows)}
    neighbours.update({("c", c): set() for c in range(n_cols)})
    for r, c in cells:
        neighbours["r", r].add(("c", c))
        neighbours["c", c].add(("r", r))
    seen, out = set(), []
    for start in [("r", r) for r in range(n_rows)] + [("c", c) for c in range(n_cols)]:
        if start in seen:
            continue
        seen.add(start)
        queue, members = deque([start]), [start]
        while queue:
            for node in neighbours[queue.popleft()]:
                if node not in seen:
                    seen.add(node)
                    queue.append(node)
                    members.append(node)
        out.append((sorted(i for kind, i in members if kind == "r"),
                    sorted(i for kind, i in members if kind == "c")))
    return out


@given(st.data())
def test_components_match_breadth_first_search(data):
    n_rows = data.draw(st.integers(0, 7))
    n_cols = data.draw(st.integers(0, 7))
    if n_rows and n_cols:  # sparse: most rows and columns keep few cells, some none
        cell = st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1))
        cells = data.draw(st.lists(cell, max_size=n_rows + n_cols))
    else:
        cells = []
    assert exact.components(n_rows, n_cols, cells) == bfs_components(n_rows, n_cols, cells)


def test_only_reduce_runs_elimination():
    # one elimination driver: no function in freealg but exact._reduce
    # calls the row step _eliminate
    package = Path(exact.__file__).parent
    callers = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and "_eliminate" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    callers.add(f"{path.stem}.{func.name}")
    assert callers == {"exact._reduce"}
