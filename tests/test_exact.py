"""The integer elimination kernel of freealg.exact against an oracle.

The oracle is the textbook Gauss-Jordan on Fraction of ``oracle.py``,
which calls nothing in freealg.  The reduced row echelon form of a matrix is
unique, so rank, the particular solution (free variables 0), the
null-space basis, the inverse, the first missing pivot column and the
reduced rows of ``factor`` must all match it exactly.
"""

import ast
import importlib
import random
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from freealg import FreeAlgebra, b_matrix, exact, golden, octonion_algebra
from conftest import block_grids
import oracle


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


def test_rank_matches_oracle():
    for _, m, _ in cases(1, 60):
        assert exact.rank(m) == oracle.rank(m)


def test_rank_integer_dense_and_sparse_shapes():
    assert exact.rank([]) == 0
    assert exact.rank([[Fraction(0), Fraction(0)]]) == 0
    sparse = [[Fraction(v) for v in row] for row in
              ([0, -1, 0, 1], [1, 0, 0, 0], [0, 0, -1, 0], [0, 1, 0, 1])]
    assert exact.rank(sparse) == oracle.rank(sparse) == 4
    # int rows give the same answer and are eliminated in copies, not in place
    ints = [[int(v) for v in row] for row in sparse]
    assert exact.rank(ints) == 4
    assert ints == [[int(v) for v in row] for row in sparse]


def test_solve_matches_oracle_on_consistent_systems():
    for rng, m, cols in cases(2, 60):
        x = [entry(rng, False) for _ in range(cols)]
        b = times(m, x)
        particular, basis = exact.solve(m, b)
        assert (particular, basis) == oracle.solve(m, b)[1:]
        assert times(m, particular) == b
        assert all(times(m, v) == [0] * len(m) for v in basis)


def test_solve_inconsistent_matches_oracle():
    rejected = 0
    for rng, m, _ in cases(3, 60):
        b = [entry(rng, rng.random() < 0.3) for _ in m]
        expected = oracle.solve(m, b)
        if expected is None:
            rejected += 1
            with pytest.raises(ValueError, match="^inconsistent linear system$"):
                exact.solve(m, b)
        else:
            assert exact.solve(m, b) == expected[1:]
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


def test_mat_mul_refuses_shapes_it_cannot_multiply():
    one = [[1, 0], [0, 1]]
    for a, b in (([[1, 2, 3], [4, 5, 6]], one), (one, [[1, 2, 3]]),
                 ([[1, 2], [3]], one), (one, [[1, 2], [3]])):
        message = f"^cannot multiply: a's rows need {len(b)} entries, b's rows one length$"
        with pytest.raises(ValueError, match=message):
            exact.mat_mul(a, b)
    assert exact.mat_mul([[1, 2, 3]], [[1], [0], [2]]) == [[7]]


def test_elimination_refuses_ragged_rows():
    # the ragged [[1], [3, 4]] once read rank 1 off a rank-2 matrix, and
    # [[1, 2], [3]] raised IndexError
    def solve(a):
        return exact.solve(a, [1, 1])

    for call, a in ((exact.rank, [[1], [3, 4]]), (exact.rank, [[1, 2], [3]]),
                    (solve, [[1], [3, 4]]), (solve, [[1, 2], [3]])):
        with pytest.raises(ValueError, match="^rows have differing lengths"):
            call(a)


def test_invert_matches_oracle():
    rng = random.Random(4)
    singular = 0
    for k in range(40):
        n = rng.randint(1, 8)
        rank = n if k % 2 else rng.randint(0, n)
        m = random_matrix(rng, n, n, rank, big=k % 4 == 1)
        if check_inverse(m) is None:
            assert times(m, [row[0] for row in exact.invert(m)]) == oracle.identity(n)[0]
        else:
            singular += 1
    assert singular > 5


def check_inverse(m):
    """invert_ints(m) is the oracle's inverse as canonical ints over one
    denominator and invert is exactly its Fractions; or, when m is
    singular, both name the oracle's first column without a pivot, which
    is returned (None for an invertible m)."""
    n = len(m)
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    reduced, pivots = oracle.rref([list(row) + e for row, e in zip(m, ident)], n)
    missing = next((c for c in range(n) if c not in pivots), None)
    if missing is None:
        ints, den = exact.invert_ints(m)
        assert all(type(x) is int for x in ints) and type(ints) is list and type(den) is int
        assert exact.canonical(ints, den) == (tuple(ints), den)
        view = [[Fraction(x, den) for x in ints[i * n:i * n + n]] for i in range(n)]
        assert view == [row[n:] for row in reduced] == exact.invert(m)
    else:
        for call in (exact.invert_ints, exact.invert):
            with pytest.raises(ValueError,
                               match=f"^matrix is singular: no pivot in column {missing}$"):
                call(m)
    return missing


def test_invert_is_the_fraction_view_of_its_int_core():
    # on int and Fraction matrices of size 1 to 16, drawn and built to steer
    # each branch of the pivot step
    rng = random.Random(19)
    singular = 0
    for k in range(40):
        n = rng.randint(1, 8) if k % 4 else rng.randint(9, 16)
        m = random_matrix(rng, n, n, n if k % 3 else rng.randint(0, n), big=k % 4 == 1)
        if k % 2:  # each row over its lcm of denominators: ints of the same rank
            m = [[int(x * lcm(*(y.denominator for y in row))) for x in row] for row in m]
        singular += check_inverse(m) is not None
    assert singular > 3
    # a negative pivot swapped up and one already in place (the negated row
    # must be the one kept), rows with 0 in the pivot column, left over an
    # older pivot while the pivot changes or stays, rows of ints beside rows
    # of Fractions
    for m in ([[0, 1], [-3, 2]], [[-2, 1], [1, 1]], [[1, 0], [0, -1]], [[-1, 0], [0, -1]],
              [[2, 0, 1], [0, 3, 1], [1, 1, 1]], [[2, 0, 0], [0, 3, 0], [0, 0, 5]],
              [[1, 0, 2], [0, 1, 3], [4, 5, 1]], [[0, 0, 1], [0, 2, 0], [-3, 0, 0]],
              [[1, 2], [Fraction(1, 3), Fraction(1, 2)]],
              [[Fraction(-1, 2), Fraction(1, 3)], [Fraction(2, 5), 0]]):
        assert check_inverse(m) is None
    assert exact.invert_ints([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == ([15, 0, 0, 0, 10, 0, 0, 0, 6], 30)
    assert exact.invert_ints([[-2, 1], [1, 1]]) == ([-1, 1, 1, 2], 3)
    # a signed permutation inverts to its transpose over 1; the sign
    # matrices F of H and O to the inverses transcribed in freealg.golden
    for n in (1, 2, 5, 8, 16):
        for _ in range(3):
            perm = rng.sample(range(n), n)
            m = [[rng.choice((-1, 1)) * int(j == perm[i]) for j in range(n)] for i in range(n)]
            assert check_inverse(m) is None
            assert exact.invert_ints(m) == (exact.vec(zip(*m)), 1)
    for sign, num, den in ((golden.QUATERNION_SIGN_MATRIX, golden.QUATERNION_SIGN_MATRIX_INVERSE_NUM,
                            golden.QUATERNION_SIGN_MATRIX_DEN),
                           (golden.OCTONION_SIGN_MATRIX, golden.OCTONION_SIGN_MATRIX_INVERSE_NUM,
                            golden.OCTONION_SIGN_MATRIX_DEN)):
        assert check_inverse(sign) is None
        assert exact.invert_ints(sign) == (exact.vec(num), den)
    # column c a combination of the columns before it (0 when c = 0) in an
    # otherwise invertible matrix: each column in turn is the one named
    for n in (1, 2, 5, 9):
        for c in range(n):
            while True:
                m = random_matrix(rng, n, n, big=n < 5 and c % 2 == 1)
                if check_inverse(m) is None:
                    break
            weights = [entry(rng, False) for _ in range(c)]
            for row in m:
                row[c] = sum((w * x for w, x in zip(weights, row)), Fraction(0))
            assert check_inverse(m) == c
            ints = [[int(x * lcm(*(y.denominator for y in row))) for x in row] for row in m]
            assert check_inverse(ints) == c
    for a in ([[1, 0, 0], [0, 1, 0]], [[1, 0], [0]]):
        message = f"^cannot invert a non-square matrix with {len(a)} rows$"
        with pytest.raises(ValueError, match=message):
            exact.invert_ints(a)
    assert exact.invert_ints([]) == ([], 1) and exact.invert([]) == []


def solve_cases(seed, count):
    """(a, b, oracle answer or None) for full-rank, rank-deficient and
    inconsistent systems in turn, half of them as rows of ints."""
    rng = random.Random(seed)
    for k in range(count):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        kind = k % 3
        rank = min(rows, cols) if kind == 0 else rng.randint(0, min(rows, cols) - 1)
        a = random_matrix(rng, rows, cols, rank, big=k % 4 == 1)
        b = (times(a, [entry(rng, False) for _ in range(cols)]) if kind < 2
             else [entry(rng, rng.random() < 0.3) for _ in a])
        if k % 2:  # each row of [a | b] over its lcm of denominators
            scales = [lcm(*(y.denominator for y in (*row, v))) for row, v in zip(a, b)]
            a = [[int(x * s) for x in row] for row, s in zip(a, scales)]
            b = [int(v * s) for v, s in zip(b, scales)]
        solved = oracle.solve(a, b)
        yield a, b, solved and solved[1:]


def test_solve_ints_matches_the_oracle_in_canonical_int_forms():
    # the same pivots, the particular solution with its free entries 0, and
    # one null vector per free column, sorted by it, each as canonical ints
    def canonical(form, cols):
        ints, den = form
        return (type(ints) is tuple and len(ints) == cols and type(den) is int and den > 0
                and all(type(x) is int for x in ints) and gcd(den, *ints) == 1)

    seen = {"full": 0, "deficient": 0, "inconsistent": 0}
    for a, b, want in solve_cases(23, 90):
        cols = len(a[0])
        if want is None:
            seen["inconsistent"] += 1
            with pytest.raises(ValueError, match="^inconsistent linear system$"):
                exact.solve_ints(a, b)
            continue
        particular, basis = exact.solve_ints(a, b)
        _, pivots = oracle.rref(a)
        seen["full" if len(pivots) == min(len(a), cols) else "deficient"] += 1
        free = [c for c in range(cols) if c not in pivots]
        assert all(canonical(form, cols) for form in [particular, *basis])
        assert [Fraction(x, particular[1]) for x in particular[0]] == want[0]
        assert all(particular[0][c] == 0 for c in free)
        assert [[Fraction(x, den) for x in ints] for ints, den in basis] == want[1]
        assert [max(c for c, x in enumerate(ints) if x) for ints, _ in basis] == free
    assert min(seen.values()) > 10, seen


def test_solve_is_the_fraction_view_of_solve_ints():
    for a, b, want in solve_cases(29, 60):
        if want is None:
            continue
        (particular, den), basis = exact.solve_ints(a, b)
        view = exact.solve(a, b)
        assert view == ([Fraction(x, den) for x in particular],
                        [[Fraction(x, d) for x in ints] for ints, d in basis]) == want
        assert all(v is exact.ZERO for v in [*view[0], *exact.vec(view[1])] if not v)
    with pytest.raises(ValueError, match="^right side has 1 entries for 2 rows$"):
        exact.solve_ints([[1, 0], [0, 1]], [1])
    with pytest.raises(ValueError, match="^rows have differing lengths"):
        exact.solve_ints([[1, 2], [3]], [1, 1])
    assert exact.solve_ints([[0, 0]], [0]) == (((0, 0), 1), [((1, 0), 1), ((0, 1), 1)])


@given(st.data())
def test_solve_ints_and_rank_match_the_oracle_on_drawn_int_systems(data):
    # a = left right, two int factors of a drawn inner rank, so often rank
    # deficient, with zero rows and columns put in; b is the image of a drawn
    # x or drawn freely, which is inconsistent unless it lies in a's column space
    rows, cols = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    inner = data.draw(st.integers(0, min(rows, cols)))
    small = st.integers(-3, 3)

    def grid(height, width):
        return data.draw(st.lists(st.lists(small, min_size=width, max_size=width),
                                  min_size=height, max_size=height))

    left, right = grid(rows, inner), grid(inner, cols)
    a = [[sum(x * row[j] for x, row in zip(line, right)) for j in range(cols)] for line in left]
    for i in data.draw(st.sets(st.integers(0, rows - 1), max_size=2)):
        a[i] = [0] * cols
    for j in data.draw(st.sets(st.integers(0, cols - 1), max_size=2)):
        for row in a:
            row[j] = 0
    if data.draw(st.booleans()):
        b = [sum(p * q for p, q in zip(row, grid(1, cols)[0])) for row in a]
    else:
        b = grid(1, rows)[0]
    assert exact.rank(a) == oracle.rank(a)
    want = oracle.solve(a, b)
    if want is None:
        with pytest.raises(ValueError, match="^inconsistent linear system$"):
            exact.solve_ints(a, b)
        return
    # the canonical particular solution, then one null vector per free column in its order
    forms = [exact.canonical(*exact.as_ints(v)) for v in [want[1], *want[2]]]
    particular, basis = exact.solve_ints(a, b)
    assert [particular, *basis] == forms


@given(st.data())
def test_null_vector_is_the_first_null_vector_of_solve_ints(data):
    # a = left right as above, rank deficient or not, with zero rows and
    # columns put in; the first null vector of a x = 0 is the one at the
    # leftmost free column, and a matrix without a free column has none
    rows, cols = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    inner = data.draw(st.integers(0, min(rows, cols)))
    entries = st.integers(-3, 3) | st.integers(-2 ** 40, 2 ** 40)

    def grid(height, width):
        return data.draw(st.lists(st.lists(entries, min_size=width, max_size=width),
                                  min_size=height, max_size=height))

    left, right = grid(rows, inner), grid(inner, cols)
    a = [[sum(x * row[j] for x, row in zip(line, right)) for j in range(cols)] for line in left]
    for i in data.draw(st.sets(st.integers(0, rows - 1), max_size=2)):
        a[i] = [0] * cols
    for j in data.draw(st.sets(st.integers(0, cols - 1), max_size=2)):
        for row in a:
            row[j] = 0
    copy = [list(row) for row in a]
    _, _, nullspace = oracle.solve(a, [0] * rows)
    if not nullspace:
        with pytest.raises(ValueError, match="^no null vector: each of the"):
            exact.null_vector(a)
        return
    v = exact.null_vector(a)
    assert v == exact.canonical(*exact.as_ints(nullspace[0])) == exact.solve_ints(a, [0] * rows)[1][0]
    assert a == copy


def test_null_vector_refuses_full_column_rank():
    for a in ([[1, 2], [3, 4]], [[1, 0], [0, 1], [1, 1]], [[Fraction(1, 2)]]):
        with pytest.raises(ValueError, match=f"^no null vector: each of the {len(a[0])} columns"):
            exact.null_vector(a)
    with pytest.raises(ValueError, match="^rows have differing lengths"):
        exact.null_vector([[1, 2], [3]])
    assert exact.null_vector([[0, 0]]) == ((1, 0), 1)
    assert exact.null_vector([[2, 4, 1], [1, 2, 0]]) == ((-2, 1, 0), 1)


def test_echelon_callers_make_half_the_row_steps(monkeypatch):
    # rank and solve_ints clear below each pivot only, m(m - 1)/2 row steps on
    # a dense nonsingular m x m matrix; factor clears above it too,
    # m(m - 1).  The Vandermonde matrix on 1..12 is totally positive, so no
    # entry vanishes on the way and every step is made
    m = 12
    a = [[(i + 1) ** j for j in range(m)] for i in range(m)]
    steps = []
    eliminate = exact._eliminate

    def counted(*args):
        steps.append(args)
        return eliminate(*args)

    def count(call, *args):
        steps.clear()
        call(*args)
        return len(steps)

    monkeypatch.setattr(exact, "_eliminate", counted)
    assert count(exact.solve_ints, a, list(range(m))) == count(exact.rank, a) == 66 == m * (m - 1) // 2
    assert count(exact.factor, a) == 132 == m * (m - 1)


def test_factor_gives_the_reduced_form_and_the_left_null_space():
    # on matrices of any shape and rank: reduced / den is the oracle's reduced
    # row echelon form, left a gives it and then zero rows, and left is invertible
    rng = random.Random(21)
    for k in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, rows, cols, rng.randint(0, min(rows, cols)), big=k % 4 == 1)
        pivots, reduced, left, den = exact.factor(a)
        want, want_pivots = oracle.rref(a)
        assert pivots == want_pivots and den > 0
        assert [[Fraction(x, den) for x in row] for row in reduced] == want[:len(pivots)]
        assert all(row[c] == den for row, c in zip(reduced, pivots))
        product = [[sum((e * row[c] for e, row in zip(line, a)), Fraction(0)) for c in range(cols)]
                   for line in left]
        assert product == reduced + [[0] * cols] * (rows - len(pivots))
        assert oracle.rank(left) == rows and all(type(x) is int for row in left for x in row)
    assert exact.factor([[], []]) == ([], [], [[1, 0], [0, 1]], 1)  # two zero rows
    assert exact.factor([]) == ([], [], [], 1)


def test_int_grids_stay_off_as_ints_in_elimination(monkeypatch):
    # the int blocks of B are eliminated as they are: no row, and no identity
    # half of an inverse, is scaled from Fractions to ints
    bm = b_matrix(octonion_algebra())
    grids = [grid for rows, cols, grid in block_grids(bm)]
    assert grids and all(type(v) is int for grid in grids for row in grid for v in row)
    sides = [[i - 2 for i in range(len(grid))] for grid in grids]
    expected = []
    for grid, b in zip(grids, sides):
        copy = [[Fraction(v) for v in row] for row in grid]
        expected.append((exact.invert(copy), exact.rank(copy),
                         exact.solve(copy, [Fraction(v) for v in b])))
    rank = bm.rank()

    def refuse(values):
        raise AssertionError("an int grid was scaled to ints again")

    monkeypatch.setattr(exact, "as_ints", refuse)
    for grid, b, want in zip(grids, sides, expected):
        assert (exact.invert(grid), exact.rank(grid), exact.solve(grid, b)) == want
    assert bm.rank() == rank == 64


def test_primitive_rows():
    assert exact.primitive([0, 0, 0]) == [0, 0, 0]
    assert exact.primitive([Fraction(0), Fraction(0)]) == [0, 0]
    assert exact.primitive([-2, 4, 0]) == [1, -2, 0]
    assert exact.primitive([2, 4, 0]) == [1, 2, 0] == exact.primitive([Fraction(4), 8, 0])
    assert exact.primitive([0, -3, 6]) == [0, 1, -2]
    assert exact.primitive([Fraction(-1, 2), Fraction(1, 3)]) == [3, -2]
    row = (2, 3)
    out = exact.primitive(row)
    assert out == [2, 3] and type(out) is list
    out.append(1)
    assert row == (2, 3)


def test_reduce_divides_each_row_by_its_gcd():
    # the row step leaves [1, 3] - [1, 1] = [0, 2], which must come back as
    # [0, 1]; a row left with a factor 2 would grow the bits of every later step
    for echelon, reduced in ((True, [[1, 1], [0, 1]]), (False, [[1, 0], [0, 1]])):
        rows = [[1, 1], [1, 3]]
        assert exact._reduce(rows, 2, echelon=echelon) == [0, 1]
        assert rows == reduced


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


def freealg_imports(node):
    """The freealg modules that an import statement names, ``__init__`` for
    the package itself; [] for any other statement."""
    if isinstance(node, ast.Import):
        return [(alias.name.split(".") + ["__init__"])[1] for alias in node.names
                if alias.name.split(".")[0] == "freealg"]
    if not isinstance(node, ast.ImportFrom):
        return []
    parts = node.module.split(".") if node.module else []
    if not node.level:
        if parts[:1] != ["freealg"]:
            return []
        parts = parts[1:]
    return parts[:1] or [alias.name for alias in node.names]


def test_modules_stack_one_way_and_only_linmap_reads_the_blocks_of_b():
    # exact <- core <- linmap <- tensor: the module-level imports among
    # freealg's modules form no cycle and no function imports a freealg
    # module but the verify suite of cli's tables, which alone loads the
    # golden tables; B's blocks and their denominator are read in linmap
    # alone (``exact.blocks``, the function, is another name)
    package = Path(exact.__file__).parent
    imports, local, readers = {}, [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_functions = {id(node) for func in ast.walk(tree)
                        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                        for node in ast.walk(func)}
        for node in ast.walk(tree):
            names = freealg_imports(node)
            if id(node) in in_functions:
                local += [f"{path.stem}: {name}" for name in names]
            else:
                imports.setdefault(path.stem, set()).update(names)
            if (path.stem != "linmap" and isinstance(node, ast.Attribute)
                    and node.attr in ("blocks", "den")
                    and not (node.attr == "blocks" and getattr(node.value, "id", None) == "exact")):
                readers.append(f"{path.stem}: .{node.attr}")
    while leaves := [m for m, deps in imports.items() if not deps & imports.keys()]:
        for module in leaves:
            del imports[module]
    # what is left of imports is a cycle
    assert (imports, local, readers) == ({}, ["cli: golden"], [])


def test_no_dead_imports_or_private_names():
    # every imported name is used in its module, and every module-level
    # private function or class is referenced somewhere in the package
    package = Path(exact.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}

    def referenced(tree):
        return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
                | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})

    uses = {stem: referenced(tree) for stem, tree in trees.items()}
    unused, unreferenced = [], []
    for stem, tree in trees.items():
        if stem == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{stem}.{name}" for name in names if name not in uses[stem]]
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not any(node.name in names for names in uses.values())):
                unreferenced.append(f"{stem}.{node.name}")
    assert (unused, unreferenced) == ([], [])


def test_only_core_reads_the_algebra_s_private_slots():
    # ``FreeAlgebra``'s data slots with a leading "_" are read in ``core``
    # alone; a subclass may call ``_build``, which is a method, not a slot
    package = Path(exact.__file__).parent
    private = {name for name in FreeAlgebra.__slots__ if name.startswith("_")}
    assert private == {"_cache", "_lock", "_row_terms", "_col_terms", "_basis"}
    readers = [f"{path.stem}.{node.attr}" for path in sorted(package.glob("*.py"))
               if path.stem != "core"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr in private]
    assert readers == []

def perfbench_library_names():
    """The (module, attribute chain) pairs that the benchmark reads off
    freealg: each ``lib.<module>.<name>...`` in ``perfbench/workloads.py``,
    direct or through a local alias such as ``core, lm = lib.core,
    lib.linmap``, and each name in ``perfbench/tracing.LAYERS``."""
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    tree = ast.parse((perfbench / "workloads.py").read_text(encoding="utf-8"))

    def module_of(node):  # the module name of a ``lib.<module>`` node, else None
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "lib"):
            return node.attr
        return None

    chains = set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        aliases = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    pairs = (zip(target.elts, node.value.elts)
                             if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                             else [(target, node.value)])
                    for name, value in pairs:
                        if isinstance(name, ast.Name) and module_of(value):
                            aliases[name.id] = module_of(value)
        for node in ast.walk(func):
            if not isinstance(node, ast.Attribute):
                continue
            chain, base = [], node
            while isinstance(base, ast.Attribute):
                chain.insert(0, base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id == "lib" and len(chain) > 1:
                chains.add((chain[0], tuple(chain[1:])))
            elif isinstance(base, ast.Name) and base.id in aliases:
                chains.add((aliases[base.id], tuple(chain)))
    tracing = ast.parse((perfbench / "tracing.py").read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in tracing.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))
    return chains | {(module, (name,)) for module, names in layers.items() for name in names}


def test_the_benchmark_reads_only_names_the_library_defines():
    # a name moved or renamed in src that perfbench still reads would make
    # its ops raise AttributeError or leave a traced layer unwrapped
    chains = perfbench_library_names()
    missing = []
    for module, chain in sorted(chains):
        value = importlib.import_module(f"freealg.{module}")
        for attr in chain:
            value = getattr(value, attr, None)
        if value is None:
            missing.append(".".join((module, *chain)))
    assert missing == []
    # read through an alias, as a longer chain, and only in LAYERS
    assert {("linmap", ("left_associator_map",)), ("tensor", ("tensor_mul",)),
            ("linmap", ("LinearMap", "identity")), ("cli", ("cmd_tables",))} <= chains
