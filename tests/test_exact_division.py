"""The exact-division loop ``exact._bareiss`` against the loops it replaced.

``invert_ints`` (Gauss-Jordan) and ``null_vector`` (echelon form) share
one fraction-free elimination that divides each row step exactly, as
Bareiss does, and rewrites a row only when its entry in the pivot column
is nonzero: a row left alone stays over the pivot it was last divided by.
The oracles are the two loops these functions ran on before: an
``invert_ints`` that rewrites every row at every step, scaling a row with
0 in the pivot column by pivot / previous pivot, and a ``null_vector`` on
``_reduce``'s gcd loop.  Both results are canonical, so the new loop must
return exactly what the oracles return, and raise what they raise.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from freealg import exact


def eager_invert_ints(a):
    """a's inverse as canonical (ints, den) by Bareiss Gauss-Jordan on
    [D a | D] that rewrites every row at every step; ValueError naming the
    first column without a pivot, as ``invert_ints`` raises."""
    n = len(a)
    rows = []
    for i, row in enumerate(a):
        ints, den = exact.as_ints(row)
        rows.append([*ints, *[0] * i, den, *[0] * (n - 1 - i)])
    prev = 1
    for k in range(n):
        c = k - 2 * n
        p = next((i for i in range(k, n) if rows[i][c]), None)
        if p is None:
            raise ValueError(f"matrix is singular: no pivot in column {k}")
        prow = rows[p]
        if prow[c] < 0:
            prow = [-x for x in prow]
        rows[p], rows[k] = rows[k], prow
        pivot, tail = prow[c], prow[c + 1:]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != k:
                rows[i] = [(pivot * x - f * y) // prev for x, y in zip(row[c + 1:], tail)]
            elif not f and pivot != prev:
                rows[i] = [pivot * x // prev for x in row[c + 1:]]
        prev = pivot
    ints, den = exact.canonical([x for row in rows for x in row[-n:]], prev)
    return list(ints), den


def gcd_null_vector(a):
    """``null_vector`` by ``_reduce``'s gcd loop in echelon form over all
    columns, then the back-substitution at the first free column."""
    cols = exact._width(a)
    rows = [exact.primitive(row) for row in a]
    pivots = exact._reduce(rows, cols, echelon=True)
    free = next((c for c, p in enumerate(pivots) if c != p), len(pivots))
    if free == cols:
        raise ValueError(f"no null vector: each of the {cols} columns has a pivot")
    return exact._read_off(rows, pivots, cols, free, 1)


def outcome(call, a):
    try:
        return call(a)
    except ValueError as err:
        return str(err)


# nonzero entries, small or of 40 bits, half of them negative; the zeros
# come from the shape and the defect of the matrix
NONZERO = st.one_of(st.integers(1, 3), st.integers(-3, -1), st.integers(1, 2 ** 40),
                    st.integers(-2 ** 40, -1))
# "upper" leaves each row 0 in the pivot columns before its own, so that it
# is not rewritten while the pivots above it change and is a stale pivot
# row in its turn; "lower" and "diagonal" leave each row 0 in the pivot
# columns after its own, so that in Gauss-Jordan it is stale at the end
KEEP = {"full": lambda i, j: True, "upper": lambda i, j: j >= i,
        "lower": lambda i, j: j <= i, "diagonal": lambda i, j: i == j}
DEFECTS = ("none", "none", "none", "dependent column", "zero row", "zero column")


@st.composite
def matrices(draw, square):
    rows = draw(st.integers(1, 7))
    cols = rows if square else draw(st.integers(1, 7))
    a = draw(st.lists(st.lists(NONZERO, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    keep = KEEP[draw(st.sampled_from(sorted(KEEP)))]
    a = [[x if keep(i, j) else 0 for j, x in enumerate(row)] for i, row in enumerate(a)]
    if draw(st.booleans()):  # a tenth to a half of the entries off the diagonal 0
        zeros = draw(st.integers(1, 5))
        a = [[x if i == j or draw(st.integers(0, 9)) >= zeros else 0 for j, x in enumerate(row)]
             for i, row in enumerate(a)]
    defect = draw(st.sampled_from(DEFECTS))
    if defect == "dependent column":  # a combination of those before it: 0 when first
        j = draw(st.integers(0, cols - 1))
        weights = draw(st.lists(st.integers(-3, 3), min_size=j, max_size=j))
        for row in a:
            row[j] = sum(w * x for w, x in zip(weights, row))
    elif defect == "zero row":
        a[draw(st.integers(0, rows - 1))] = [0] * cols
    elif defect == "zero column":
        j = draw(st.integers(0, cols - 1))
        for row in a:
            row[j] = 0
    for i in draw(st.sets(st.integers(0, rows - 1), max_size=rows)):  # rows of Fractions
        den = draw(st.integers(1, 12))
        a[i] = [Fraction(x, den) for x in a[i]]
    return a


@given(matrices(square=True))
def test_invert_ints_is_the_eager_loop(a):
    copy = [list(row) for row in a]
    assert outcome(exact.invert_ints, a) == outcome(eager_invert_ints, a)
    assert a == copy


@given(matrices(square=False))
def test_null_vector_is_the_gcd_loop(a):
    copy = [list(row) for row in a]
    assert outcome(exact.null_vector, a) == outcome(gcd_null_vector, a)
    assert a == copy


def test_rows_left_alone_stay_over_their_last_divisor():
    # diag(2, 3, 5): no step rewrites a row but its pivot row, so each row
    # is scaled once, when it becomes the pivot row (1 -> 2, 3 * 2 = 6,
    # 5 * 6 = 30), and rows 0 and 1 end over their own pivots, 2 and 6
    rows = [[2, 0, 0], [0, 3, 0], [0, 0, 5]]
    assert exact._bareiss(rows, 3, jordan=True) == (3, [2, 6, 30])
    assert rows == [[2, 0, 0], [0, 6, 0], [0, 0, 30]]
    # upper triangular, echelon: rows 1 and 2 wait over 1 while the pivot
    # goes 1 -> 2, and each is scaled to the previous pivot in its turn
    rows = [[2, 1, 0, 1], [0, 3, 1, 0], [0, 0, 5, 2]]
    assert exact._bareiss(rows, 4) == (3, [2, 6, 30])
    assert rows == [[2, 1, 0, 1], [0, 6, 2, 0], [0, 0, 30, 12]]
    assert exact.null_vector([[2, 1, 0, 1], [0, 3, 1, 0], [0, 0, 5, 2]]) == ((-17, 4, -12, 30), 30)


def test_a_pivot_row_counts_as_over_its_own_pivot():
    # the pivot row of step 0 is [1, 1 | -1, 0] over 1; at step 1 it is
    # divided by the pivot of its own step, 1, and the negated row 1,
    # [12 | 1, -1], becomes the pivot, so det = 12
    assert exact.invert_ints([[-1, -1], [-1, -13]]) == ([-13, 1, 1, -1], 12)
    assert eager_invert_ints([[-1, -1], [-1, -13]]) == ([-13, 1, 1, -1], 12)
    # a stale pivot row whose divisor is neither 1 nor the previous pivot
    a = [[3, 1, 0], [0, 0, 2], [1, 2, 1]]
    assert exact.invert_ints(a) == eager_invert_ints(a)


def test_the_loops_stop_at_the_first_column_without_a_pivot():
    # invert_ints names it; null_vector reads its null vector there and
    # never eliminates the columns after it
    a = [[1, 2, 0, 1], [2, 4, 0, 3], [0, 0, 0, 1], [3, 6, 1, 1]]
    with pytest.raises(ValueError, match="^matrix is singular: no pivot in column 1$"):
        exact.invert_ints(a)
    rows = [list(row) for row in a]
    assert exact._bareiss(rows, 4) == (1, [1, 1, 1, 1])
    assert rows[1:] == [[0, 0, 1], [0, 0, 0, 1], [0, 1, -2]]
    assert exact.null_vector(a) == ((-2, 1, 0, 0), 1) == gcd_null_vector(a)
    assert exact._bareiss([[0, 1]], 2) == (0, [1]) and exact.null_vector([[0, 1]]) == ((1, 0), 1)
    assert exact._bareiss([], 0) == (0, [])


def test_exact_has_two_elimination_loops():
    # _reduce, for factor, rank, solve_ints and the span of
    # representation_basis, and _bareiss, for invert_ints and null_vector;
    # factor serves B's build, once per class grid, and the quasideterminant
    # recursion, and solve_ints orbit_contains' dense system and
    # tensor_inverse's general path: a name is read as exact.<name>, or bare
    # inside exact, never imported
    package = Path(exact.__file__).parent
    users = {name: set() for name in ("_reduce", "_bareiss", "factor", "solve_ints")}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert not users.keys() & {alias.name for alias in node.names}
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "exact":
                    name = node.attr
                elif isinstance(node, ast.Name) and path.stem == "exact":
                    name = node.id
                else:
                    continue
                if name in users:
                    users[name].add(f"{path.stem}.{func.name}")
    assert users == {"_reduce": {"exact.rank", "exact.factor", "exact.solve_ints",
                                 "linmap.representation_basis"},
                     "_bareiss": {"exact.invert_ints", "exact.null_vector"},
                     "factor": {"linmap._build_b_matrix", "solver._recursive_inverse"},
                     "solve_ints": {"exact.solve", "linmap.orbit_contains",
                                    "tensor.tensor_inverse"}}


def test_an_int_form_is_reduced_only_where_it_is_read():
    # IntForm._of takes (space, form) and every call passes those two alone,
    # so no caller promises a reduced form; exact.canonical reduces in
    # IntForm.ints, in the two eliminations whose results are canonical by
    # contract, for the table's least denominator and in the CLI's reader
    package = Path(exact.__file__).parent
    of = exact.IntForm._of.__func__.__code__
    assert of.co_varnames[:of.co_argcount] == ("cls", "space", "form")
    calls, reducers = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_of":
                calls.append((len(node.args), len(node.keywords)))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if (isinstance(node, ast.Call)
                            and "canonical" in (getattr(node.func, "id", None),
                                                getattr(node.func, "attr", None))):
                        reducers.add(f"{path.stem}.{func.name}")
    assert len(calls) > 20 and set(calls) == {(2, 0)}
    assert reducers == {"exact.ints", "exact.invert_ints", "exact._read_off", "core._build",
                        "cli._form"}
