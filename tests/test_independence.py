"""Every run-time check runs none of the code it checks.

An answer is trusted because a check recomputes it by other means before it
is printed or returned: a conversion is substituted back by the table walk
``linmap.table_map``, never through B; a solution by ``apply`` and ``+``,
never through the eliminated rows; a tensor inverse by the twisted product.
``ROWS`` has one row per check.  Each row runs its check on a few inputs
and records with ``sys.setprofile`` every freealg function and every
compiled kernel (code named "<label>") that runs inside the check: the
whole subject function, or, for a check inside the function that computes
the answer, the test of each ``if`` whose body raises the check's error and
the iterable of each ``for`` around it.  Nothing recorded may be code the
check checks (``FORBIDDEN``, and no class grid's compiled mat-vec, which is
B's), and what the check is known to run must be recorded, so that a check
that moved or stopped running fails as well.  The README's trusted base
table lists what each check still shares with its subject.

``test_every_check_has_a_row`` walks the package with ``ast``: a function
that raises ``SubstitutionCheckFailed``, or that ``cli`` imports to check
an answer (a ``check_*`` or a private name), needs a row.
"""

import ast
import contextlib
import io
import random
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import pytest

from freealg import (ComplexAdditiveMap, LinearMap, MapMatrix, MinorSingular, QuaternionParams,
                     SingularSystem, SingularTensor, Tensor2, associator, cadd_inverse,
                     complex_algebra, compose, coords_from_standard, exact,
                     inverse_map_matrix, octonion_algebra, orbit_contains, quasideterminant,
                     quaternion_algebra, random_element, solve_additive, standard_from_coords,
                     tensor_inverse)
from freealg import cli, linmap, solver, tensor
from freealg.linmap import check_conversion, left_associator_map, right_associator_map, table_map
from conftest import square_zero

PACKAGE = Path(exact.__file__).parent

# what the answers are computed by: B's build and its cache read, the plans
# and class kernels read off B, every elimination, the rows the solver
# eliminates, the conversions through B and the shift tensor_inverse solves by
FORBIDDEN = frozenset({
    "linmap.b_matrix", "linmap._build_b_matrix", "linmap._plan", "linmap._solve_plan",
    "linmap._row_loop", "exact.factor", "exact._reduce", "exact._bareiss", "exact.null_vector",
    "exact.invert_ints", "exact.solve_ints", "solver._augmented", "linmap.tensor_map",
    "linmap.standard_from_coords", "linmap.left_shift"})
CLASS_KERNEL = "<a class grid of "


class Row(NamedTuple):
    subject: Callable  # the function the check runs in
    run: Callable[[], None]  # runs the subject on a few inputs
    runs: frozenset  # what the check is known to run
    forbidden: frozenset = FORBIDDEN
    raises: tuple = ("SubstitutionCheckFailed",)  # (): the whole subject is the check


def draw_map(algebra, rng):
    n = algebra.dim
    return LinearMap(algebra, algebra, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])


def draw_tensor(algebra, rng):
    n = algebra.dim
    return Tensor2(algebra, [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])


def run_conversions():
    rng = random.Random(53)
    for algebra in (complex_algebra(), square_zero(2), quaternion_algebra(), octonion_algebra()):
        for order in ("left", "right"):
            g = table_map(draw_tensor(algebra, rng), order)
            check_conversion(g, standard_from_coords(g, order), order)


def run_orbits():
    rng = random.Random(53)
    for algebra in (complex_algebra(), quaternion_algebra(), octonion_algebra()):
        for order in ("left", "right"):
            f = draw_map(algebra, rng)
            g = coords_from_standard(draw_tensor(algebra, rng), f, order)
            assert orbit_contains(g, f, order) is not None


def run_solutions():
    rng = random.Random(53)
    for algebra, size in ((complex_algebra(), 3), (quaternion_algebra(), 2),
                          (octonion_algebra(), 2)):
        m = MapMatrix([[draw_map(algebra, rng) for _ in range(size)] for _ in range(size)])
        solve_additive(m, [random_element(algebra, rng) for _ in range(size)])


def run_witnesses():
    rng = random.Random(53)
    for algebra in (complex_algebra(), quaternion_algebra()):
        row = [draw_map(algebra, rng), draw_map(algebra, rng)]
        with pytest.raises(SingularSystem):  # two equal rows of maps
            solve_additive(MapMatrix([row, row]), [random_element(algebra, rng)] * 2)


def run_inverses_on_maps():
    rng = random.Random(53)
    for algebra in (quaternion_algebra(), quaternion_algebra(QuaternionParams(1, 1))):
        tensor_inverse(draw_tensor(algebra, rng))


def run_inverses_by_the_shift():
    rng = random.Random(53)
    for algebra in (complex_algebra(), square_zero(2), octonion_algebra()):
        with contextlib.suppress(SingularTensor):  # one-sided on O, refused by the check
            tensor_inverse(draw_tensor(algebra, rng))


def run_tables():
    with contextlib.redirect_stdout(io.StringIO()):
        for which in ("quaternion", "octonion"):
            assert cli.cmd_tables(SimpleNamespace(which=which, machine=True)) == 0


def run_complex_inverses():
    rng = random.Random(53)
    C = complex_algebra()
    for _ in range(4):
        cadd_inverse(ComplexAdditiveMap(random_element(C, rng, 5), random_element(C, rng, 5)))


def run_recursion():
    # verify quasidet holds inverse_map_matrix (exact division) to the recursion
    C, rng = complex_algebra(), random.Random(43)
    cells = [(j, i) for i in range(3) for j in range(3)]
    while True:  # m and every minor of the recursion invertible
        m = MapMatrix([[ComplexAdditiveMap(random_element(C, rng, 5),
                                           random_element(C, rng, 5)).to_linear_map()
                        for _ in range(3)] for _ in range(3)])
        try:
            inverse = inverse_map_matrix(m)
            quasidets = {(j, i): quasideterminant(m, j, i) for j, i in cells}
            break
        except (SingularSystem, MinorSingular):
            continue
    recursed = solver._recursive_inverse(m.entries)
    for j, i in cells:
        assert recursed[i][j] == inverse.entries[i][j]
        assert compose(quasidets[j, i], recursed[i][j]) == LinearMap.identity(C)


def run_associator_maps(right: bool):
    # the shift laws check these maps against L(a)L(b) - L(ab) and R(a)R(b) - R(ba)
    O, rng = octonion_algebra(), random.Random(34)
    a, b = random_element(O, rng), random_element(O, rng)
    got = right_associator_map(b, a) if right else left_associator_map(a, b)
    for j, e in enumerate(O.basis()):
        column = associator(e, b, a) if right else associator(a, b, e)
        assert tuple(row[j] for row in got.coords) == column.coords


# the twisted product's compiled code on H (x) H^op (dim 16) and O (x) O^op (dim 64)
TWISTED = "<product of TensorAlgebra(2 factors, dim={})>".format
SHIFTS = frozenset({"linmap.compose", "linmap.left_shift", "linmap.right_shift",
                    "exact.int_mat_mul"})

ROWS = {
    "check_conversion": Row(linmap.check_conversion, run_conversions,
                            frozenset({"linmap.table_map", "exact.IntForm.is_zero"})),
    "orbit_contains": Row(linmap.orbit_contains, run_orbits,
                          frozenset({"linmap.table_map", "linmap.compose"}),
                          FORBIDDEN | {"linmap._orbit_columns"}),
    "solve_additive substitution": Row(solver.solve_additive, run_solutions,
                                       frozenset({"solver._left_sides", "linmap.apply"})),
    "solve_additive witness": Row(solver.solve_additive, run_witnesses,
                                  frozenset({"solver._left_sides", "linmap.apply",
                                             "exact.IntForm.is_zero"})),
    "tensor_inverse on End(A)": Row(tensor.tensor_inverse, run_inverses_on_maps,
                                    frozenset({"tensor.twisted_mul", TWISTED(16)})),
    "tensor_inverse by the shift": Row(tensor.tensor_inverse, run_inverses_by_the_shift,
                                       frozenset({"tensor.twisted_mul", TWISTED(64)}),
                                       raises=("SubstitutionCheckFailed", "SingularTensor")),
    "tables F F^-1": Row(cli.cmd_tables, run_tables, frozenset({"exact.int_mat_mul"})),
    "cadd_inverse": Row(solver.cadd_inverse, run_complex_inverses,
                        frozenset({"solver.cadd_product"})),
    # the recursion inverts by the gcd loop of exact.factor, not by exact division
    "quasideterminant recursion": Row(solver._recursive_inverse, run_recursion,
                                      frozenset({"exact.factor", "linmap.compose"}),
                                      FORBIDDEN - {"exact.factor", "exact._reduce"}, ()),
    # built from compose or the shifts, the shift laws would hold by construction
    "left associator map": Row(linmap.left_associator_map, lambda: run_associator_maps(False),
                               frozenset({"core.product_ints", "linmap._shift_columns"}),
                               SHIFTS, ()),
    "right associator map": Row(linmap.right_associator_map, lambda: run_associator_maps(True),
                                frozenset({"core.product_ints", "linmap._shift_columns"}),
                                SHIFTS, ()),
}


def _name(frame):
    """A freealg frame's module.qualname, a compiled kernel's "<label>", else None."""
    code, module = frame.f_code, frame.f_globals.get("__name__", "")
    if module.startswith("freealg."):
        return f"{module.removeprefix('freealg.')}.{code.co_qualname}"
    if code.co_name == "kernel" and code.co_filename.startswith("<"):
        return code.co_filename
    return None


def _raised(statement) -> str | None:
    if isinstance(statement, ast.Raise) and isinstance(statement.exc, ast.Call):
        return getattr(statement.exc.func, "id", None)
    return None


def check_lines(row: Row) -> set[int]:
    """The lines of the subject that run its check: with ``raises``, the test
    of each ``if`` whose body raises one of them and the iterable of each
    ``for`` around it; without, every line of the subject."""
    code = row.subject.__code__
    tree = ast.parse(Path(code.co_filename).read_text(encoding="utf-8"))
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.lineno == code.co_firstlineno)
    if not row.raises:
        return set(range(func.lineno, func.end_lineno + 1))
    lines = set()

    def visit(node, loops):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and any(_raised(s) in row.raises for s in child.body):
                for part in (child.test, *(loop.iter for loop in loops)):
                    lines.update(range(part.lineno, part.end_lineno + 1))
            visit(child, loops + [child] if isinstance(child, ast.For) else loops)

    visit(func, [])
    return lines


def recorded(row: Row) -> set[str]:
    """What runs inside the row's check while ``row.run()`` runs: each frame
    called from the subject at a check line, or from such a frame."""
    code, lines = row.subject.__code__, check_lines(row)
    inside, names = set(), set()

    def profile(frame, event, arg):
        if event == "call":
            caller = frame.f_back
            if caller in inside or (caller is not None and caller.f_code is code
                                    and caller.f_lineno in lines):
                inside.add(frame)
                names.add(_name(frame))
        elif event == "return":
            inside.discard(frame)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        row.run()
    finally:
        sys.setprofile(previous)
    names.discard(None)
    return names


@pytest.mark.parametrize("check", ROWS)
def test_each_check_runs_none_of_the_code_it_checks(check):
    row = ROWS[check]
    names = recorded(row)
    assert row.runs <= names, "the check did not run where its row looks"
    shared = {name for name in names if name in row.forbidden or name.startswith(CLASS_KERNEL)}
    assert not shared, f"{check} runs code it checks: {sorted(shared)}"


def _functions(node, prefix=""):
    """(qualname, def) of every function under node, methods and nested ones too."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            yield f"{prefix}{child.name}", child
            yield from _functions(child, f"{prefix}{child.name}.<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.")
        else:
            yield from _functions(child, prefix)


def _own_statements(func):
    """The statements of func outside the functions nested in it."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def test_every_check_has_a_row():
    checks = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, func in _functions(tree):
            if any(_raised(node) == "SubstitutionCheckFailed" for node in _own_statements(func)):
                checks.add(f"{path.stem}.{name}")
        if path.stem == "cli":  # what cli imports to check an answer
            checks.update(f"{node.module}.{alias.name}" for node in ast.walk(tree)
                          if isinstance(node, ast.ImportFrom) and node.level
                          for alias in node.names
                          if alias.name.startswith(("check_", "_")))
    rows = {f"{row.subject.__module__.removeprefix('freealg.')}.{row.subject.__qualname__}"
            for row in ROWS.values()}
    assert checks - rows == set(), "a check without a row in ROWS"
    assert {"linmap.check_conversion", "solver._recursive_inverse", "cli.cmd_tables",
            "tensor.tensor_inverse"} <= checks


def test_the_golden_tables_import_nothing_from_freealg():
    # `verify tables` diffs B against golden's transcriptions
    tree = ast.parse((PACKAGE / "golden.py").read_text(encoding="utf-8"))
    imported = [node.module if isinstance(node, ast.ImportFrom) else alias.name
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    levels = [node.level for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not any(levels) and all(not name.startswith("freealg") for name in imported)
