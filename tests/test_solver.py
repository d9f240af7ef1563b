import json
import random
from fractions import Fraction

import pytest

from freealg import (AlgebraMismatch, ComplexAdditiveMap, LinearMap,
                     MapMatrix, MinorSingular, ShapeMismatch, SingularMap,
                     SingularSystem, SubstitutionCheckFailed, UnsupportedAlgebra, apply,
                     cadd_inverse, cadd_product, complex_algebra, compose, cr_product, exact,
                     flatten, inverse_map_matrix,
                     left_shift, multiply, quasideterminant, random_element,
                     rc_product, right_shift, solve_additive)
from freealg.cli import load_system
import test_golden_cli
from test_kernel_properties import ZERO
import oracle


def cadd(C, a0, a1, b0, b1):
    return ComplexAdditiveMap(C.element([a0, a1]), C.element([b0, b1]))


def example_system(C):
    """z + 2 conj(w) = 1,  z - 3 w = i."""
    one = cadd(C, 1, 0, 0, 0).to_linear_map()
    two_conj = cadd(C, 0, 0, 2, 0).to_linear_map()
    minus3 = cadd(C, -3, 0, 0, 0).to_linear_map()
    m = MapMatrix([[one, two_conj], [one, minus3]])
    rhs = [C.element([1, 0]), C.element([0, 1])]
    return m, rhs


def rnd_cadd_matrix(C, rng, size):
    return MapMatrix([[ComplexAdditiveMap(random_element(C, rng, 5),
                                          random_element(C, rng, 5)).to_linear_map()
                       for _ in range(size)] for _ in range(size)])


def test_mapmatrix_validation(C, H):
    delta_c = LinearMap.identity(C)
    delta_h = LinearMap.identity(H)
    with pytest.raises(AlgebraMismatch):
        MapMatrix([[delta_c, delta_h]])
    with pytest.raises(ShapeMismatch):
        MapMatrix([])
    with pytest.raises(ShapeMismatch):
        MapMatrix([[delta_c], [delta_c, delta_c]])


def test_mapmatrix_shape_is_read_off_its_grid(C):
    m = MapMatrix([[LinearMap.identity(C)] * 3] * 2)
    assert (m.algebra, m.rows, m.cols) == (C, 2, 3)
    for name, value in (("rows", 3), ("cols", 2), ("algebra", C)):
        with pytest.raises(AttributeError):
            setattr(m, name, value)
    assert (m.algebra, m.rows, m.cols) == (C, 2, 3)


def test_rc_product_1x1(C):
    rng = random.Random(50)
    f = rnd_cadd_matrix(C, rng, 1)
    g = rnd_cadd_matrix(C, rng, 1)
    prod = rc_product(f, g)
    assert prod.entries[0][0] == compose(f.entries[0][0], g.entries[0][0])
    assert cr_product(f, g) == prod


def test_rectangular_shapes(C):
    rng = random.Random(49)
    def rect(rows, cols):
        return MapMatrix([[ComplexAdditiveMap(random_element(C, rng, 5),
                                              random_element(C, rng, 5))
                           .to_linear_map()
                           for _ in range(cols)] for _ in range(rows)])
    a, b = rect(2, 3), rect(3, 4)
    prod = rc_product(a, b)
    assert (prod.rows, prod.cols) == (2, 4)
    assert flatten(prod) == oracle.matmul(flatten(a), flatten(b))
    with pytest.raises(ShapeMismatch):
        rc_product(b, a)
    # cr pairs b's rows with a's columns: needs a.cols == b.rows
    back = cr_product(b, a)
    assert (back.rows, back.cols) == (2, 4)
    with pytest.raises(ShapeMismatch):
        cr_product(a, b)
    with pytest.raises(ShapeMismatch):
        inverse_map_matrix(a)


def test_identity_mapmatrix_neutral(C):
    rng = random.Random(51)
    m = rnd_cadd_matrix(C, rng, 3)
    ident = MapMatrix.identity(C, 3)
    assert rc_product(ident, m) == m
    assert rc_product(m, ident) == m


def test_left_multiplication_embeds_complex_matrices(C):
    # entries l(a_ij): the mapping product mirrors the complex matrix product
    rng = random.Random(52)
    a = [[random_element(C, rng) for _ in range(2)] for _ in range(2)]
    b = [[random_element(C, rng) for _ in range(2)] for _ in range(2)]
    ma = MapMatrix([[left_shift(x) for x in row] for row in a])
    mb = MapMatrix([[left_shift(x) for x in row] for row in b])
    prod = [[multiply(a[i][0], b[0][j]) + multiply(a[i][1], b[1][j])
             for j in range(2)] for i in range(2)]
    assert rc_product(ma, mb) == MapMatrix([[left_shift(x) for x in row]
                                            for row in prod])


def test_rc_associative(C):
    rng = random.Random(53)
    for size in (2, 3):
        a, b, c = (rnd_cadd_matrix(C, rng, size) for _ in range(3))
        assert rc_product(rc_product(a, b), c) == rc_product(a, rc_product(b, c))


def test_cr_product_relations(C):
    rng = random.Random(54)
    a, b = rnd_cadd_matrix(C, rng, 2), rnd_cadd_matrix(C, rng, 2)
    assert cr_product(a, b) == rc_product(a.transpose(), b.transpose()).transpose()
    # diagonal matrices: both products coincide
    zero = LinearMap.zero(C)
    d1 = MapMatrix([[a.entries[0][0], zero], [zero, a.entries[1][1]]])
    d2 = MapMatrix([[b.entries[0][0], zero], [zero, b.entries[1][1]]])
    assert cr_product(d1, d2) == rc_product(d1, d2)


def test_ring_laws_of_composition(C):
    rng = random.Random(55)
    f, g, h = (ComplexAdditiveMap(random_element(C, rng), random_element(C, rng))
               .to_linear_map() for _ in range(3))
    zero = LinearMap.zero(C)
    assert compose(zero, g) == zero
    assert compose(-f, g) == -compose(f, g)
    assert compose(f, g + h) == compose(f, g) + compose(f, h)
    assert compose(f + g, h) == compose(f, h) + compose(g, h)


def test_flatten(C):
    assert flatten(MapMatrix([[LinearMap.identity(C)]])) == [[1, 0], [0, 1]]
    m, _ = example_system(C)
    assert flatten(m) == [
        [Fraction(1), Fraction(0), Fraction(2), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0), Fraction(-2)],
        [Fraction(1), Fraction(0), Fraction(-3), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0), Fraction(-3)],
    ]


def test_flatten_is_multiplicative(C):
    rng = random.Random(56)
    a, b = rnd_cadd_matrix(C, rng, 3), rnd_cadd_matrix(C, rng, 3)
    assert flatten(rc_product(a, b)) == oracle.matmul(flatten(a), flatten(b))


def test_inverse_map_matrix(C):
    ident = MapMatrix.identity(C, 2)
    assert inverse_map_matrix(ident) == ident
    m, _ = example_system(C)
    inv = inverse_map_matrix(m)
    expected = [
        [cadd(C, Fraction(9, 5), 0, Fraction(-6, 5), 0),
         cadd(C, Fraction(-4, 5), 0, Fraction(6, 5), 0)],
        [cadd(C, Fraction(3, 5), 0, Fraction(-2, 5), 0),
         cadd(C, Fraction(-3, 5), 0, Fraction(2, 5), 0)],
    ]
    for r in range(2):
        for c in range(2):
            assert inv.entries[r][c] == expected[r][c].to_linear_map()
    assert rc_product(m, inv) == MapMatrix.identity(C, 2)
    assert rc_product(inv, m) == MapMatrix.identity(C, 2)


def test_inverse_singular(C):
    one = cadd(C, 1, 0, 0, 0).to_linear_map()
    two_conj = cadd(C, 0, 0, 2, 0).to_linear_map()
    m = MapMatrix([[one, two_conj], [one, two_conj]])
    with pytest.raises(SingularSystem):
        inverse_map_matrix(m)


def test_quasideterminant_1x1(C):
    rng = random.Random(57)
    f = ComplexAdditiveMap(random_element(C, rng), random_element(C, rng))
    m = MapMatrix([[f.to_linear_map()]])
    assert quasideterminant(m, 0, 0) == f.to_linear_map()
    with pytest.raises(ShapeMismatch, match="^quasideterminant index out of range$"):
        quasideterminant(m, 1, 0)  # row 1 of one row


def test_quasideterminant_worked_example(C):
    m, _ = example_system(C)
    expected = {
        (0, 0): cadd(C, 1, 0, Fraction(2, 3), 0),
        (1, 0): cadd(C, 1, 0, Fraction(3, 2), 0),
        (0, 1): cadd(C, 3, 0, 2, 0),
        (1, 1): cadd(C, -3, 0, -2, 0),
    }
    for (row, col), want in expected.items():
        assert quasideterminant(m, row, col) == want.to_linear_map()


def test_quasideterminant_scalar(C):
    two = cadd(C, 2, 0, 0, 0).to_linear_map()
    one = cadd(C, 1, 0, 0, 0).to_linear_map()
    m = MapMatrix([[two, one], [one, one]])
    assert quasideterminant(m, 0, 0) == one  # 2 - 1*1^{-1}*1


def test_quasideterminant_vs_inverse_oracle(C):
    rng = random.Random(58)
    done = 0
    while done < 20:
        size = 2 + done % 2
        m = rnd_cadd_matrix(C, rng, size)
        try:
            inv = inverse_map_matrix(m)
        except SingularSystem:
            continue
        try:
            for i in range(size):
                for j in range(size):
                    q = quasideterminant(m, j, i)
                    assert LinearMap(C, C, oracle.inverse(q.coords)) == inv.entries[i][j]
        except MinorSingular:
            continue
        done += 1


def test_minor_identity(C):
    # the inverse of an entry of the inverse equals the corresponding
    # quasideterminant, exercised entrywise on random invertible 3x3
    rng = random.Random(59)
    done = 0
    while done < 5:
        m = rnd_cadd_matrix(C, rng, 3)
        try:
            inv = inverse_map_matrix(m)
            for i in range(3):
                for j in range(3):
                    entry = inv.entries[i][j]
                    q = quasideterminant(m, j, i)
                    assert LinearMap(C, C, oracle.inverse(entry.coords)) == q
        except (SingularSystem, MinorSingular):
            continue
        done += 1


def submatrix(m, rows, cols):
    return MapMatrix([[m.entries[r][c] for c in cols] for r in rows])


def test_block_minor_identity(C):
    # for index sets J (rows) and I (cols): the block of m^{-1} at
    # (rows I, cols J) inverts to the Schur-type expression
    #   m[J, I] - m[J, I^c] oo m[J^c, I^c]^{-1} oo m[J^c, I]
    # (the block selection transposes, like the entrywise convention)
    rng = random.Random(70)
    cases = [((0,), (1,)), ((0, 1), (1, 2)), ((0, 2), (0, 1)), ((1, 2), (0, 2))]
    done = 0
    while done < 8:
        m = rnd_cadd_matrix(C, rng, 3)
        try:
            inv = inverse_map_matrix(m)
            for rows_j, cols_i in cases:
                comp_j = tuple(r for r in range(3) if r not in rows_j)
                comp_i = tuple(c for c in range(3) if c not in cols_i)
                block_of_inverse = submatrix(inv, cols_i, rows_j)
                lhs = inverse_map_matrix(block_of_inverse)
                correction = rc_product(
                    submatrix(m, rows_j, comp_i),
                    rc_product(inverse_map_matrix(submatrix(m, comp_j, comp_i)),
                               submatrix(m, comp_j, cols_i)))
                rhs = MapMatrix([
                    [submatrix(m, rows_j, cols_i).entries[a][b]
                     - correction.entries[a][b]
                     for b in range(len(cols_i))] for a in range(len(rows_j))])
                assert lhs == rhs
        except (SingularSystem, ValueError):
            continue
        done += 1


def test_minor_singular_reported(C):
    zero = LinearMap.zero(C)
    one = cadd(C, 1, 0, 0, 0).to_linear_map()
    # invertible as a whole, but the (1,1) minor used by det(0,0) is the
    # zero map, so the recursion cannot proceed there
    m = MapMatrix([[one, one], [one, zero]])
    inverse_map_matrix(m)
    with pytest.raises(MinorSingular):
        quasideterminant(m, 0, 0)
    # the other corner works fine
    assert quasideterminant(m, 1, 1) == cadd(C, -1, 0, 0, 0).to_linear_map()


def test_solve_example(C):
    m, rhs = example_system(C)
    z, w = solve_additive(m, rhs)
    assert z == C.element([Fraction(3, 5), -2])
    assert w == C.element([Fraction(1, 5), -1])


def test_solve_identity(C):
    rng = random.Random(60)
    rhs = [random_element(C, rng) for _ in range(3)]
    assert solve_additive(MapMatrix.identity(C, 3), rhs) == rhs


def test_solve_diagonal(C):
    l2 = left_shift(C.element([2, 0]))
    l3 = left_shift(C.element([3, 0]))
    zero = LinearMap.zero(C)
    m = MapMatrix([[l2, zero], [zero, l3]])
    rhs = [C.element([4, 0]), C.element([9, 0])]
    assert solve_additive(m, rhs) == [C.element([2, 0]), C.element([3, 0])]


def test_solve_names_the_equation_that_fails_substitution(C, monkeypatch):
    import freealg.solver as solver_mod
    l3 = left_shift(C.element([3, 0]))
    zero = LinearMap.zero(C)
    m = MapMatrix([[LinearMap.identity(C), zero], [zero, l3]])
    # a wrong solution, x = b, that still satisfies equation 0: the kernel of
    # [M | -b], whose int rows are over 1 here, given as (b, 1)
    monkeypatch.setattr(solver_mod.exact, "null_vector", lambda a: (
        exact.canonical([-row[-1] for row in a] + [1], 1)))
    with pytest.raises(SubstitutionCheckFailed, match="equation 1"):
        solve_additive(m, [C.element([1, 2]), C.element([3, 0])])


@pytest.mark.parametrize("witness", [[1, 0, 0, 0], [0, 0, 0, 0]])
def test_a_wrong_singular_witness_fails_the_check(C, monkeypatch, witness):
    # M is singular, its null vectors (0, w_2); a kernel (w, 0) whose w is
    # not one of them, or is 0, must not be raised as the witness
    import freealg.solver as solver_mod
    zero = LinearMap.zero(C)
    m = MapMatrix([[LinearMap.identity(C), zero], [zero, zero]])
    monkeypatch.setattr(solver_mod.exact, "null_vector", lambda a: ((*witness, 0), 1))
    with pytest.raises(SubstitutionCheckFailed, match="singular-system witness"):
        solve_additive(m, [C.element([1, 2]), C.element([3, 0])])


def test_solve_satisfies_system(C):
    rng = random.Random(61)
    solved = 0
    while solved < 10:
        m = rnd_cadd_matrix(C, rng, 3)
        rhs = [random_element(C, rng) for _ in range(3)]
        try:
            x = solve_additive(m, rhs)
        except SingularSystem:
            continue
        for i in range(3):
            acc = C.zero()
            for j in range(3):
                acc = acc + apply(m.entries[i][j], x[j])
            assert acc == rhs[i]
        solved += 1


def random_map(algebra, rng):
    n = algebra.dim
    return LinearMap(algebra, algebra, [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                         for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("name", ["C", "H", "O"])
def test_solve_never_inverts(name, request, monkeypatch):
    # dense systems, so every entry of M is used; the expected x comes from
    # the inverse, computed before inverting is refused
    algebra = request.getfixturevalue(name)
    rng = random.Random(62)
    cases = []
    for size in (2, 2, 3):
        m = MapMatrix([[random_map(algebra, rng) for _ in range(size)] for _ in range(size)])
        rhs = [random_element(algebra, rng) for _ in range(size)]
        b = exact.vec(y.coords for y in rhs)
        x = [sum(a * v for a, v in zip(row, b)) for row in flatten(inverse_map_matrix(m))]
        cases.append((m, rhs, exact.blocks(x, algebra.dim)))

    def refuse(a):
        raise AssertionError("solve_additive inverted a matrix")

    monkeypatch.setattr(exact, "invert_ints", refuse)
    for m, rhs, x in cases:
        assert [list(xi.coords) for xi in solve_additive(m, rhs)] == x


@pytest.mark.parametrize("name", ["C", "H", "O"])
@pytest.mark.parametrize("consistent", [True, False], ids=["consistent", "inconsistent"])
def test_singular_system_carries_a_checked_witness(name, consistent, request):
    # the last equation is g applied to the first, so M is singular; its
    # right side is g(rhs_0), plus e_0 when the system is to be inconsistent.
    # The in-test Gauss-Jordan confirms which it is and gives the null space.
    algebra = request.getfixturevalue(name)
    rng = random.Random(63)
    for size in (2, 3):
        rows = [[random_map(algebra, rng) for _ in range(size)] for _ in range(size - 1)]
        rhs = [random_element(algebra, rng) for _ in range(size - 1)]
        g = random_map(algebra, rng)
        m = MapMatrix(rows + [[compose(g, f) for f in rows[0]]])
        shift = algebra.zero() if consistent else algebra.basis_element(0)
        rhs.append(apply(g, rhs[0]) + shift)
        flat, b = flatten(m), exact.vec(y.coords for y in rhs)
        zero = [Fraction(0)] * len(b)
        assert (oracle.solve(flat, b) is not None) == consistent
        nullspace = oracle.solve(flat, zero)[2]
        with pytest.raises(SingularSystem) as info:
            solve_additive(m, rhs)
        witness = info.value.witness
        assert len(witness) == size and all(w.algebra is algebra for w in witness)
        w = exact.vec(x.coords for x in witness)
        assert w == nullspace[0] and any(w)
        assert [sum(a * v for a, v in zip(row, w)) for row in flat] == zero
        # the message names w's free column, the column exact.invert_ints names
        free = max(c for c, v in enumerate(w) if v)
        assert str(info.value).endswith(f"no pivot in column {free})")
        with pytest.raises(SingularSystem) as inverted:
            inverse_map_matrix(m)
        assert str(info.value) == str(inverted.value) and inverted.value.witness is None


@pytest.mark.parametrize("name", ["SYSTEM", "SINGULAR_CONSISTENT_SYSTEM", "SINGULAR_SYSTEM"])
def test_solve_additive_eliminates_once(name, tmp_path, monkeypatch):
    # the README system and the consistent and inconsistent singular golden
    # systems each take one elimination; a singular one's witness w is
    # nonzero with M w = 0 by the flattening
    path = tmp_path / "system.json"
    path.write_text(json.dumps(getattr(test_golden_cli, name)), encoding="utf-8")
    _, m, rhs = load_system(str(path))
    calls = []
    solve = exact.null_vector

    def counted(a):
        calls.append(a)
        return solve(a)

    monkeypatch.setattr(exact, "null_vector", counted)
    try:
        solve_additive(m, rhs)
    except SingularSystem as err:
        w = exact.vec(x.coords for x in err.witness)
        assert name != "SYSTEM" and any(w)
        assert [sum((a * v for a, v in zip(row, w)), Fraction(0)) for row in flatten(m)] == \
            [0] * len(w)
    else:
        assert name == "SYSTEM"
    assert len(calls) == 1


def test_a_singular_system_reads_off_one_null_vector(O, monkeypatch):
    # the last equation is g applied to the first, so the 24 x 24 M over O
    # has rank 16 and [M | -b] several free columns; only the first null
    # vector, the witness, is back-substituted
    rng = random.Random(64)
    rows = [[random_map(O, rng) for _ in range(3)] for _ in range(2)]
    g = random_map(O, rng)
    m = MapMatrix(rows + [[compose(g, f) for f in rows[0]]])
    rhs = [random_element(O, rng) for _ in range(3)]
    flat = flatten(m)
    rank, _, nullspace = oracle.solve(flat, [ZERO] * len(flat))
    assert rank == 16 and len(nullspace) == 8
    calls = []
    read_off = exact._read_off

    def counted(*args):
        calls.append(args)
        return read_off(*args)

    monkeypatch.setattr(exact, "_read_off", counted)
    with pytest.raises(SingularSystem) as info:
        solve_additive(m, rhs)
    assert len(calls) == 1
    assert exact.vec(x.coords for x in info.value.witness) == nullspace[0]


def test_a_grid_system_is_read_and_solved_without_fractions(tmp_path, monkeypatch):
    # grid cells, rhs coordinates and the string entries over C are read as
    # int forms and [M | -b] is eliminated on ints, so neither frac nor
    # ComplexAdditiveMap runs.  H is built before they are refused: its
    # constants pass through frac once.
    import sys
    import freealg.cli as cli_mod
    doc = json.loads(json.dumps(test_golden_cli.QUATERNION_SYSTEM))
    doc["matrix"][0][0][1] = ["2/4", " -06/9 ", 3, "+1"]
    doc["rhs"][1] = [0, "4/6", -2, "0/5"]
    complex_doc = {"algebra": "complex", "matrix": [["1/2 + 3/4*I", "-I"], ["2", "-06/4 - 2*I"]],
                   "rhs": [["1", "-2/6"], [3, "0"]]}
    paths = [tmp_path / "system.json", tmp_path / "complex.json"]
    for path, system in zip(paths, (doc, complex_doc)):
        path.write_text(json.dumps(system), encoding="utf-8")
    algebra, m, rhs = load_system(str(paths[0]))
    assert m.entries == tuple(tuple(LinearMap(algebra, algebra, [list(map(Fraction, row))
                                                                 for row in cell])
                                    for cell in line) for line in doc["matrix"])
    assert rhs == [algebra.element(list(map(Fraction, y))) for y in doc["rhs"]]
    C, complex_m, complex_rhs = load_system(str(paths[1]))
    assert complex_m.entries == tuple(
        tuple(cadd(C, a, 0, b, 0).to_linear_map() for a, b in line)
        for line in [[(Fraction(1, 2), Fraction(3, 4)), (0, -1)], [(2, 0), (Fraction(-3, 2), -2)]])
    assert complex_rhs == [C.element([1, Fraction(-1, 3)]), C.element([3, 0])]
    expected = [solve_additive(m, rhs), solve_additive(complex_m, complex_rhs)]

    def refuse(*args):
        raise AssertionError("a literal became a Fraction on the int path")

    monkeypatch.setattr(cli_mod, "ComplexAdditiveMap", refuse)
    for module in list(sys.modules.values()):
        if module.__name__.startswith("freealg") and getattr(module, "frac", None) is exact.frac:
            monkeypatch.setattr(module, "frac", refuse)
    for path, want, want_algebra in zip(paths, expected, (algebra, C)):
        loaded, m, rhs = load_system(str(path))
        assert loaded is want_algebra and solve_additive(m, rhs) == want


@pytest.mark.parametrize("name", ["C", "H", "O"])
def test_solve_additive_runs_on_ints(name, request, monkeypatch):
    # the flattening is eliminated on ints and x, or the witness, is
    # substituted back through the maps on ints: a regular system and a
    # consistent and an inconsistent singular one, with their answers
    # taken before Fraction arithmetic is refused
    algebra = request.getfixturevalue(name)
    rng = random.Random(64)
    rows = [[random_map(algebra, rng) for _ in range(2)] for _ in range(2)]
    rhs = [random_element(algebra, rng) for _ in range(2)]
    g = random_map(algebra, rng)
    singular = MapMatrix(rows[:1] + [[compose(g, f) for f in rows[0]]])
    systems = [(MapMatrix(rows), rhs)] + [
        (singular, [rhs[0], apply(g, rhs[0]) + shift])
        for shift in (algebra.zero(), algebra.basis_element(0))]

    def answer(m, b):
        try:
            return solve_additive(m, b)
        except SingularSystem as err:
            return str(err), err.witness

    expected = [answer(m, b) for m, b in systems]
    # x, then the same message and witness for both singular systems
    assert isinstance(expected[0], list) and isinstance(expected[1], tuple)
    assert expected[1] == expected[2]

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in the additive solver")

    for method in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                   "__truediv__"):
        monkeypatch.setattr(Fraction, method, refuse)
    assert [answer(m, b) for m, b in systems] == expected


def test_substitution_does_not_read_the_eliminated_matrix(C, monkeypatch):
    # int rows of [M | -b], over 1 here, with one wrong entry in equation 1
    # give an x that solves them; substituting x through the maps must find
    # that equation 1 fails
    import freealg.solver as solver_mod
    m, rhs = example_system(C)
    augmented = solver_mod._augmented

    def perturbed(mm, b):
        rows = augmented(mm, b)
        rows[2][0] += 1
        return rows

    monkeypatch.setattr(solver_mod, "_augmented", perturbed)
    with pytest.raises(SubstitutionCheckFailed, match="equation 1"):
        solve_additive(m, rhs)


def test_the_right_side_s_denominators_do_not_scale_m(O, monkeypatch):
    # [M | -L b] keeps each band of M over its maps' lcm alone: on a system of
    # basis shifts with b = e_0 / 3, M's part of the rows null_vector gets is
    # the maps' own ints, and only the last column carries L = 3
    e = O.basis()
    m = MapMatrix([[left_shift(e[1]), right_shift(e[1])], [right_shift(e[1]), left_shift(e[2])]])
    rhs = [e[0].scaled(Fraction(1, 3))] * 2
    got = []
    null_vector = exact.null_vector
    monkeypatch.setattr(exact, "null_vector", lambda a: got.append(a) or null_vector(a))
    x = solve_additive(m, rhs)
    (rows,) = got
    flat = [[int(v) for v in row] for row in flatten(m)]
    assert [row[:-1] for row in rows] == flat
    assert {v for row in flat for v in row} == {-1, 0, 1}
    assert [row[-1] for row in rows] == [-3 * v for v in exact.vec(y.coords for y in rhs)]
    rank, particular, _ = oracle.solve(flatten(m), exact.vec(y.coords for y in rhs))
    assert rank == 16 and exact.vec(xi.coords for xi in x) == particular


def test_cadd_product(C):
    ident = ComplexAdditiveMap.identity(C)
    conj = ComplexAdditiveMap.conjugation(C)
    assert cadd_product(conj, conj) == ident
    f = cadd(C, 1, 0, 1, 0)
    g = cadd(C, 0, 1, 0, 0)
    assert cadd_product(f, g) == cadd(C, 0, 1, 0, -1)
    rng = random.Random(62)
    f = ComplexAdditiveMap(random_element(C, rng), random_element(C, rng))
    assert cadd_product(f, ident) == f
    assert cadd_product(ident, f) == f


def test_cadd_product_is_composition(C):
    rng = random.Random(63)
    for _ in range(15):
        f = ComplexAdditiveMap(random_element(C, rng), random_element(C, rng))
        g = ComplexAdditiveMap(random_element(C, rng), random_element(C, rng))
        z = random_element(C, rng)
        assert cadd_product(f, g)(z) == f(g(z))
        assert (cadd_product(f, g).to_linear_map()
                == compose(f.to_linear_map(), g.to_linear_map()))


def test_cadd_inverse(C):
    conj = ComplexAdditiveMap.conjugation(C)
    assert cadd_inverse(conj) == conj
    assert cadd_inverse(cadd(C, 2, 0, 0, 0)) == cadd(C, Fraction(1, 2), 0, 0, 0)
    with pytest.raises(SingularMap):
        cadd_inverse(cadd(C, 1, 0, 1, 0))  # z + conj(z) kills the imaginary axis


def test_cadd_inverse_matches_matrix_inverse(C):
    rng = random.Random(64)
    ident = ComplexAdditiveMap.identity(C)
    for _ in range(20):
        f = ComplexAdditiveMap(random_element(C, rng), random_element(C, rng))
        try:
            g = cadd_inverse(f)
        except SingularMap:
            aa, bb = f.a.coords, f.b.coords
            assert (aa[0] ** 2 + aa[1] ** 2) == (bb[0] ** 2 + bb[1] ** 2)
            continue
        assert cadd_product(f, g) == ident
        assert cadd_product(g, f) == ident
        assert g.to_linear_map() == LinearMap(
            C, C, oracle.inverse(f.to_linear_map().coords))


@pytest.mark.parametrize("wrong", [0, 1], ids=["f after g", "g after f"])
def test_cadd_inverse_checks_both_sides(C, monkeypatch, wrong):
    # an inverse that composes to the identity on one side only is refused
    import freealg.solver as solver_mod
    calls = []

    def one_side_off(f, g):
        calls.append((f, g))
        return cadd(C, 2, 0, 0, 0) if len(calls) == wrong + 1 else cadd_product(f, g)
    monkeypatch.setattr(solver_mod, "cadd_product", one_side_off)
    with pytest.raises(SubstitutionCheckFailed, match="fails to compose to identity"):
        cadd_inverse(cadd(C, 2, 1, 1, 0))


def test_cadd_inverse_of_a_multiplication_is_the_closed_form(C, monkeypatch):
    # b = 0 takes the formula every other map takes, not a matrix inverse
    def no_invert(matrix):
        raise AssertionError("cadd_inverse inverted a matrix")
    monkeypatch.setattr(exact, "invert_ints", no_invert)
    rng = random.Random(67)
    for _ in range(30):
        a = random_element(C, rng)
        if a.is_zero():
            continue
        (p, q), (r, s) = ComplexAdditiveMap.multiplication(a).to_linear_map().coords
        det = p * s - q * r
        g = cadd_inverse(ComplexAdditiveMap.multiplication(a))
        assert g.b.is_zero()
        assert g.to_linear_map().coords == ((s / det, -q / det), (-r / det, p / det))


def test_cadd_decomposition_round_trip(C, H):
    rng = random.Random(65)
    for _ in range(20):
        coords = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                   for _ in range(2)] for _ in range(2)]
        f = LinearMap(C, C, coords)
        assert ComplexAdditiveMap.from_linear_map(f).to_linear_map() == f
    g = cadd(C, 3, -2, Fraction(1, 2), 7)
    assert ComplexAdditiveMap.from_linear_map(g.to_linear_map()) == g
    # only an endomorphism of a complex algebra has the (a, b) form: neither a
    # map of H nor one from C to another complex algebra
    for f in (LinearMap.identity(H), LinearMap(C, complex_algebra(), [[1, 0], [0, 1]])):
        with pytest.raises(UnsupportedAlgebra):
            ComplexAdditiveMap.from_linear_map(f)


def test_conjugation_identities(C):
    # conj o a o conj computes the complex conjugate of a;
    # conj(a) o conj = conj o a
    rng = random.Random(66)
    conj = ComplexAdditiveMap.conjugation(C)
    from freealg import conjugate
    for _ in range(15):
        a = random_element(C, rng)
        mult_a = ComplexAdditiveMap.multiplication(a)
        mult_conj_a = ComplexAdditiveMap.multiplication(conjugate(a))
        assert cadd_product(cadd_product(conj, mult_a), conj) == mult_conj_a
        assert cadd_product(mult_conj_a, conj) == cadd_product(conj, mult_a)


def test_functional_evaluation(C):
    f = cadd(C, 0, 0, 2, 0)  # z -> 2 conj(z)
    z = C.element([3, 4])
    assert f(z) == C.element([6, -8])
    assert apply(f.to_linear_map(), z) == f(z)
