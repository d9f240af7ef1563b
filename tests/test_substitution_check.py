"""The substitution check of the conversions.

``linmap.table_map`` sums a tensor's map straight off the algebra's
tables of constants and never reads the component matrix B.
``check_conversion`` holds ``map convert``'s answer to it before the CLI
prints, and ``orbit_contains`` holds its tensor, acting on f, against g
before it returns.  Both answers come from B's blocks, so a fault in the
sign walk, the scatter into n^2 components, the den scaling or the
factor must end in ``SubstitutionCheckFailed``, and in exit 4 from the
CLI.

Faults are injected into correct runs: a wrong particular tensor, a
wrong null vector (on C, on R x R and among O (x) C's sparse ones), and
one flipped row sign in one block of a cached B, which every read of B
then uses.  The property tests check ``table_map`` against the
plain-``Fraction`` sandwich of ``oracle.py`` over the random algebras of
``test_kernel_properties`` in both orders, on dense and on sparse
tensors, and that correct answers pass.  The runs use the derandomized
profile of ``conftest.py``.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from freealg import (FreeAlgebra, LinearMap, NotRepresentable, StandardSolution,
                     SubstitutionCheckFailed, Tensor2, complex_algebra, octonion_algebra,
                     orbit_contains, quaternion_algebra, standard_from_coords, tensor_product)
from freealg import cli, exact, linmap
from freealg.linmap import b_matrix, check_conversion, table_map, tensor_map
from test_kernel_properties import algebras, grids, sparse_grids
import oracle

ORDERS = st.sampled_from(["left", "right"])


def dense_map(algebra, rng):
    """A map with no zero entry, so that every row sign of B moves its solve."""
    n = algebra.dim
    return LinearMap(algebra, algebra, [[rng.choice((-1, 1)) * rng.randint(1, 9)
                                         for _ in range(n)] for _ in range(n)])


@settings(max_examples=50)
@given(st.data(), ORDERS)
def test_table_map_is_b_times_vec_t_and_correct_answers_pass(data, order):
    # the table walk, the blocks of B and the definition give one map; the
    # image of a tensor converts and passes, so does any other map that
    # converts, and orbit membership passes the tensor it finds
    algebra = data.draw(algebras())
    n = algebra.dim
    t = Tensor2(algebra, data.draw(grids(n)))
    f = LinearMap(algebra, algebra, data.draw(grids(n)))
    # a sparse tensor too, whose all-0 lines the walk skips, and the tensor
    # of ones, none of whose lines it skips
    for s in (t, Tensor2(algebra, data.draw(sparse_grids(n))), Tensor2(algebra, [[1] * n] * n)):
        expected = oracle.sandwich(oracle.table(algebra.constants, n), s.components, order)
        assert table_map(s, order).coords == tuple(map(tuple, expected))
        assert table_map(s, order) == tensor_map(s, order)
    for g in (tensor_map(t, order), f):
        try:
            solution = standard_from_coords(g, order)
        except NotRepresentable:
            continue
        check_conversion(g, solution, order)
    assert orbit_contains(linmap.coords_from_standard(t, f, order), f, order) is not None


@pytest.mark.parametrize("order", ["left", "right"])
def test_a_wrong_particular_fails_the_check(order):
    H = quaternion_algebra()
    g = dense_map(H, random.Random(1))
    solution = standard_from_coords(g, order)
    check_conversion(g, solution, order)
    for i, j in ((0, 0), (3, 2)):
        wrong = StandardSolution(solution.particular + Tensor2.basis_tensor(H, i, j), [])
        with pytest.raises(SubstitutionCheckFailed, match="particular tensor"):
            check_conversion(g, wrong, order)


@pytest.mark.parametrize("order", ["left", "right"])
def test_a_wrong_null_vector_fails_the_check(order):
    # C's B has rank 2: the unit tensor's map is the identity, not 0
    C = complex_algebra()
    g = LinearMap(C, C, [[2, -3], [3, 2]])
    solution = standard_from_coords(g, order)
    assert len(solution.nullspace) == 2
    check_conversion(g, solution, order)
    first, second = solution.nullspace
    wrong = StandardSolution(solution.particular, [first, second + Tensor2.unit(C)])
    with pytest.raises(SubstitutionCheckFailed, match="null vector 1"):
        check_conversion(g, wrong, order)


@pytest.mark.parametrize("order", ["left", "right"])
def test_a_null_vector_whose_map_is_nonzero_at_its_first_entry_only_fails(order):
    # on R x R, e_0 e_0 = e_0 and e_1 e_1 = e_1 with no unit, e_0 (x) e_0 maps
    # x to x^0 e_0: of the sums the check reads, only the first is nonzero
    P = FreeAlgebra(2, ["p", "q"], [(0, 0, 0, 1), (1, 1, 1, 1)])
    g = LinearMap(P, P, [[2, 0], [0, 3]])
    solution = standard_from_coords(g, order)
    assert len(solution.nullspace) == 2
    check_conversion(g, solution, order)
    first, second = solution.nullspace
    wrong = StandardSolution(solution.particular, [first + Tensor2.basis_tensor(P, 0, 0), second])
    with pytest.raises(SubstitutionCheckFailed, match="null vector 0 "):
        check_conversion(g, wrong, order)


@pytest.mark.parametrize("order", ["left", "right"])
def test_sparse_null_vectors_of_o_tensor_c_are_checked(order):
    # each of O (x) C's 128 null vectors is nonzero in two entries, on two
    # lines of the tensor, and no basis tensor's map is 0
    OC = tensor_product([octonion_algebra(), complex_algebra()])
    n, rng = OC.dim, random.Random(4)
    g = tensor_map(Tensor2(OC, [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]), order)
    solution = standard_from_coords(g, order)
    nullspace = solution.nullspace
    assert len(nullspace) == 128
    assert all(sum(v != 0 for row in t.components for v in row) == 2 for t in nullspace)
    check_conversion(g, solution, order)
    for idx in (0, 77, 127):
        i, j = next((i, j) for i in range(n) for j in range(n) if nullspace[idx].components[i][j])
        wrong = [*nullspace]
        wrong[idx] = wrong[idx] + Tensor2.basis_tensor(OC, i, j)
        with pytest.raises(SubstitutionCheckFailed, match=f"null vector {idx} "):
            check_conversion(g, StandardSolution(solution.particular, wrong), order)
    for i, j in ((0, 0), (n - 1, 5)):
        wrong = StandardSolution(solution.particular + Tensor2.basis_tensor(OC, i, j), nullspace)
        with pytest.raises(SubstitutionCheckFailed, match="particular tensor"):
            check_conversion(g, wrong, order)


@pytest.mark.parametrize("order", ["left", "right"])
def test_a_flipped_block_row_sign_fails_both_checks(order):
    # a fresh algebra, so that the corrupted B is cached on it alone
    H = quaternion_algebra()
    rng = random.Random(2)
    g, f = dense_map(H, rng), dense_map(H, rng)
    rows, cols, rs, cs, k = b_matrix(H, order).blocks[0]
    rs[len(rs) - 1] *= -1
    solution = standard_from_coords(g, order)
    with pytest.raises(SubstitutionCheckFailed, match="particular tensor"):
        check_conversion(g, solution, order)
    with pytest.raises(SubstitutionCheckFailed, match="t acting on f"):
        orbit_contains(g, f, order)


def test_a_wrong_orbit_tensor_fails_the_check(monkeypatch):
    H = quaternion_algebra()
    rng = random.Random(3)
    g, f = dense_map(H, rng), dense_map(H, rng)
    assert orbit_contains(g, f) is not None
    solve = exact.solve_ints

    def off_by_one(a, b):
        (particular, den), nullspace = solve(a, b)
        return ([particular[0] + den, *particular[1:]], den), nullspace

    monkeypatch.setattr(exact, "solve_ints", off_by_one)
    with pytest.raises(SubstitutionCheckFailed, match="t acting on f"):
        orbit_contains(g, f)


@pytest.mark.parametrize("fault", ["particular", "null vector"])
def test_map_convert_exits_4_before_it_prints(tmp_path, capsys, monkeypatch, fault):
    convert, calls = cli.standard_from_coords, []

    def wrong(g, order):  # on its first call only: the check reads the answer it prints
        solution = convert(g, order)
        calls.append(g)
        if len(calls) > 1:
            return solution
        if fault == "particular":
            return StandardSolution(solution.particular.scaled(2), solution.nullspace)
        return StandardSolution(solution.particular, [solution.particular, *solution.nullspace])

    path = tmp_path / "coords"
    path.write_text("2 -3\n3 2\n")
    argv = ["map", "convert", "--algebra", "complex", "--coords", str(path), "--machine"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "standard_from_coords", wrong)
    assert cli.main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: internal error (SubstitutionCheckFailed): ")
    assert fault in err
