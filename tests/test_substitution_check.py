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
wrong null vector, and one flipped row sign in one block of a cached B,
which every read of B then uses.  The property tests check ``table_map``
against the plain-``Fraction`` B of ``test_kernel_properties`` over its
random algebras in both orders, on dense and on sparse tensors, and that
correct answers pass.  The runs
use the derandomized profile of ``conftest.py``.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from freealg import (LinearMap, NotRepresentable, StandardSolution, SubstitutionCheckFailed,
                     Tensor2, complex_algebra, orbit_contains, quaternion_algebra,
                     standard_from_coords)
from freealg import cli, exact, linmap
from freealg.linmap import b_matrix, check_conversion, table_map, tensor_map
from test_kernel_properties import algebras, grids, reference_action, reference_b, sparse_grids

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
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    # a sparse tensor too, whose lines take the join on p, not the dense
    # walk, and the tensor of ones, whose lines are walked though no entry is 0
    for s in (t, Tensor2(algebra, data.draw(sparse_grids(n))), Tensor2(algebra, [[1] * n] * n)):
        expected = reference_action(reference_b(algebra, order), s.components, identity)
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
    convert = cli.standard_from_coords

    def wrong(g, order):
        solution = convert(g, order)
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
