"""``oracle.py``, the tests' one oracle, against answers worked by hand
from the definitions, never from freealg.  It imports the standard library
alone, and only the own tests of ``exact.solve``, ``invert``, ``rank`` and
``mat_mul`` read those four, so no other test checks the library with its
own elimination or product.
"""

import ast
import sys
from fractions import Fraction
from pathlib import Path

import oracle

TESTS = Path(__file__).resolve().parent
# H from i^2 = j^2 = -1 and ij = k = -ji, which give k^2 = ijij = -iijj = -1,
# jk = jij = -ijj = i = -kj and ki = iji = -iij = j = -ik: (x, y): (k, value)
RELATIONS = {(1, 1): (0, -1), (2, 2): (0, -1), (3, 3): (0, -1), (1, 2): (3, 1), (2, 1): (3, -1),
             (2, 3): (1, 1), (3, 2): (1, -1), (3, 1): (2, 1), (1, 3): (2, -1)}
H = oracle.table([(0, x, x, 1) for x in range(4)] + [(x, 0, x, 1) for x in range(1, 4)]
                 + [(x, y, k, v) for (x, y), (k, v) in RELATIONS.items()], 4)


def e(i, value=1):
    return [value if k == i else 0 for k in range(4)]


def test_the_oracle_imports_only_the_standard_library():
    tree = ast.parse((TESTS / "oracle.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    names = [alias.name if isinstance(node, ast.Import) else node.module
             for node in imports for alias in node.names]
    assert not any(getattr(node, "level", 0) for node in imports)
    assert names and all(name.split(".")[0] in sys.stdlib_module_names for name in names)


def test_quaternion_products_follow_from_the_relations():
    assert [oracle.mul(H, e(x), e(y)) for x, y in RELATIONS] == [
        e(k, v) for k, v in RELATIONS.values()]
    assert all(oracle.mul(H, e(0), e(x)) == oracle.mul(H, e(x), e(0)) == e(x) for x in range(4))
    # (1 + 2i)(3j - k) = 3j - k + 6k + 2j, (i + j)(i - j) = -1 - k - k + 1 and
    # (1 + i + j + k)(1 - i - j - k) = 4, the norm of 1 + i + j + k
    assert oracle.mul(H, [1, 2, 0, 0], [0, 0, 3, -1]) == [0, 0, 5, 5]
    assert oracle.mul(H, [0, 1, 1, 0], [0, 1, -1, 0]) == [0, 0, 0, -2]
    assert oracle.mul(H, [1, 1, 1, 1], [1, -1, -1, -1]) == [4, 0, 0, 0]


def test_a_worked_inverse_and_a_rank_two_solve():
    a, want = [[1, 2, 3], [0, 1, 4], [5, 6, 0]], [[-24, 18, 5], [20, -15, -4], [-5, 4, 1]]
    assert oracle.inverse(a) == want and oracle.matmul(a, want) == oracle.identity(3)
    assert oracle.inverse([[0, Fraction(1, 2)], [3, 0]]) == [[0, Fraction(1, 3)], [2, 0]]
    # x + 2y + 3z = 6, 4x + 5y + 6z = 15, 7x + 8y + 9z = 24: x = (1, 1, 1)
    # plus any multiple of (1, -2, 1); with the free z at 0, x = (0, 3, 0)
    a = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert oracle.solve(a, [6, 15, 24]) == (2, [0, 3, 0], [[1, -2, 1]])
    assert oracle.solve(a, [6, 15, 25]) is None and oracle.inverse(a) is None
    assert oracle.rref(a) == ([[1, 0, -1], [0, 1, 2], [0, 0, 0]], [0, 1])
    assert oracle.rank(a) == 2 and oracle.rank([[0, 0]]) == oracle.rank([]) == 0


def test_a_twisted_product_sandwich_and_tensor_constants():
    # ((1 + i) (x) j) o (j (x) 2k) = ((1 + i) j) (x) (2k j) = (j + k) (x) (-2i)
    s, u = [e(2), e(2), e(0, 0), e(0, 0)], [e(0, 0), e(0, 0), e(3, 2), e(0, 0)]
    want = [e(0, 0), e(0, 0), e(1, -2), e(1, -2)]
    assert oracle.twisted(H, s, u) == want
    assert oracle.matmul(oracle.left_action(H, s), [[v] for v in oracle.flat(u)]) == [
        [v] for v in oracle.flat(want)]
    # x -> i x i sends 1 to -1, i to -i, j to iji = j and k to iki = k
    i_i, image = [e(1, 0), e(1), e(1, 0), e(1, 0)], [e(0, -1), e(1, -1), e(2), e(3)]
    for order in ("left", "right"):
        assert oracle.sandwich(H, i_i, order) == image
        assert [row[1 * 4 + 1] for row in oracle.component_matrix(H, order)] == oracle.flat(image)
    # in C (x) C, (i (x) i)^2 = i^2 (x) i^2 = 1 (x) 1, at flat index 3 = 1 * 2 + 1
    c = [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, -1)]
    dim, constants = oracle.tensor_constants([(2, c), (2, c)])
    assert dim == 4 and len(constants) == 16 and (3, 3, 0, 1) in constants


def test_only_their_own_tests_read_exact_s_fraction_api():
    # each top-level function or class of a test module (or its other
    # statements, as "<module>") that reads exact.solve, invert, rank or
    # mat_mul, or sets one of them on exact by name; every other test checks
    # against oracle.py, and these go with the four
    api, readers = {"solve", "invert", "rank", "mat_mul"}, {}
    for path in sorted(TESTS.glob("test_*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                read = (isinstance(node, ast.Attribute) and node.attr in api
                        and getattr(node.value, "id", None) == "exact")
                set_by_name = (isinstance(node, ast.Call) and len(node.args) > 1
                               and getattr(node.args[0], "id", None) == "exact"
                               and getattr(node.args[1], "value", None) in api)
                if read or set_by_name:
                    readers.setdefault(path.stem, set()).add(getattr(top, "name", "<module>"))
    assert readers == {
        "test_element_kernel": {"test_mat_mul_matches_the_reference",
                                "test_mat_mul_matches_the_reference_on_dense_matrices",
                                "test_multiply_and_mat_mul_run_on_ints"},
        "test_exact": {
            "check_inverse", "test_echelon_callers_make_half_the_row_steps",
            "test_elimination_refuses_ragged_rows", "test_invert_matches_oracle",
            "test_int_grids_stay_off_as_ints_in_elimination",
            "test_invert_is_the_fraction_view_of_its_int_core",
            "test_invert_refuses_a_non_square_matrix",
            "test_mat_mul_refuses_shapes_it_cannot_multiply",
            "test_rank_integer_dense_and_sparse_shapes", "test_rank_matches_oracle",
            "test_solve_inconsistent_matches_oracle",
            "test_solve_is_the_fraction_view_of_solve_ints",
            "test_solve_ints_and_rank_match_the_oracle_on_drawn_int_systems",
            "test_solve_matches_oracle_on_consistent_systems",
            "test_solve_refuses_a_right_side_of_another_length"},
        "test_fraction_builder": {"test_the_exact_views_are_fractions_fraction_makes"},
    }
