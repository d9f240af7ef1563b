import random
from fractions import Fraction

import pytest

from freealg import (AlgebraMismatch, LinearMap, NoUnit, NotRepresentable,
                     Tensor2, apply, b_matrix, complex_algebra, compose,
                     coords_from_standard, exact, left_shift, linmap, multiply,
                     octonion_algebra, orbit_contains, quaternion_algebra,
                     random_element, representation_basis, right_shift,
                     sandwich, standard_from_coords, tensor_inverse, twisted_mul)
from freealg.algebras import conjugation_coords
from freealg.core import FreeAlgebra
from freealg.linmap import left_associator_map, right_associator_map
from freealg.tensor import tensor_product, twisted_algebra

from conftest import square_zero
import oracle


def conj_map(algebra):
    return LinearMap(algebra, algebra, conjugation_coords(algebra))


def rnd_map(algebra, rng, bound=5):
    n = algebra.dim
    return LinearMap(algebra, algebra,
                     [[Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
                       for _ in range(n)] for _ in range(n)])


def rnd_tensor(algebra, rng, bound=5):
    n = algebra.dim
    return Tensor2(algebra, [[Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
                              for _ in range(n)] for _ in range(n)])


def test_apply(C, H):
    rng = random.Random(30)
    x = random_element(H, rng)
    assert apply(LinearMap.identity(H), x) == x
    assert apply(LinearMap.zero(H), x).is_zero()
    z = C.element([3, 5])
    assert apply(conj_map(C), z) == C.element([3, -5])


def test_apply_additive(H):
    rng = random.Random(31)
    f = rnd_map(H, rng)
    x, y = random_element(H, rng), random_element(H, rng)
    assert apply(f, x + y) == apply(f, x) + apply(f, y)
    assert apply(f, x.scaled(Fraction(3, 4))) == apply(f, x).scaled(Fraction(3, 4))


def test_compose(C, H):
    rng = random.Random(32)
    f = rnd_map(H, rng)
    delta = LinearMap.identity(H)
    assert compose(delta, f) == f
    assert compose(f, delta) == f
    assert compose(conj_map(C), conj_map(C)) == LinearMap.identity(C)
    i, j, k = H.basis_element(1), H.basis_element(2), H.basis_element(3)
    assert compose(left_shift(i), left_shift(j)) == left_shift(k)
    g = rnd_map(H, rng)
    x = random_element(H, rng)
    assert apply(compose(g, f), x) == apply(g, apply(f, x))


def test_shifts(H, O):
    assert left_shift(H.unit()) == LinearMap.identity(H)
    assert right_shift(H.unit()) == LinearMap.identity(H)
    i, j, k = H.basis_element(1), H.basis_element(2), H.basis_element(3)
    assert apply(left_shift(i), j) == k
    e = O.basis_element
    assert compose(left_shift(e(1)), left_shift(e(2))) != left_shift(multiply(e(1), e(2)))


def test_shift_laws(O):
    rng = random.Random(33)
    for _ in range(25):
        a, b = random_element(O, rng), random_element(O, rng)
        assert (compose(left_shift(a), left_shift(b)) + left_associator_map(a, b)
                == left_shift(multiply(a, b)))
        assert (compose(right_shift(a), right_shift(b))
                == right_shift(multiply(b, a)) + right_associator_map(b, a))


def test_a_basis_shift_inverts_to_its_transpose(H, O):
    # e_k x and x e_k permute the basis up to sign in these algebras, so
    # each shift's map is a signed permutation and its inverse its transpose
    for algebra in (H, O, tensor_product([O, H])):
        for k in range(algebra.dim):
            for shift in (left_shift, right_shift):
                f = shift(algebra.basis_element(k))
                assert f.inverse() == LinearMap(algebra, algebra, list(zip(*f.coords)))


def test_sandwich(H, O):
    rng = random.Random(34)
    f = rnd_map(H, rng)
    assert sandwich(H.unit(), f, H.unit()) == f
    i, j = H.basis_element(1), H.basis_element(2)
    s = sandwich(i, LinearMap.identity(H), j)
    x = random_element(H, rng)
    assert apply(s, x) == multiply(multiply(i, x), j)
    # associative: both nestings agree
    assert s == sandwich(i, LinearMap.identity(H), j, "right")
    # nonassociative: they differ
    e = O.basis_element
    left = sandwich(e(1), LinearMap.identity(O), e(2), "left")
    right = sandwich(e(1), LinearMap.identity(O), e(2), "right")
    assert left != right


def test_b_matrix_complex_relations(C):
    bm = b_matrix(C)
    # rows are (k, m); columns are (i, j)
    def row(k, m):
        r = bm.entries[k * 2 + m]
        return {(i, j): r[i * 2 + j] for i in range(2) for j in range(2)
                if r[i * 2 + j]}
    one = Fraction(1)
    assert row(0, 0) == {(0, 0): one, (1, 1): -one}
    assert row(1, 1) == {(0, 0): one, (1, 1): -one}
    assert row(1, 0) == {(0, 1): one, (1, 0): one}
    assert row(0, 1) == {(0, 1): -one, (1, 0): -one}


def test_b_matrix_ranks(C, H, O):
    assert b_matrix(C).rank() == 2
    assert b_matrix(H).rank() == 16
    assert b_matrix(O).rank() == 64
    assert b_matrix(C, "right").rank() == 2
    assert b_matrix(H, "right").rank() == 16
    assert b_matrix(O, "right").rank() == 64
    for algebra in (C, H, O):
        for order in ("left", "right"):
            identity = LinearMap.identity(algebra)
            assert (standard_from_coords(identity, order).rank
                    == b_matrix(algebra, order).rank())


def test_standard_from_coords_reads_its_rank_off_its_own_solve(monkeypatch):
    # B's classes are factored by _reduce's Gauss-Jordan; the echelon pass
    # that exact.rank and solve_ints run would be a second elimination
    reduce = exact._reduce

    def no_echelon(rows, cols, echelon=False):
        assert not echelon, "standard_from_coords ran a second elimination"
        return reduce(rows, cols)

    monkeypatch.setattr(exact, "_reduce", no_echelon)
    for make, rank in ((complex_algebra, 2), (quaternion_algebra, 16), (octonion_algebra, 64)):
        algebra = make()  # fresh: nothing is cached on it yet
        for order in ("left", "right"):
            solution = standard_from_coords(LinearMap.identity(algebra), order)
            assert solution.rank == rank
            assert len(solution.nullspace) == algebra.dim ** 2 - rank


def test_cauchy_riemann_image(C):
    # every map produced from standard components satisfies
    # f^0_0 = f^1_1 and f^1_0 = -f^0_1
    bm = b_matrix(C)
    for col in range(4):
        m = [[bm.entries[r * 2 + c][col] for c in range(2)] for r in range(2)]
        assert m[0][0] == m[1][1]
        assert m[1][0] == -m[0][1]


def test_coords_from_standard_unit_tensor(H):
    rng = random.Random(35)
    f = rnd_map(H, rng)
    assert coords_from_standard(Tensor2.unit(H), f) == f


def test_coords_from_standard_conjugations(H, O):
    t = Tensor2(H, [[Fraction(-1, 2) if a == b else 0 for b in range(4)]
                    for a in range(4)])
    assert coords_from_standard(t, LinearMap.identity(H)) == conj_map(H)
    t = Tensor2(O, [[Fraction(-1, 6) if a == b else 0 for b in range(8)]
                    for a in range(8)])
    assert coords_from_standard(t, LinearMap.identity(O)) == conj_map(O)


def test_coords_from_standard_matches_direct_sum(O):
    # against the explicit sandwich sum, both nesting orders
    rng = random.Random(36)
    t = rnd_tensor(O, rng, 3)
    f = rnd_map(O, rng, 3)
    for order in ("left", "right"):
        g = coords_from_standard(t, f, order)
        expected = LinearMap.zero(O)
        for i in range(8):
            for j in range(8):
                if t.components[i][j] == 0:
                    continue
                term = sandwich(O.basis_element(i), f, O.basis_element(j), order)
                expected = expected + term.scaled(t.components[i][j])
        assert g == expected


def test_standard_from_coords_quaternion_conjugation(H):
    sol = standard_from_coords(conj_map(H))
    assert sol.is_unique()
    assert sol.rank == 16
    assert sol.particular == Tensor2(
        H, [[Fraction(-1, 2) if a == b else 0 for b in range(4)] for a in range(4)])


def test_solution_rank_is_read_off_its_null_space(C, H):
    for algebra, rank in ((C, 2), (H, 16)):
        sol = standard_from_coords(LinearMap.identity(algebra))
        assert sol.rank == rank == algebra.dim ** 2 - len(sol.nullspace)
        with pytest.raises(AttributeError):
            sol.rank = rank - 1


def test_standard_from_coords_octonion_conjugation(O):
    sol = standard_from_coords(conj_map(O))
    assert sol.is_unique()
    expected = Tensor2(O, [[Fraction(-1, 6) if a == b else 0 for b in range(8)]
                           for a in range(8)])
    assert sol.particular == expected


def test_standard_from_coords_rejects_complex_conjugation(C):
    with pytest.raises(NotRepresentable):
        standard_from_coords(conj_map(C))


def test_standard_round_trip(C, H):
    rng = random.Random(37)
    for algebra in (C, H):
        t = rnd_tensor(algebra, rng, 3)
        g = coords_from_standard(t, LinearMap.identity(algebra))
        sol = standard_from_coords(g)
        # t must lie in particular + span(nullspace)
        diff = t - sol.particular
        basis = [[v for row in ns.components for v in row] for ns in sol.nullspace]
        target = [v for row in diff.components for v in row]
        if basis:
            system = [[basis[b][r] for b in range(len(basis))]
                      for r in range(len(target))]
            assert oracle.solve(system, target) is not None  # t is reachable
        else:
            assert all(v == 0 for v in target)


def test_orbit_contains(C, H):
    rng = random.Random(38)
    f = rnd_map(H, rng)
    t = orbit_contains(f, f)
    assert t is not None
    assert coords_from_standard(t, f) == f
    assert orbit_contains(conj_map(C), LinearMap.identity(C)) is None
    assert orbit_contains(LinearMap.identity(C), conj_map(C)) is None
    # H has a nonsingular component matrix: everything is in delta's orbit
    g = rnd_map(H, rng)
    assert orbit_contains(g, LinearMap.identity(H)) is not None


def test_orbit_invariance_under_nonsingular_tensors(H):
    from freealg import SingularTensor
    rng = random.Random(39)
    checked = 0
    while checked < 15:
        t = rnd_tensor(H, rng, 3)
        try:
            tensor_inverse(t)
        except SingularTensor:
            continue
        f = rnd_map(H, rng, 3)
        g = coords_from_standard(t, f)
        assert orbit_contains(g, f) is not None
        assert orbit_contains(f, g) is not None
        checked += 1


def test_action_is_bilinear(H):
    rng = random.Random(40)
    s, t = rnd_tensor(H, rng), rnd_tensor(H, rng)
    f, g = rnd_map(H, rng), rnd_map(H, rng)
    delta = LinearMap.identity(H)
    assert (coords_from_standard(s + t, delta)
            == coords_from_standard(s, delta) + coords_from_standard(t, delta))
    assert (coords_from_standard(s, f + g)
            == coords_from_standard(s, f) + coords_from_standard(s, g))
    c = Fraction(5, 3)
    assert (coords_from_standard(s.scaled(c), f)
            == coords_from_standard(s, f).scaled(c))


def test_action_is_twisted_homomorphism(H):
    # acting by s o t equals acting by s after acting by t
    rng = random.Random(41)
    for _ in range(20):
        s, t = rnd_tensor(H, rng, 3), rnd_tensor(H, rng, 3)
        f = rnd_map(H, rng, 3)
        assert (coords_from_standard(twisted_mul(s, t), f)
                == coords_from_standard(s, coords_from_standard(t, f)))


def test_representation_basis_complex(C):
    gens = representation_basis(C)
    assert len(gens) == 2
    assert gens[0] == LinearMap.identity(C)
    assert gens[1] == conj_map(C)
    assert orbit_contains(conj_map(C), gens[1]) is not None
    # chosen orbits do not intersect
    assert orbit_contains(gens[1], gens[0]) is None
    assert orbit_contains(gens[0], gens[1]) is None


def test_representation_basis_quaternion_octonion(H, O):
    assert representation_basis(H) == [LinearMap.identity(H)]
    assert representation_basis(O) == [LinearMap.identity(O)]
    assert representation_basis(O, "right") == [LinearMap.identity(O)]


def quaternion_square():
    return tensor_product([quaternion_algebra(), quaternion_algebra()])


@pytest.mark.parametrize("make", [quaternion_algebra, octonion_algebra, quaternion_square],
                         ids=["H", "O", "HH"])
@pytest.mark.parametrize("order", ["left", "right"])
def test_full_rank_basis_runs_no_elimination_pass(make, order, monkeypatch):
    # B has full rank, so the identity's orbit spans without a pass; the
    # elimination left is the factoring of B's classes, done here first
    def refuse(*args):
        raise AssertionError("representation_basis ran an elimination pass")

    algebra = make()
    assert b_matrix(algebra, order).rank() == algebra.dim ** 2
    monkeypatch.setattr(exact, "_reduce", refuse)
    assert representation_basis(algebra, order) == [LinearMap.identity(algebra)]


@pytest.mark.parametrize("make", [complex_algebra, lambda: square_zero(4)], ids=["C", "sq0-4"])
@pytest.mark.parametrize("order", ["left", "right"])
def test_each_basis_pass_builds_rank_b_orbit_columns(make, order, monkeypatch):
    # t -> (t acting on g) is linear, so g's orbit columns at B's pivot
    # columns, rank(B) of them, span its orbit; a pass builds no others
    # (each orbit column composes a column of B with g)
    built = []
    convert = linmap.compose

    def counted(t, f):
        built.append(f)
        return convert(t, f)

    algebra = make()
    rank = b_matrix(algebra, order).rank()
    monkeypatch.setattr(linmap, "compose", counted)
    generators = representation_basis(algebra, order)
    assert rank < algebra.dim ** 2 and len(generators) > 1
    assert [sum(f is g for f in built) for g in generators] == [rank] * len(generators)
    assert len(built) == rank * len(generators)


@pytest.mark.parametrize("make", [complex_algebra, lambda: square_zero(4)], ids=["C", "sq0-4"])
@pytest.mark.parametrize("order", ["left", "right"])
def test_basis_reads_each_basis_tensor_map_as_a_column_of_b(make, order, monkeypatch):
    # the map of e_i (x) e_j is column (i, j) of B, so no orbit column walks
    # B's blocks through tensor_map
    algebra = make()
    expected = representation_basis(make(), order)

    def refuse(*args):
        raise AssertionError("representation_basis called tensor_map")

    monkeypatch.setattr(linmap, "tensor_map", refuse)
    generators = representation_basis(algebra, order)
    assert [g.ints for g in generators] == [g.ints for g in expected] and len(generators) > 1


@pytest.mark.parametrize("make", [complex_algebra, lambda: square_zero(4)], ids=["C", "sq0-4"])
@pytest.mark.parametrize("order", ["left", "right"])
def test_basis_builds_no_fraction(make, order, count_fractions):
    # B's blocks, their factors, the orbit columns, the reduced rows and the
    # residual are all ints; Fractions appear only when a generator is read
    algebra = make()
    built = count_fractions()
    generators = representation_basis(algebra, order)
    assert built == [] and len(generators) > 1
    assert generators[-1].coords and built  # the view, built on first read


def test_representation_basis_spans(C):
    # orbits of the generators together span all 2x2 coordinate matrices
    gens = representation_basis(C)
    rows = []
    for g in gens:
        for i in range(2):
            for j in range(2):
                t = Tensor2.basis_tensor(C, i, j)
                m = coords_from_standard(t, g)
                rows.append([v for row in m.coords for v in row])
    assert oracle.rank(rows) == 4


def test_representation_basis_needs_unit():
    unitless = FreeAlgebra(2, ("x", "y"), [(0, 1, 0, 1)])
    with pytest.raises(NoUnit):
        representation_basis(unitless)


def test_full_pipeline_on_cyclic_group_algebra():
    # group algebra of the cyclic group of order 3: e_i e_j = e_{i+j mod 3};
    # commutative and associative, so the orbit of the identity is the
    # 3-dimensional space of multiplication operators
    from freealg import is_associative, is_commutative
    cyc = FreeAlgebra(3, ("g0", "g1", "g2"),
                      [(i, j, (i + j) % 3, 1) for i in range(3) for j in range(3)],
                      unit_index=0)
    assert is_associative(cyc) and is_commutative(cyc)
    assert b_matrix(cyc).rank() == 3
    gens = representation_basis(cyc)
    assert gens[0] == LinearMap.identity(cyc)
    rows = []
    for g in gens:
        for i in range(3):
            for j in range(3):
                m = coords_from_standard(Tensor2.basis_tensor(cyc, i, j), g)
                rows.append([v for row in m.coords for v in row])
    assert oracle.rank(rows) == 9
    # every generator's own coordinate matrix lies in its orbit span
    for g in gens:
        assert orbit_contains(g, g) is not None
    # round trip through the (singular) component matrix still works
    sol = standard_from_coords(left_shift(cyc.element([1, 2, 3])))
    assert sol.rank == 3
    assert len(sol.nullspace) == 6
    assert coords_from_standard(sol.particular, LinearMap.identity(cyc)) \
        == left_shift(cyc.element([1, 2, 3]))


def test_tensor_product_representation(H):
    # maps of a tensor-square algebra still go through the machinery
    HH = tensor_product([H, H])
    assert b_matrix(HH).rank() <= 256
    assert coords_from_standard(Tensor2.unit(HH), LinearMap.identity(HH)) \
        == LinearMap.identity(HH)


def test_b_matrix_cache_is_shared_across_threads():
    # A (x) A^op and the compiled product are cached in the same slot under
    # the same lock
    import threading
    from freealg import octonion_algebra
    from freealg.core import product_kernel
    for build in (b_matrix, twisted_algebra, product_kernel):
        algebra = octonion_algebra()
        results = []

        def run():
            results.append(build(algebra))

        threads = [threading.Thread(target=run) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert len(results) == 8
        assert all(r is results[0] for r in results)
        assert build(algebra) is results[0]


def test_a_cached_value_is_read_while_another_is_built():
    import threading
    from freealg import octonion_algebra, quaternion_algebra
    H, O = quaternion_algebra(), octonion_algebra()
    built = b_matrix(H)
    started, release = threading.Event(), threading.Event()

    def slow_build():
        started.set()
        assert release.wait(timeout=10)  # a read that waits for the lock fails here
        return "slow"

    builder = threading.Thread(target=lambda: O.cached("slow", slow_build))
    builder.start()
    try:
        assert started.wait(timeout=60)
        assert b_matrix(H) is built  # the build holds the lock, the read does not wait
    finally:
        release.set()
        builder.join(timeout=60)
    assert not builder.is_alive()
    assert O.cached("slow", lambda: "rebuilt") == "slow"


def test_a_first_build_waits_only_for_builds_on_its_own_algebra():
    # each algebra has its own build lock: B of a fresh O is built while a
    # build on H is held, which one lock for all algebras would serialise
    import threading
    from freealg import octonion_algebra, quaternion_algebra
    H, O = quaternion_algebra(), octonion_algebra()
    started, release, built = threading.Event(), threading.Event(), []

    def held_build():
        started.set()
        release.wait(timeout=60)
        return "held"

    holder = threading.Thread(target=lambda: H.cached("held", held_build))
    other = threading.Thread(target=lambda: built.append(b_matrix(O)))
    holder.start()
    try:
        assert started.wait(timeout=60)
        other.start()
        other.join(timeout=20)
        assert built and not other.is_alive()
    finally:
        release.set()
        holder.join(timeout=60)
        other.join(timeout=60)
    assert not holder.is_alive()
    assert H.cached("held", lambda: "rebuilt") == "held" and b_matrix(O) is built[0]


def test_b_matrix_cache_dies_with_its_algebra():
    import gc
    from freealg import BMatrix, TensorAlgebra, quaternion_algebra

    def alive(kind):
        gc.collect()
        return sum(isinstance(obj, kind) for obj in gc.get_objects())

    for build, kind in ((b_matrix, BMatrix), (twisted_algebra, TensorAlgebra)):
        before = alive(kind)
        for _ in range(5):
            algebra = quaternion_algebra()
            assert build(algebra) is build(algebra)
        del algebra
        assert alive(kind) == before


def test_mismatch_errors(C, H):
    with pytest.raises(AlgebraMismatch):
        apply(LinearMap.identity(C), H.unit())
    with pytest.raises(AlgebraMismatch):
        compose(LinearMap.identity(C), LinearMap.identity(H))
    with pytest.raises(AlgebraMismatch):
        coords_from_standard(Tensor2.unit(C), LinearMap.identity(H))


def test_one_sided_mismatches_raise(C, H):
    # each guard fires when either side is on another algebra; the match
    # tells the sandwich guard from compose's, which raises the same class
    f = LinearMap.identity(H)
    with pytest.raises(AlgebraMismatch, match="sandwich factors"):
        sandwich(C.unit(), f, H.unit())
    with pytest.raises(AlgebraMismatch, match="sandwich factors"):
        sandwich(H.unit(), f, C.unit())
    with pytest.raises(AlgebraMismatch, match="different algebras"):
        orbit_contains(LinearMap(H, C, [[0] * 4] * 2), f)
    with pytest.raises(AlgebraMismatch, match="different algebras"):
        orbit_contains(LinearMap(C, H, [[0] * 2] * 4), f)


def test_heterogeneous_sandwich(C, H):
    # f maps C into H; the sandwich factors live in the target algebra
    f = LinearMap(C, H, [[1, 0], [0, 1], [0, 0], [0, 0]])
    i, j = H.basis_element(1), H.basis_element(2)
    s = sandwich(i, f, j)
    z = C.element([2, 3])
    assert apply(s, z) == multiply(multiply(i, apply(f, z)), j)
    with pytest.raises(AlgebraMismatch):
        standard_from_coords(f)


def test_standard_solution_family_reproduces_map(C):
    delta = LinearMap.identity(C)
    sol = standard_from_coords(delta)
    assert len(sol.nullspace) == 2
    for ns in sol.nullspace:
        assert coords_from_standard(sol.particular + ns, delta) == delta


def test_representation_basis_dual_numbers():
    # x^2 = 0 adjoined to a unit: the component matrix has rank 2 and
    # discovery needs two extra generators beyond the identity
    dual = FreeAlgebra(2, ("1", "eps"), [
        (0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1)], unit_index=0)
    gens = representation_basis(dual)
    assert [g.coords for g in gens] == [
        ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
        ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1))),
        ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))),
    ]
    rows = []
    for g in gens:
        for i in range(2):
            for j in range(2):
                m = coords_from_standard(Tensor2.basis_tensor(dual, i, j), g)
                rows.append([v for row in m.coords for v in row])
    assert oracle.rank(rows) == 4


def test_every_order_argument_is_validated(H):
    f = LinearMap.identity(H)
    t = Tensor2.unit(H)
    one = H.unit()
    calls = [lambda order: b_matrix(H, order),
             lambda order: sandwich(one, f, one, order),
             lambda order: coords_from_standard(t, f, order),
             lambda order: standard_from_coords(f, order),
             lambda order: orbit_contains(f, f, order),
             lambda order: representation_basis(H, order)]
    for call in calls:
        with pytest.raises(ValueError, match=r"one of \('left', 'right'\), got 'middle'"):
            call("middle")
