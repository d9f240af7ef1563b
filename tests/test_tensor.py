import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from freealg import (AlgebraMismatch, EmptyFactorList, InvalidAlgebra, LinearMap,
                     QuaternionParams, SingularTensor, SubstitutionCheckFailed, Tensor2,
                     inverse_element, is_associative, linmap, multiply, norm_sq, opposite,
                     quaternion_algebra, random_element, standard_from_coords, TensorAlgebra,
                     tensor_inverse, tensor_mul, tensor_product, twisted_mul)
from freealg.tensor import twisted_algebra
from test_component_blocks import dual_numbers
from test_kernel_properties import BIG, algebras, grids
import oracle


def rnd_tensor(algebra, rng, bound=5):
    n = algebra.dim
    return Tensor2(algebra, [[Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
                              for _ in range(n)] for _ in range(n)])


def test_tensor_product_cc(C):
    CC = tensor_product([C, C])
    assert CC.dim == 4
    i_i = CC.pure([C.basis_element(1), C.basis_element(1)])
    unit = CC.pure([C.basis_element(0), C.basis_element(0)])
    assert multiply(i_i, i_i) == unit
    assert CC.unit() == unit


def test_single_factor_is_same_algebra(H):
    wrapped = tensor_product([H])
    assert wrapped.constants == H.constants
    assert wrapped.dim == H.dim
    assert wrapped.unit_index == H.unit_index


def test_empty_factor_list():
    with pytest.raises(EmptyFactorList):
        tensor_product([])


def test_tensor_product_hh_associative(H):
    assert is_associative(tensor_product([H, H]))


def test_three_factor_product(C):
    CCC = tensor_product([C, C, C])
    assert CCC.dim == 8
    i = C.basis_element(1)
    one = C.basis_element(0)
    t = CCC.pure([i, one, i])
    assert tensor_mul(t, t) == CCC.pure([-one, one, -one])
    assert CCC.labels[CCC.flat_index((1, 0, 1))] == "i(x)1(x)i"


def test_constants_match_componentwise_product(C, H):
    # basis-tensor products through the derived constants against the
    # factorwise product, on every basis pair
    for algebra in (C, H):
        TT = tensor_product([algebra, algebra])
        n = algebra.dim
        for k1 in range(n):
            for k2 in range(n):
                for l1 in range(n):
                    for l2 in range(n):
                        lhs = tensor_mul(
                            TT.pure([algebra.basis_element(k1), algebra.basis_element(k2)]),
                            TT.pure([algebra.basis_element(l1), algebra.basis_element(l2)]))
                        rhs = TT.pure([
                            multiply(algebra.basis_element(k1), algebra.basis_element(l1)),
                            multiply(algebra.basis_element(k2), algebra.basis_element(l2)),
                        ])
                        assert lhs == rhs


def test_tensor_and_opposite_tables_are_built_without_fractions(count_fractions):
    # A (x) A^op for A = E(1/2, -1/3) (x) E(1/2, -1/3): 65536 constants over
    # 1296, built on int numerators with no Fraction made, and equal to the
    # products of E's constants taken as Fractions
    E = quaternion_algebra(QuaternionParams(Fraction(1, 2), Fraction(-1, 3)))
    A = tensor_product([E, E])
    built = count_fractions()
    twisted = TensorAlgebra([A, opposite(A)])
    assert built == []
    dim, a = oracle.tensor_constants([(4, E.constants), (4, E.constants)])
    op = sorted((j, i, k, v) for i, j, k, v in a)
    dim, want = oracle.tensor_constants([(dim, a), (dim, op)])
    assert (twisted.dim, twisted.constants) == (dim, tuple(want))
    assert twisted.denominator == lcm(*(v.denominator for *_, v in want)) == 1296
    assert twisted.unit_index == 0


def test_decomposable_product_random(H):
    rng = random.Random(20)
    HH = tensor_product([H, H])
    for _ in range(10):
        a1, a2, b1, b2 = (random_element(H, rng) for _ in range(4))
        lhs = tensor_mul(HH.pure([a1, a2]), HH.pure([b1, b2]))
        assert lhs == HH.pure([multiply(a1, b1), multiply(a2, b2)])


def test_pure_components_are_outer_product(C):
    CC = tensor_product([C, C])
    a = C.element([2, 3])
    b = C.element([5, -1])
    t = CC.pure([a, b])
    for i in range(2):
        for j in range(2):
            assert t.coords[CC.flat_index((i, j))] == a.coords[i] * b.coords[j]


def test_mixed_basis_product(C):
    CC = tensor_product([C, C])
    e0, e1 = C.basis_element(0), C.basis_element(1)
    lhs = tensor_mul(CC.pure([e0, e1]), CC.pure([e1, e0]))
    assert lhs == CC.pure([e1, e1])


def test_basis_tensor_refuses_indices_out_of_range(H):
    assert Tensor2.basis_tensor(H, 3, 1).components[3][1] == 1
    for i, j in ((0, 5), (-1, 0), (4, 0), (0, -1)):
        with pytest.raises(InvalidAlgebra, match=rf"^basis tensor index \({i},{j}\) out of range"):
            Tensor2.basis_tensor(H, i, j)


def test_twisted_unit(H):
    rng = random.Random(21)
    one = Tensor2.unit(H)
    t = rnd_tensor(H, rng)
    assert twisted_mul(one, t) == t
    assert twisted_mul(t, one) == t


def test_twisted_pure_products(H):
    i, j, k = H.basis_element(1), H.basis_element(2), H.basis_element(3)
    lhs = twisted_mul(Tensor2.pure(i, j), Tensor2.pure(k, H.unit()))
    # (i (x) j) o (k (x) 1) = (ik) (x) (1 j) = (-j) (x) j
    assert lhs == Tensor2.pure(-j, j)


def test_twisted_associative_over_H(H):
    rng = random.Random(22)
    for _ in range(10):
        a, b, c = (rnd_tensor(H, rng, 3) for _ in range(3))
        assert twisted_mul(twisted_mul(a, b), c) == twisted_mul(a, twisted_mul(b, c))


def test_twisted_bilinear(H):
    rng = random.Random(23)
    s, t, u = (rnd_tensor(H, rng) for _ in range(3))
    assert twisted_mul(s, t + u) == twisted_mul(s, t) + twisted_mul(s, u)
    assert twisted_mul(s + t, u) == twisted_mul(s, u) + twisted_mul(t, u)
    c = Fraction(3, 7)
    assert twisted_mul(s.scaled(c), t) == twisted_mul(s, t).scaled(c)
    assert twisted_mul(s, t.scaled(c)) == twisted_mul(s, t).scaled(c)


def test_tensor_inverse(H):
    one = Tensor2.unit(H)
    assert tensor_inverse(one) == one
    i, j = H.basis_element(1), H.basis_element(2)
    assert tensor_inverse(Tensor2.pure(i, j)) == Tensor2.pure(i, j)
    with pytest.raises(SingularTensor):
        tensor_inverse(Tensor2(H, [[0] * 4] * 4))


def test_tensor_inverse_pure_random(H):
    rng = random.Random(24)
    one = Tensor2.unit(H)
    for _ in range(10):
        a, b = random_element(H, rng), random_element(H, rng)
        if norm_sq(a) == 0 or norm_sq(b) == 0:
            continue
        t = Tensor2.pure(a, b)
        u = tensor_inverse(t)
        assert twisted_mul(t, u) == one
        assert twisted_mul(u, t) == one
        assert u == Tensor2.pure(inverse_element(a), inverse_element(b))


def test_twisted_algebra_is_built_only_by_the_twisted_product():
    H = quaternion_algebra()
    rng = random.Random(24)
    t = rnd_tensor(H, rng) + Tensor2.unit(H)
    standard_from_coords(LinearMap.identity(H))
    assert not any(isinstance(v, TensorAlgebra) for v in H._cache.values())
    twisted_mul(t, t)
    built = twisted_algebra(H)
    assert built.factors[0] is H
    tensor_inverse(t)
    assert twisted_algebra(H) is built


def test_tensor_mismatch(C, H):
    with pytest.raises(AlgebraMismatch):
        twisted_mul(Tensor2.unit(C), Tensor2.unit(H))


def test_tensor_inverse_one_sided_is_distinct(O):
    # nonassociativity permits a right inverse that fails from the left;
    # this tensor has one (found by randomized search, then frozen)
    comp = [[0] * 8 for _ in range(8)]
    comp[0][1] = -1
    comp[1][6] = 1
    comp[2][4] = -2
    comp[2][7] = -2
    t = Tensor2(O, comp)
    with pytest.raises(SingularTensor) as err:
        tensor_inverse(t)
    assert err.value.one_sided
    # plain rank deficiency is not flagged as one-sided
    with pytest.raises(SingularTensor) as err:
        tensor_inverse(Tensor2(O, [[0] * 8] * 8))
    assert not err.value.one_sided


def invertible_quaternions(H, rng, count):
    found = []
    while len(found) < count:
        a = random_element(H, rng)
        if norm_sq(a) != 0:
            found.append(a)
    return found


def test_tensor_inverse_of_pure_tensors_over_hh_is_the_closed_form(H):
    # (a (x) b)^-1 = a^-1 (x) b^-1, with a = p (x) q and a^-1 = p^-1 (x) q^-1
    # in H (x) H: a 256-component tensor, out of reach of the n^4 solve
    HH = tensor_product([H, H])
    p, q, r, s = invertible_quaternions(H, random.Random(19), 4)
    a, b = HH.pure([p, q]), HH.pure([r, s])
    a_inv = HH.pure([inverse_element(p), inverse_element(q)])
    b_inv = HH.pure([inverse_element(r), inverse_element(s)])
    assert tensor_inverse(Tensor2.pure(a, b)) == Tensor2.pure(a_inv, b_inv)


class Refused(Exception):
    pass


def refuse(monkeypatch, *names):
    """Make each named ``linmap`` function raise Refused(its name)."""
    for name in names:
        def refused(*args, name=name, **kwargs):
            raise Refused(name)
        monkeypatch.setattr(linmap, name, refused)


def test_tensor_inverse_needs_no_left_shift_where_sandwiching_is_onto(C, H, O, monkeypatch):
    # associative with a component matrix of full rank: H, the split
    # quaternions, E(1/2, -3) and H (x) H invert without a left shift, and
    # read t's map off B without composing maps; O (not associative), C and
    # the dual numbers (B not of full rank) need a left shift
    def tensor(algebra):  # 2 + (x -> e x e), where (x -> e x e)^2 is x or 0
        e = algebra.basis_element(1)
        return Tensor2.unit(algebra).scaled(2) + Tensor2.pure(e, e)

    isomorphic = [H, quaternion_algebra(QuaternionParams(1, 1)),
                  quaternion_algebra(QuaternionParams(Fraction(1, 2), -3)), tensor_product([H, H])]
    with monkeypatch.context() as patched:
        refuse(patched, "left_shift", "compose")
        for algebra in isomorphic:
            t, unit = tensor(algebra), Tensor2.unit(algebra)
            u = tensor_inverse(t)
            assert twisted_mul(u, t) == unit == twisted_mul(t, u)
        for algebra in (O, C, dual_numbers()):
            with pytest.raises(Refused, match="^left_shift$"):
                tensor_inverse(tensor(algebra))
        # 1 (x) 1 + i (x) i sends 1 to 1 + i i = 0: singular, and not one-sided
        with pytest.raises(SingularTensor) as err:
            tensor_inverse(Tensor2(H, [[1, 0, 0, 0], [0, 1, 0, 0], [0] * 4, [0] * 4]))
        assert not err.value.one_sided


def test_a_wrong_inverse_through_the_maps_is_a_library_fault(H, monkeypatch):
    convert = linmap.standard_from_coords

    def doubled(g, order="left"):
        solution = convert(g, order)
        return linmap.StandardSolution(solution.particular.scaled(2), solution.nullspace)

    monkeypatch.setattr(linmap, "standard_from_coords", doubled)
    i = H.basis_element(1)
    with pytest.raises(SubstitutionCheckFailed):
        tensor_inverse(Tensor2.unit(H) + Tensor2.pure(i, i).scaled(3))


def check_inverse(algebra, comps):
    """tensor_inverse against a plain-Fraction solve of t o u = unit: the
    particular solution u, with free components 0, when u o t = unit too;
    SingularTensor, one-sided exactly when that solve succeeds, otherwise."""
    c, n, e = oracle.table(algebra.constants, algebra.dim), algebra.dim, algebra.unit_index
    unit = [[Fraction(int(r == c_ == e)) for c_ in range(n)] for r in range(n)]
    solved = oracle.solve(oracle.left_action(c, comps), sum(unit, []))
    u = solved and [solved[1][r * n:r * n + n] for r in range(n)]
    if u and oracle.twisted(c, u, comps) == unit:
        assert [list(row) for row in tensor_inverse(Tensor2(algebra, comps)).components] == u
        return True
    with pytest.raises(SingularTensor) as err:
        tensor_inverse(Tensor2(algebra, comps))
    assert err.value.one_sided == bool(u)
    return False


@settings(max_examples=40)
@given(st.data())
def test_tensor_inverse_matches_the_fraction_solve(data):
    algebra = data.draw(algebras(unital=True))
    check_inverse(algebra, data.draw(grids(algebra.dim)))


@settings(max_examples=20)  # each reference solve eliminates 40-bit Fractions
@given(st.lists(BIG, min_size=16, max_size=16), st.booleans())
def test_tensor_inverse_matches_the_fraction_solve_on_40_bit_quaternion_tensors(values, singular):
    H = quaternion_algebra()
    s = [values[r * 4:r * 4 + 4] for r in range(4)]
    # 1 (x) 1 + i (x) i sends 1 to 0 by sandwiching, so s o it has no inverse
    if singular:
        one_one_plus_i_i = [[1, 0, 0, 0], [0, 1, 0, 0], [0] * 4, [0] * 4]
        assert not check_inverse(H, oracle.twisted(oracle.table(H.constants, 4), s,
                                                   one_one_plus_i_i))
    else:
        check_inverse(H, s)
