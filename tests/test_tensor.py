import random
from fractions import Fraction

import pytest

from freealg import (AlgebraMismatch, EmptyFactorList, InvalidAlgebra, LinearMap,
                     SingularTensor, Tensor2, is_associative, multiply, quaternion_algebra,
                     random_element, standard_from_coords, TensorAlgebra,
                     tensor_inverse, tensor_mul, tensor_product, twisted_mul)
from freealg.tensor import twisted_algebra


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
    from freealg import inverse_element, norm_sq
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
